"""Special-function and quadrature primitives against independent references.

The Laguerre evaluator is hand-rolled, so it is checked against scipy and a
recurrence; the Bessel and Q wrappers delegate to scipy, so they are checked
against a plain series sum and a direct density integral instead.
"""

import math

import numpy as np
import pytest
from scipy import special as sps

from oamlink.numerics import (
    BESSEL_MAX_ARG,
    BESSEL_MAX_ORDER,
    LAGUERRE_MAX_ORDER,
    bessel_j,
    gauss_legendre,
    laguerre,
    periodic_trapezoid,
    q_function,
)

# First positive zero of J_0, to 16 digits.
J0_FIRST_ZERO = 2.404825557695773


class TestLaguerre:
    def test_low_order_closed_forms(self):
        x = np.linspace(0.0, 9.0, 50)
        assert np.allclose(laguerre(0, 0, x), np.ones_like(x))
        assert np.allclose(laguerre(1, 0, x), 1.0 - x)
        assert np.allclose(laguerre(1, 2, x), 3.0 - x)
        assert np.allclose(laguerre(2, 0, x), 0.5 * (x**2 - 4.0 * x + 2.0))

    def test_known_point(self):
        # L_2(2) = (4 - 8 + 2)/2
        assert laguerre(2, 0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 30.0, size=200)
        for p in range(LAGUERRE_MAX_ORDER + 1):
            for alpha in (0, 1, 3, 6):
                ours = laguerre(p, alpha, x)
                ref = sps.eval_genlaguerre(p, alpha, x)
                # Near the roots both evaluations lose relative accuracy to
                # cancellation, so compare on the scale of the polynomial's
                # magnitude over the domain.
                scale = np.max(np.abs(ref))
                assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9 * scale), (
                    p,
                    alpha,
                )

    def test_three_term_recurrence(self):
        # (p+1) L_{p+1}^a = (2p + a + 1 - x) L_p^a - (p + a) L_{p-1}^a
        x = np.linspace(0.1, 20.0, 37)
        alpha = 2
        for p in range(1, LAGUERRE_MAX_ORDER):
            lhs = (p + 1) * laguerre(p + 1, alpha, x)
            rhs = (2 * p + alpha + 1 - x) * laguerre(p, alpha, x) - (
                p + alpha
            ) * laguerre(p - 1, alpha, x)
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    def test_scalar_in_scalar_out(self):
        out = laguerre(3, 1, 0.5)
        assert isinstance(out, float)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(LAGUERRE_MAX_ORDER + 1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 0, math.inf)


def _bessel_series(n: int, x: float, terms: int = 60) -> float:
    """J_n by the ascending power series; independent of scipy."""
    total = 0.0
    for m in range(terms):
        total += (
            (-1.0) ** m
            / (math.factorial(m) * math.factorial(m + n))
            * (x / 2.0) ** (2 * m + n)
        )
    return total


class TestBessel:
    def test_against_series(self):
        # The alternating series loses digits as x grows (terms peak near
        # (x/2)^(2m)/m!^2 before decaying), so the reference itself is only
        # good to ~1e-10 relative at x ~ 10.
        for n in (0, 1, 2, 5):
            for x in (0.0, 0.3, 1.7, 4.2, 9.9):
                assert bessel_j(n, x) == pytest.approx(
                    _bessel_series(n, x), rel=1e-9, abs=1e-14
                ), (n, x)

    def test_first_zero_of_j0(self):
        assert bessel_j(0, J0_FIRST_ZERO) == pytest.approx(0.0, abs=1e-14)
        # And it is a sign change, not a tangency.
        assert bessel_j(0, J0_FIRST_ZERO - 1e-3) > 0
        assert bessel_j(0, J0_FIRST_ZERO + 1e-3) < 0

    def test_negative_order_symmetry(self):
        x = np.linspace(0.0, 20.0, 41)
        for n in (1, 2, 3, 7):
            assert np.allclose(bessel_j(-n, x), (-1.0) ** n * bessel_j(n, x))

    def test_guards(self):
        with pytest.raises(ValueError):
            bessel_j(BESSEL_MAX_ORDER + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, BESSEL_MAX_ARG * 2)
        with pytest.raises(ValueError):
            bessel_j(0, math.nan)
        with pytest.raises(ValueError):
            bessel_j(0.5, 1.0)


class TestQFunction:
    def test_against_density_integral(self):
        # Q(x) = integral of the standard normal pdf from x to infinity;
        # evaluate with Gauss-Legendre on [x, x+12] (truncated tail < 1e-32
        # of the remaining mass at these x).
        for x in (0.0, 0.5, 1.0, 2.0, 3.5):
            rule = gauss_legendre(200, x, x + 12.0)
            t = rule.nodes
            ref = rule.integrate(np.exp(-(t**2) / 2.0) / math.sqrt(2.0 * math.pi))
            assert q_function(x) == pytest.approx(ref, rel=1e-12)

    def test_decile_point(self):
        # Standard normal upper decile.
        assert q_function(1.2815515655446004) == pytest.approx(0.1, rel=1e-12)

    def test_symmetry_and_limits(self):
        assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
        x = np.linspace(-4.0, 4.0, 17)
        assert np.allclose(q_function(x) + q_function(-x), 1.0, atol=1e-14)

    def test_far_tail_is_not_flushed(self):
        assert q_function(30.0) > 0.0
        assert q_function(30.0) < 1e-190


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # Order n integrates polynomials up to degree 2n-1 exactly.
        rule = gauss_legendre(6, -1.0, 3.0)
        for degree in range(12):
            exact = (3.0 ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
            got = rule.integrate(rule.nodes**degree)
            assert got == pytest.approx(exact, rel=1e-12), degree

    def test_interval_mapping(self):
        rule = gauss_legendre(16, 2.0, 5.0)
        assert rule.nodes.min() > 2.0 and rule.nodes.max() < 5.0
        assert rule.weights.sum() == pytest.approx(3.0, rel=1e-14)

    def test_smooth_integrand(self):
        rule = gauss_legendre(48, 0.0, math.pi)
        assert rule.integrate(np.sin(rule.nodes)) == pytest.approx(2.0, rel=1e-13)

    def test_guards(self):
        with pytest.raises(ValueError):
            gauss_legendre(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(16, 1.0, 1.0)


class TestPeriodicTrapezoid:
    def test_exact_for_harmonics(self):
        # Only the DC term survives; e^{i m phi} integrates to 0 for m != 0.
        for m in (1, 3, 11):
            got = periodic_trapezoid(lambda phi, m=m: np.exp(1j * m * phi), 32)
            assert abs(got) < 1e-13
        dc = periodic_trapezoid(lambda phi: np.ones_like(phi), 32)
        assert dc == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_spectral_accuracy(self):
        # Smooth periodic integrand: exp(cos(phi)) integrates to 2*pi*I_0(1).
        exact = 2.0 * math.pi * sps.iv(0, 1.0)
        got = periodic_trapezoid(lambda phi: np.exp(np.cos(phi)), 24)
        assert got.real == pytest.approx(exact, rel=1e-12)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            periodic_trapezoid(np.cos, 4)
