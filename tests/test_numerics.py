"""Special-function and quadrature primitives against independent references.

The Laguerre and Bessel evaluators are hand-rolled, so they are checked
against scipy, mpmath at 30 digits (and a recurrence or a plain series
sum); the Q wrapper delegates to scipy, so it is checked against a direct
density integral.
"""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special as sps

from oamlink import numerics
from oamlink.numerics import (
    BESSEL_MAX_ARG,
    BESSEL_MAX_ORDER,
    LAGUERRE_MAX_ORDER,
    bessel_i_scaled,
    bessel_j,
    gauss_legendre,
    laguerre,
    laguerre_coefficients,
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

    def test_memoised_coefficients_cannot_be_changed(self):
        coeffs = laguerre_coefficients(2, 3)
        assert coeffs == (10.0, -5.0, 0.5)  # L_2^3(x) = 10 - 5x + x^2/2
        with pytest.raises(TypeError):
            coeffs[0] = 99.0
        assert laguerre_coefficients(2, 3) == (10.0, -5.0, 0.5)

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
        # A bool is not an order: L_1^2(0.5) = 2.5 came back for True.
        with pytest.raises(ValueError, match="radial order p must be a non-negative integer"):
            laguerre(True, 2, 0.5)
        with pytest.raises(ValueError, match="degree alpha must be a non-negative integer"):
            laguerre(2, True, 0.5)


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
                assert bessel_j([n], x)[0] == pytest.approx(
                    _bessel_series(n, x), rel=1e-9, abs=1e-14
                ), (n, x)

    def test_first_zero_of_j0(self):
        assert bessel_j([0], J0_FIRST_ZERO)[0] == pytest.approx(0.0, abs=1e-14)
        # And it is a sign change, not a tangency.
        assert bessel_j([0], J0_FIRST_ZERO - 1e-3)[0] > 0
        assert bessel_j([0], J0_FIRST_ZERO + 1e-3)[0] < 0

    def test_against_scipy(self):
        orders = list(range(17))
        zeros = sps.jn_zeros(0, 25)
        x = np.concatenate(
            [np.linspace(0.0, 80.0, 8001), zeros, zeros * (1 + 1e-12), zeros * (1 - 1e-9)]
        )
        ref = np.array([sps.jv(n, x) for n in orders])
        assert np.max(np.abs(bessel_j(orders, x) - ref)) <= 1e-14

    def test_relative_accuracy_below_turning_point(self):
        # Where 0 < x < |n| the values are tiny, so absolute error says
        # nothing; the recurrence must keep their leading digits.
        orders = list(range(17))
        x = np.concatenate([[1e-12], np.geomspace(1e-12, 16.0, 2001)])
        ref = np.array([sps.jv(n, x) for n in orders])
        below = x[np.newaxis, :] < np.abs(np.array(orders))[:, np.newaxis]
        rel = np.abs(bessel_j(orders, x) - ref)[below] / np.abs(ref[below])
        assert rel.max() <= 1e-12

    def test_large_arguments(self):
        # Above the recurrence's order bound the values come from a forward
        # recurrence on scipy's J_0 and J_1; up to the argument guard the
        # absolute error stays near 1e-15. scipy's jv is itself 1.1e-14 off
        # at order 64 and x = 1e3, so the reference is mpmath at 30 digits.
        mpmath = pytest.importorskip("mpmath")
        x = np.array([65.0, -100.0, 234.5, 487.654321, -750.0, BESSEL_MAX_ARG])
        orders = [0, 1, 2, 16, BESSEL_MAX_ORDER]
        for n, row in zip(orders, bessel_j(orders, x)):
            with mpmath.workdps(30):
                ref = [float(mpmath.besselj(n, v)) for v in x]
            assert np.allclose(row, ref, rtol=0.0, atol=1e-14), n

    def test_sequence_matches_single_orders(self):
        rng = np.random.default_rng(9)
        x = rng.rayleigh(6.0, size=(300, 7)) * rng.choice([-1.0, 1.0], size=(300, 7))
        orders = [0, 2, 3, 16, 17, 64]
        table = bessel_j(orders, x)
        assert table.shape == (len(orders), *x.shape)
        for row, n in zip(table, orders):
            assert np.array_equal(row, bessel_j([n], x)[0]), n
        for bad in ([1, BESSEL_MAX_ORDER + 1], [1, 0.5]):
            with pytest.raises(ValueError):
                bessel_j(bad, x)

    def test_values_do_not_depend_on_other_orders(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([rng.rayleigh(4.0, 20000), [0.0, 1e-12, 16.0, 16.5, 70.0]])
        for n in (0, 1, 2, 7, 16, 40):
            alone = bessel_j([n], x)[0]
            for others in ([n + 1], [0, 1, 2, 3, 4], [BESSEL_MAX_ORDER, 16], list(range(17))):
                orders = sorted({*others, n})
                together = bessel_j(orders, x)[orders.index(n)]
                assert np.array_equal(together, alone), (n, others)

    def test_block_size_does_not_move_low_tier_orders(self, monkeypatch):
        # Monte Carlo sized batches: 65,536 Rayleigh offsets (10, 20 and
        # 30 urad over 1000 km) times the six bessel-sum sample radii of a
        # 5 cm aperture, in the kernel argument k r_a r / R. The tier-4
        # orders come out of a start index that every block of these shares,
        # so the block size leaves them bit for bit; a tier-16 start index
        # follows each block's largest argument, so those move by round-off.
        nodes = 0.05 * np.arange(1, 7) / 6
        rng = np.random.default_rng(12)
        shipped = numerics._BLOCK
        for sigma in (10e-6, 20e-6, 30e-6):
            offsets = rng.rayleigh(sigma * 1e6, 65536)
            x = (2 * np.pi / 1.55e-6 * offsets / 1e6)[:, np.newaxis] * nodes
            tables = []
            for block in (8192, shipped):
                monkeypatch.setattr(numerics, "_BLOCK", block)
                tables.append([bessel_j(n, x) for n in ([1, 2], [1, 2, 3, 4], [6], [8, 12])])
            (low, mid, six, high), (low2, mid2, six2, high2) = tables
            assert np.array_equal(low, low2) and np.array_equal(mid, mid2), sigma
            assert np.allclose(six, six2, rtol=0, atol=5e-16), sigma
            assert np.allclose(high, high2, rtol=0, atol=5e-16), sigma

    def test_exact_at_zero_and_parity_in_x(self):
        assert bessel_j([0], 0.0)[0] == 1.0
        assert np.array_equal(bessel_j([0, 1, 2, 16, 64], 0.0), [1.0, 0.0, 0.0, 0.0, 0.0])
        x = np.linspace(0.1, 30.0, 59)
        orders = [0, 1, 2, 5]
        for n, neg, pos in zip(orders, bessel_j(orders, -x), bessel_j(orders, x)):
            assert np.allclose(neg, (-1.0) ** n * pos, rtol=1e-15, atol=0), n

    def test_guards(self):
        with pytest.raises(ValueError):
            bessel_j([BESSEL_MAX_ORDER + 1], 1.0)
        with pytest.raises(ValueError):
            bessel_j([0], BESSEL_MAX_ARG * 2)
        with pytest.raises(ValueError):
            bessel_j([0], math.nan)
        with pytest.raises(ValueError):
            bessel_j([0.5], 1.0)
        # A bool is not an order: J_1(1) = 0.4401 came back for True.
        with pytest.raises(ValueError, match="integers"):
            bessel_j([True], 1.0)


def _scaled_i_reference(orders, beta):
    """e^{-|Re beta|} I_n(beta) from mpmath at 30 digits, one row per order."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return np.array([
            [complex(mpmath.besseli(n, mpmath.mpc(b.real, b.imag))
                     * mpmath.exp(-abs(mpmath.mpf(b.real)))) for b in beta]
            for n in orders
        ])


class TestScaledModifiedBessel:
    # The radial-sum kernel's order table: beta = -2 c r r' with
    # c = 1/w^2 + i k/2R, so long links sit near the imaginary axis and
    # short ones (1/w^2 comparable to k/2R) reach |Re beta| >> 1. The
    # reference is mpmath at 30 digits; scipy's ive is a second oracle.
    ORDERS = [0, 1, 2, 3, 5, 16, 17, 40, BESSEL_MAX_ORDER]

    def check(self, beta, tol):
        got = bessel_i_scaled(self.ORDERS, beta)
        ref = _scaled_i_reference(self.ORDERS, beta)
        # Each argument's error on the scale of its largest order value:
        # tiny high orders carry no absolute weight in a projection sum.
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref) <= tol * scale), np.max(np.abs(got - ref) / scale)

    def test_near_imaginary_axis(self):
        rng = np.random.default_rng(21)
        im = np.concatenate([rng.uniform(-64.0, 64.0, 12), rng.uniform(-1e3, 1e3, 12)])
        beta = rng.uniform(-1.0, 0.0, im.size) + 1j * im
        self.check(beta[:12], 1e-14)
        self.check(beta, 2e-13)
        self.check(np.array([1j * BESSEL_MAX_ARG, -0.5 - 999.5j]), 2e-13)

    def test_large_real_part(self):
        rng = np.random.default_rng(22)
        size = rng.uniform(1.5, BESSEL_MAX_ARG, 16)
        angle = rng.uniform(0.0, 2.0 * np.pi, 16)
        beta = size * np.exp(1j * angle)
        beta = np.concatenate([beta, [-BESSEL_MAX_ARG, -2.0 + 0.5j, -600.0 - 600.0j]])
        self.check(beta, 5e-15)

    def test_across_the_switch_between_normalisations(self):
        # A block whose |Re beta| stays <= 1 is normalised by
        # I_0 - 2 I_2 + 2 I_4 - ... = 1, any other by e^{t beta}: each
        # argument near |Re beta| = 1 alone, then next to |Re beta| = 3.
        re = np.array([-1.0 - 1e-12, -1.0, -1.0 + 1e-12, -0.999, -1.001, 1.0, 1.001, 0.0])
        beta = np.concatenate([re + 30.0j, re - 5.0j, re * 1e-3 + 60.0j])
        got = np.array([bessel_i_scaled(self.ORDERS, np.array([b]))[:, 0] for b in beta]).T
        ref = _scaled_i_reference(self.ORDERS, beta)
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale), np.max(np.abs(got - ref) / scale)
        mixed = bessel_i_scaled(self.ORDERS, np.append(beta, -3.0 + 1.0j))[:, :-1]
        assert np.all(np.abs(mixed - ref) <= 1e-14 * scale), np.max(np.abs(mixed - ref) / scale)

    def test_around_the_rescaling_threshold(self):
        # Past |beta| = 64 the recurrence rescales as it descends.
        beta = -0.01 + 1j * np.array([63.999, 64.0, 64.001, -64.0, -64.001, 63.0, 65.0])
        self.check(beta, 1e-14)
        self.check(beta - 5.0, 1e-14)

    def test_matches_scipy_on_link_arguments(self):
        # The default link's domain: |beta| <= 49, |Re beta| <= 0.57.
        from scipy.special import ive

        rng = np.random.default_rng(23)
        beta = rng.uniform(-0.57, 0.0, 4000) + 1j * rng.uniform(-49.0, 49.0, 4000)
        orders = list(range(0, 17))
        got = bessel_i_scaled(orders, beta)
        ref = ive(np.reshape(orders, (-1, 1)), beta)
        assert np.all(np.abs(got - ref) <= 5e-14 * np.abs(ref).max(axis=0))

    def test_rescaling_keeps_small_arguments_beside_large_ones(self):
        # One block: |beta| = 1000 sets a start index near 1,100, from
        # which the recurrence grows past 1e2000 at every argument unless
        # it is rescaled on the way down.
        beta = np.array([-BESSEL_MAX_ARG + 0.0j, -1.5 + 0.2j, 3.0 - 70.0j, -1.2 + 0.0j])
        assert np.all(np.isfinite(bessel_i_scaled(self.ORDERS, beta)))
        self.check(beta, 5e-15)

    def test_exact_at_zero_and_parity(self):
        assert bessel_i_scaled([0], 0.0)[0] == 1.0
        table = bessel_i_scaled([0, 1, 2, 16, 64], np.zeros(3, complex))
        assert np.array_equal(table, np.outer([1.0, 0.0, 0.0, 0.0, 0.0], np.ones(3)))
        rng = np.random.default_rng(24)
        beta = rng.uniform(-30.0, 30.0, 50) + 1j * rng.uniform(-300.0, 300.0, 50)
        orders = [1, 2, 7, BESSEL_MAX_ORDER]
        table, mirrored = bessel_i_scaled(orders, beta), bessel_i_scaled(orders, -beta)
        for n, neg, pos in zip(orders, mirrored, table):
            assert np.allclose(neg, (-1.0) ** n * pos, rtol=1e-13, atol=1e-300), n

    def test_values_do_not_depend_on_other_orders(self):
        rng = np.random.default_rng(25)
        beta = np.concatenate([
            rng.uniform(-0.6, 0.0, 5000) + 1j * rng.uniform(-49.0, 49.0, 5000),
            rng.uniform(-400.0, 0.0, 200) + 1j * rng.uniform(-400.0, 400.0, 200),
            [0.0, 1e-12j, -1.0, -1.0 + 64.0j, 90.0j],
        ])
        for n in (0, 1, 2, 7, 16, 40):
            alone = bessel_i_scaled([n], beta)[0]
            for others in ([n + 1], [0, 1, 2, 3, 4], [BESSEL_MAX_ORDER, 16], list(range(17))):
                orders = sorted({*others, n})
                together = bessel_i_scaled(orders, beta)[orders.index(n)]
                assert np.array_equal(together, alone), (n, others)

    def test_guards(self):
        for bad in (math.nan, complex(0.0, math.inf), complex(math.nan, 1.0)):
            with pytest.raises(ValueError, match="Bessel argument must be finite"):
                bessel_i_scaled([0], bad)
        with pytest.raises(ValueError, match=r"exceeds guard \|x\| <= 1000"):
            bessel_i_scaled([0, 1], np.array([0.0, 1.0j * BESSEL_MAX_ARG * 1.001]))
        with pytest.raises(ValueError, match="exceeds guard"):
            bessel_i_scaled([BESSEL_MAX_ORDER + 1], 1.0j)
        with pytest.raises(ValueError, match="integers"):
            bessel_i_scaled([0.5], 1.0j)
        with pytest.raises(ValueError, match="integers"):
            bessel_i_scaled([True], 1.0j)


@pytest.mark.parametrize("kernel", [bessel_j, bessel_i_scaled])
@pytest.mark.parametrize("orders", [[-1, 0], [0, 2, 2], [2, 1], [0, 3, 2], 3, [[0, 1]]])
def test_refuses_orders_that_are_not_distinct_ascending_and_non_negative(kernel, orders):
    with pytest.raises(ValueError, match="Bessel orders must be"):
        kernel(orders, np.ones(3))


@pytest.mark.parametrize("kernel", [bessel_j, bessel_i_scaled])
def test_argument_guard_keeps_its_texts_and_priority(kernel):
    # One reduction decides; only a failure looks again, and a non-finite
    # argument is named before a too-large one wherever either sits.
    for bad in ([math.nan, 2e3], [2e3, math.nan], [1.0, math.inf], [-math.inf, 5.0]):
        with pytest.raises(ValueError, match="Bessel argument must be finite"):
            kernel([0], np.array(bad))
    for big in ([2e3], [0.0, -1000.5]):
        with pytest.raises(ValueError, match=r"exceeds guard \|x\| <= 1000"):
            kernel([0], np.array(big))
    assert kernel([0, 1], np.array([-BESSEL_MAX_ARG, BESSEL_MAX_ARG])).shape == (2, 2)
    assert kernel([0, 1], np.empty((0, 3))).shape == (2, 0, 3)


class TestWorkBuffers:
    """Each thread reuses one recurrence work buffer per dtype; what an
    earlier call left in it must never reach a value."""

    ORDERS = [0, 1, 2, 4, 9, 17, 40]

    @staticmethod
    def small_calls():
        x = np.linspace(0.0, 45.0, 13)
        beta = -2.0 * (1.0 / 400.0 + 0.5j * 4.05e6 / 1e6) * 0.04 * np.linspace(0.0, 30.0, 11)
        return x, beta

    def test_call_after_larger_and_complex_calls_equals_fresh_process(self, tmp_path):
        fresh = tmp_path / "fresh.npz"
        script = (
            "import sys, numpy as np\n"
            "from oamlink.numerics import bessel_j, bessel_i_scaled\n"
            "from test_numerics import TestWorkBuffers as T\n"
            "x, beta = T.small_calls()\n"
            "np.savez(sys.argv[1], j=bessel_j(T.ORDERS, x), i=bessel_i_scaled(T.ORDERS, beta))\n"
        )
        path = os.pathsep.join([str(Path(numerics.__file__).parents[1]), str(Path(__file__).parent)])
        env = {**os.environ, "PYTHONPATH": path + os.pathsep + os.environ.get("PYTHONPATH", "")}
        subprocess.run([sys.executable, "-c", script, str(fresh)], check=True, env=env)
        want = np.load(fresh)
        x, beta = self.small_calls()
        rng = np.random.default_rng(9)
        for before in (
            lambda: bessel_j(self.ORDERS, rng.uniform(-900.0, 900.0, 40000)),
            lambda: bessel_i_scaled(self.ORDERS, rng.uniform(-60, 60, 9000) * (1 + 3j)),
            lambda: bessel_j([3], rng.uniform(0.0, 70.0, 5)),
        ):
            before()
            assert np.array_equal(bessel_j(self.ORDERS, x), want["j"])
            before()
            assert np.array_equal(bessel_i_scaled(self.ORDERS, beta), want["i"])

    def test_concurrent_threads_give_the_serial_result(self):
        rng = np.random.default_rng(10)
        inputs = []
        for size in (7, 3000, 40000, 70000, 12, 33000):
            inputs.append(rng.uniform(0.0, 60.0, size))
            inputs.append(rng.uniform(-40.0, 40.0, size // 2) * (1.0 - 2.0j))

        def run(x):
            kernel = bessel_i_scaled if np.iscomplexobj(x) else bessel_j
            return kernel(self.ORDERS, x)

        serial = [run(x) for x in inputs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                for got, want in zip(pool.map(run, inputs), serial):
                    assert np.array_equal(got, want)


class TestQFunction:
    def test_against_density_integral(self):
        # Q(x) = integral of the standard normal pdf from x to infinity;
        # evaluate with Gauss-Legendre on [x, x+12] (truncated tail < 1e-32
        # of the remaining mass at these x).
        for x in (0.0, 0.5, 1.0, 2.0, 3.5):
            nodes, weights = gauss_legendre(200, x, x + 12.0)
            t = nodes
            ref = weights @ (np.exp(-(t**2) / 2.0) / math.sqrt(2.0 * math.pi))
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

    def test_range_stated_in_the_docstring(self):
        # Full accuracy while Q is a normal float; scipy's erfc underflows
        # before the subnormal range, so Q(38), truly 2.9e-316, reads 0.
        assert q_function(37.5) == pytest.approx(4.605353009581955e-308, rel=1e-12)
        assert q_function(38.0) == 0.0


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        # Order n integrates polynomials up to degree 2n-1 exactly.
        nodes, weights = gauss_legendre(6, -1.0, 3.0)
        for degree in range(12):
            exact = (3.0 ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
            got = weights @ nodes**degree
            assert got == pytest.approx(exact, rel=1e-12), degree

    def test_interval_mapping(self):
        # The rule is the unchecked _legendre_rule's (nodes, weights) pair,
        # float for float.
        for order, a, b in ((16, 2.0, 5.0), (2, -1.0, 1.0), (96, 0.0, 0.05),
                            (200, 3.5, 15.5), (512, -7.0, 1e3)):
            rule = gauss_legendre(order, a, b)
            assert isinstance(rule, tuple) and len(rule) == 2
            nodes, weights = rule
            want_nodes, want_weights = numerics._legendre_rule(order, a, b)
            assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
            # Its memo holds numpy's unit rule, bit for bit, once per order.
            unit = numerics._leggauss(order)
            assert unit is numerics._leggauss(order)
            assert all(np.array_equal(got, want) for got, want in zip(unit, leggauss(order)))
            assert nodes.min() > a and nodes.max() < b
            assert weights.sum() == pytest.approx(b - a, rel=1e-13)

    def test_smooth_integrand(self):
        nodes, weights = gauss_legendre(48, 0.0, math.pi)
        assert weights @ np.sin(nodes) == pytest.approx(2.0, rel=1e-13)

    def test_guards(self):
        with pytest.raises(ValueError):
            gauss_legendre(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(16, 1.0, 1.0)
        with pytest.raises(ValueError, match="quadrature order must be an integer"):
            gauss_legendre(True, 0.0, 1.0)
