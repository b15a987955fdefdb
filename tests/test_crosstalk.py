"""Crosstalk coefficient evaluators.

The reference integral is pinned against constants frozen from a standalone
brute-force computation (dense trapezoid grids, scipy Laguerre, no package
code) and, for one case, against a compact in-test version of that oracle.
The approximation chain is then checked against the reference within its
documented accuracy budget, plus structural invariants: filter-order
completeness, mirror symmetry and separability.
"""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import oamlink.crosstalk
from oamlink.beam import MAX_AZIMUTHAL_ORDER, LinkGeometry, ModeSet, lg_field
from oamlink.crosstalk import (
    SMALL_OFFSET_FLOOR,
    ApproximationWarning,
    Method,
    QuadratureConvergenceWarning,
    ReceiverConfig,
    channel_profile,
    crosstalk,
    crosstalk_exact_detailed,
    crosstalk_matrix,
    mode_envelope,
    shifted_aperture_field,
)
from oamlink.crosstalk import (
    _envelope_prefactor,
    _ring_powers,
    _ring_projection,
    _sample_radii_and_weights,
    _uniform_panel_weights,
)
from oamlink.numerics import WORKERS_ENV_VAR, gauss_legendre, laguerre
from test_beam import polar_closed_form

N_M = 2

# Reference-integral values frozen after confirming them to ~2e-7 relative
# against an independent dense-trapezoid implementation. All use the default
# link (1.55 um, w0 = 2.5 cm, p = 0, Z = 1000 km), a 5 cm aperture, unit gain
# and two data streams.
FROZEN_EXACT = {
    (0, 0, 0.0): 3.2093929540702243e-06,
    (4, 4, 10.0): 1.5246690915657338e-12,
    (-2, 1, 8.0): 2.6310166408579155e-08,
    (-2, -2, 2.0): 1.0791065426824879e-13,
    (1, 1, 2.0): 1.3093430542604203e-09,
}


def default_geom(waist=0.025, radial_index=0, distance=1.0e6):
    return LinkGeometry(
        wavelength=1.55e-6, waist=waist, radial_index=radial_index, distance=distance
    )


def default_rx(**overrides):
    kwargs = dict(aperture_radius=0.05, noise_level=6.35e-16, k_r=6)
    kwargs.update(overrides)
    return ReceiverConfig(**kwargs)


def brute_force_coefficient(geom, rx, n_m, ell_n, ell_j, r_ch, n_phi=768, n_rad=1200):
    """Dense-grid aperture projection, written without the package evaluators."""
    w = geom.beam_radius_at_rx
    curvature = geom.curvature_at_rx
    gouy = (2 * geom.radial_index + abs(ell_n) + 1) * math.atan2(
        geom.distance, geom.rayleigh_range
    )
    norm = math.sqrt(
        2.0
        * math.factorial(geom.radial_index)
        / (math.pi * math.factorial(geom.radial_index + abs(ell_n)))
    )
    rho = np.linspace(0.0, rx.aperture_radius, n_rad)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    pp, rr = np.meshgrid(phi, rho)
    x = rr * np.cos(pp) - r_ch
    y = rr * np.sin(pp)
    r_beam = np.hypot(x, y)
    t = 2.0 * r_beam**2 / w**2
    amp = (
        (norm / w)
        * np.sqrt(t) ** abs(ell_n)
        * eval_genlaguerre(geom.radial_index, abs(ell_n), t)
        * np.exp(-(r_beam**2) / w**2)
    )
    phase = (
        -geom.wavenumber * r_beam**2 / (2.0 * curvature)
        - ell_n * np.arctan2(y, x)
        + gouy
    )
    u = amp * np.exp(1j * phase)
    g = (u * np.exp(1j * ell_j * pp)).mean(axis=1)
    radial = np.trapezoid(np.abs(g) ** 2 * rho, rho)
    return rx.gain / n_m**2 * 2.0 * math.pi * radial


def pair(ell_n, ell_j):
    """The one-stream mode set of a single (tx, filter) pair."""
    return ModeSet((ell_n,), (ell_j,))


class TestShiftedApertureField:
    # exact2d's field sampler: the on-axis field at the displaced points.

    def test_zero_offset_matches_on_axis_field(self):
        geom = default_geom()
        r = np.linspace(0.5, 30.0, 7)
        for phi in (0.0, 1.0, 2.5, 4.0):
            shifted = shifted_aperture_field(geom, [-2], r, phi, 0.0)
            direct = lg_field(geom, [-2], r * math.cos(phi), r * math.sin(phi))
            assert np.allclose(shifted, direct, rtol=1e-12)

    def test_matches_field_at_displaced_point(self):
        geom = default_geom()
        r_ch = 5.0
        for r_p, phi_p in ((0.0, 0.0), (6.0, 1.2), (15.0, 3.9), (22.0, 5.8)):
            x = r_p * math.cos(phi_p) + r_ch
            y = r_p * math.sin(phi_p)
            expected = polar_closed_form(geom, 1, math.hypot(x, y), math.atan2(y, x))
            got = shifted_aperture_field(geom, [1], r_p, phi_p, r_ch)[0]
            assert got == pytest.approx(expected, rel=1e-12)

    def test_power_conserved_under_shift(self):
        # Translation moves the intensity pattern without changing its total.
        geom = default_geom(radial_index=1)
        r_ch = 8.0
        w = geom.beam_radius_at_rx
        nodes, weights = gauss_legendre(220, 0.0, r_ch + 10.0 * w)
        phi = 2.0 * np.pi * np.arange(256) / 256

        def ring_power(r_p):
            power = np.abs(shifted_aperture_field(geom, [2], r_p, phi, r_ch)[0]) ** 2
            return r_p * ((2.0 * np.pi / 256) * power.sum())

        total = weights @ np.array([ring_power(r_p) for r_p in nodes])
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_scalar_and_guard_behavior(self):
        geom = default_geom()
        r_ch = math.sqrt(5.0)
        out = shifted_aperture_field(geom, [0], 3.0, 0.5, r_ch)
        assert out.shape == (1,) and out.dtype == complex
        with pytest.raises(ValueError):
            shifted_aperture_field(geom, [MAX_AZIMUTHAL_ORDER + 1], 1.0, 0.0, r_ch)
        with pytest.raises(ValueError):
            shifted_aperture_field(geom, [0], -0.5, 0.0, r_ch)

    @pytest.mark.parametrize("order", [1.5, 2.0, "1", None])
    def test_refuses_a_non_integer_order(self, order):
        # Refused by name, not by a TypeError from the helix power loop.
        with pytest.raises(ValueError, match=f"order must be an integer, got {order!r}"):
            shifted_aperture_field(default_geom(), [order], 1.0, 0.0, 2.0)

    @pytest.mark.parametrize(
        "r_prime, phi_prime",
        [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf),
         (np.array([1.0, math.nan]), 0.0)],
        ids=["nan-first", "nan-second", "inf-first", "inf-second", "nan-in-array"],
    )
    def test_rejects_non_finite_coordinates(self, r_prime, phi_prime):
        # Each of these used to come back as nan+nanj.
        with pytest.raises(ValueError, match="must be finite"):
            shifted_aperture_field(default_geom(), [1], r_prime, phi_prime, math.sqrt(5.0))


class TestReferenceIntegral:
    def test_frozen_values(self):
        # The frozen values carry N_M streams; a pair set carries one.
        geom, rx = default_geom(), default_rx()
        for (ell_n, ell_j, r), expected in FROZEN_EXACT.items():
            got = crosstalk_exact_detailed(geom, rx, pair(ell_n, ell_j), r).value
            assert got.shape == (1, 1)
            assert got[0, 0] / N_M**2 == pytest.approx(expected, rel=1e-9), (ell_n, ell_j, r)

    def test_aligned_fundamental_closed_form(self):
        # At zero offset the ell = 0 diagonal is the encircled Gaussian power
        # over n_m^2.
        geom, rx = default_geom(), default_rx()
        w = geom.beam_radius_at_rx
        expected = (1.0 - math.exp(-2.0 * rx.aperture_radius**2 / w**2)) / N_M**2
        got = crosstalk(geom, rx, N_M, 0, 0, 0.0, "exact2d")
        assert got == pytest.approx(expected, rel=1e-10)

    def test_matches_in_test_brute_force(self):
        geom, rx = default_geom(), default_rx()
        brute = brute_force_coefficient(geom, rx, N_M, -2, 1, 8.0)
        r_ch = 8.0
        got = crosstalk(geom, rx, N_M, -2, 1, r_ch, "exact2d")
        assert got == pytest.approx(brute, rel=1e-4)

    def test_detailed_reports_convergence(self):
        geom, rx = default_geom(), default_rx()
        result = crosstalk_exact_detailed(geom, rx, pair(-2, 1), 8.0)
        assert result.converged
        assert result.rel_change <= 1e-3
        assert result.value[0, 0] / N_M**2 == pytest.approx(FROZEN_EXACT[(-2, 1, 8.0)], rel=1e-9)

    def test_gain_scales_linearly(self):
        geom = default_geom()
        base = crosstalk_exact_detailed(geom, default_rx(), pair(1, 1), 5.0).value[0, 0]
        boosted = crosstalk_exact_detailed(
            geom, default_rx(apd_gain=10.0), pair(1, 1), 5.0
        ).value[0, 0]
        assert boosted == pytest.approx(10.0 * base, rel=1e-12)

    def test_stream_count_normalization(self):
        # The grid is normalized by the mode set's stream count, the single
        # coefficient by its explicit n_m.
        geom, rx = default_geom(), default_rx()
        r_ch = 5.0
        one = crosstalk_exact_detailed(geom, rx, pair(1, 1), r_ch).value[0, 0]
        four = crosstalk_exact_detailed(geom, rx, ModeSet((1, -4, -2, 3), (1,)), r_ch).value
        assert one == pytest.approx(16.0 * four[0, 0], rel=1e-12)
        assert crosstalk(geom, rx, 4, 1, 1, r_ch, "exact2d") == four[0, 0]

    def test_validation(self):
        geom, rx = default_geom(), default_rx()
        r_ch = 5.0
        for n_m in (0, 2.0):
            with pytest.raises(ValueError, match="n_m must be a positive integer"):
                crosstalk(geom, rx, n_m, 1, 1, r_ch, "exact2d")
        # Mode orders are checked by the mode set.
        with pytest.raises(ValueError, match="tx mode order must be an integer, got 1.5"):
            crosstalk(geom, rx, N_M, 1.5, 1, r_ch, "exact2d")
        with pytest.raises(ValueError, match="filter mode order must be an integer, got '0'"):
            crosstalk(geom, rx, N_M, 1, "0", r_ch, "exact2d")


class TestApproximationChain:
    PAIRS = ((0, 0), (2, 0), (2, 2))
    RADII = (5.0, 12.0, 20.0)

    def exact_grid(self):
        geom, rx = default_geom(), default_rx()
        table = {}
        for r in self.RADII:
            for ell_n, ell_j in self.PAIRS:
                table[(ell_n, ell_j, r)] = crosstalk(geom, rx, N_M, ell_n, ell_j, r, "exact2d")
        return geom, rx, table

    def test_radial_sum_within_five_percent(self):
        geom, rx, table = self.exact_grid()
        for (ell_n, ell_j, r), ref in table.items():
            got = crosstalk(
                geom, rx, N_M, ell_n, ell_j, r, "radial-sum"
            )
            assert abs(got - ref) <= 0.05 * ref, (ell_n, ell_j, r, got, ref)

    def test_bessel_forms_within_one_db(self):
        geom, rx, table = self.exact_grid()
        for method in ("bessel-integral", "bessel-sum"):
            for (ell_n, ell_j, r), ref in table.items():
                got = crosstalk(geom, rx, N_M, ell_n, ell_j, r, method)
                db = abs(10.0 * math.log10(got / ref))
                assert db <= 1.0, (method, ell_n, ell_j, r, db)

    def test_sample_radii_and_weights_are_shared_read_only(self):
        rx = default_rx()
        nodes, weights = _sample_radii_and_weights(rx)
        again = _sample_radii_and_weights(default_rx())  # an equal receiver
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr *= 2.0

    @pytest.mark.parametrize("k_r", [3, 5, 7, 9])
    def test_odd_sample_counts_integrate_cubics(self, k_r):
        # An odd k_r ends Simpson's rule with a 3/8 panel; both are exact
        # for cubics, and the k = 0 node dropped from the sample radii
        # carries no weight for an integrand with a factor r.
        rx = default_rx(k_r=k_r)
        r_a = rx.aperture_radius
        nodes, weights = _sample_radii_and_weights(rx)
        for power in (1, 2, 3):
            exact = r_a ** (power + 1) / (power + 1)
            assert weights @ nodes**power == pytest.approx(exact, rel=1e-14), power
        assert _uniform_panel_weights(k_r, r_a / k_r).sum() == pytest.approx(r_a, rel=1e-14)

    def test_bessel_sum_tracks_bessel_integral(self):
        # Same integrand, k_r-point Simpson grid instead of Gauss-Legendre.
        geom, rx = default_geom(), default_rx()
        r_ch = 10.0
        fine = crosstalk(geom, rx, N_M, 2, 0, r_ch, "bessel-integral")
        coarse = crosstalk(geom, rx, N_M, 2, 0, r_ch, "bessel-sum")
        assert coarse == pytest.approx(fine, rel=5e-3)
        dense = crosstalk(geom, default_rx(k_r=64), N_M, 2, 0, r_ch, "bessel-sum")
        assert dense == pytest.approx(fine, rel=1e-6)

    def test_asymptotic_is_filter_independent(self):
        geom, rx = default_geom(), default_rx()
        r_ch = 100.0
        values = {
            ell_j: crosstalk(geom, rx, N_M, 0, ell_j, r_ch, "asymptotic")
            for ell_j in (-3, 0, 2)
        }
        assert len(set(values.values())) == 1
        with pytest.raises(ValueError, match="strictly positive offset radius"):
            crosstalk(geom, rx, N_M, 0, 0, 0.0, "asymptotic")

    def test_asymptotic_approaches_bessel_integral_far_out(self):
        geom = default_geom()
        rx = default_rx(k_r=64)
        r_ch = 100.0
        ref = crosstalk(geom, rx, N_M, 0, 0, r_ch, "bessel-integral")
        got = crosstalk(geom, rx, N_M, 0, 0, r_ch, "asymptotic")
        assert got == pytest.approx(ref, rel=0.1)

    def test_separability_of_reduced_forms(self):
        # The Bessel reductions factor into envelope(tx) * radial(filter),
        # so cross products of coefficients must match.
        geom, rx = default_geom(), default_rx()
        r_ch = 10.0
        for method in ("bessel-integral", "bessel-sum", "asymptotic"):
            c = {
                (n, j): crosstalk(geom, rx, N_M, n, j, r_ch, method)
                for n in (0, 2)
                for j in (0, 2)
            }
            lhs = c[(0, 2)] * c[(2, 0)]
            rhs = c[(0, 0)] * c[(2, 2)]
            assert lhs == pytest.approx(rhs, rel=1e-12), method


class TestStructuralInvariants:
    def test_filter_orders_sum_to_collected_power(self):
        # Summing the coefficients of one transmitted mode over filter orders
        # recovers its gain-weighted power through the aperture. Orders past
        # the mode-set guard carry below 1e-22 of it.
        geom, rx = default_geom(), default_rx()
        r_ch = 5.0
        orders = list(range(-MAX_AZIMUTHAL_ORDER, MAX_AZIMUTHAL_ORDER + 1))
        total = sum(crosstalk_exact_detailed(geom, rx, ModeSet((2,), orders), r_ch).value[:, 0])


        nodes, weights = gauss_legendre(200, 0.0, rx.aperture_radius)
        phi = 2.0 * np.pi * np.arange(256) / 256

        def ring(r):
            power = np.abs(shifted_aperture_field(geom, [2], r, phi, r_ch)[0]) ** 2
            return r * ((2.0 * np.pi / 256) * power.sum())

        collected = weights @ np.array([ring(r) for r in nodes])
        assert total == pytest.approx(rx.gain * collected, rel=1e-3)
        # The reference grid's sum over every harmonic is the same power
        # (Parseval); exact2d measures its round-off floor against it.
        _, captured = _ring_powers(geom, rx, pair(2, 2), r_ch, 512, 128)
        assert captured[0] == pytest.approx(rx.gain * collected, rel=1e-9)

    def test_spectrum_matches_single_projection(self):
        geom, rx = default_geom(), default_rx()
        r_ch = 8.0
        orders = list(range(-3, 4))
        values = crosstalk_exact_detailed(geom, rx, ModeSet((-2,), orders), r_ch).value[:, 0]
        spectrum = dict(zip(orders, values))
        direct = crosstalk_exact_detailed(geom, rx, pair(-2, 1), r_ch).value[0, 0]
        assert spectrum[1] == pytest.approx(direct, rel=1e-4)

    def test_mirror_symmetry(self):
        # Reflecting the plane flips the sign of every azimuthal order.
        geom, rx = default_geom(), default_rx()
        r_ch = 8.0
        plus = crosstalk_exact_detailed(geom, rx, pair(-2, 1), r_ch).value[0, 0]
        minus = crosstalk_exact_detailed(geom, rx, pair(2, -1), r_ch).value[0, 0]
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_radial_index_one(self):
        # p = 1 puts a ring node in the envelope; the dense-k_r radial sum
        # must still track the reference integral.
        geom = default_geom(radial_index=1)
        rx = default_rx(k_r=64)
        r_ch = 10.0
        ref = crosstalk(geom, rx, N_M, 2, 0, r_ch, "exact2d")
        got = crosstalk(geom, rx, N_M, 2, 0, r_ch, "radial-sum")
        assert got == pytest.approx(ref, rel=1e-2)


class TestClosedFormProjection:
    # The Jacobi-Anger projection behind radial-sum
    # against the FFT grid of the reference integral at 1024 angles.
    ORDERS = tuple(range(-8, 9))
    RADII = (0.0, 0.3, 3.0, 30.0, 200.0)

    def closed_and_fft(self, geom, radial_order=24):
        rx = default_rx()
        nodes, weights = gauss_legendre(radial_order, 0.0, rx.aperture_radius)
        modes = ModeSet(self.ORDERS)
        closed = _ring_projection(
            geom, rx, modes, nodes, weights, np.array(self.RADII)
        )
        for got, r in zip(closed, self.RADII):
            want, _ = _ring_powers(geom, rx, modes, r, 1024, radial_order)
            yield r, got, want

    @pytest.mark.parametrize("distance", [5.0e5, 1.0e6])
    @pytest.mark.parametrize("waist", [0.012, 0.025, 0.06])
    @pytest.mark.parametrize("radial_index", [0, 1, 2])
    def test_matches_fft_projection(self, radial_index, waist, distance):
        geom = default_geom(waist, radial_index, distance)
        off = ~np.eye(len(self.ORDERS), dtype=bool)
        for r, got, want in self.closed_and_fft(geom):
            assert np.all(np.isfinite(got)), r
            if r == 0.0:
                assert np.all(got[off] == 0.0)
            top = want.max(axis=0)
            # The grid samples exp(-i k rho^2 / 2R), whose phase reaches
            # k (r + r_a)^2 / 2R (1.6e5 rad at 200 m and 500 km); its
            # round-off, not the closed form, bounds the agreement there.
            phase = geom.wavenumber * (r + 0.05) ** 2 / (2.0 * geom.curvature_at_rx)
            floor = max(1e-12, 2.0 * 2.0**-53 * phase)
            assert np.all(np.abs(got - want) <= floor * top), (r, np.abs(got - want).max())
            large = want > 1e-12 * top
            assert np.all(np.abs(got - want)[large] <= 1e-9 * want[large]), r

    def test_underflowed_field_is_zero(self):
        # exp(-r^2/w^2) underflows at 200 m on a 4 m beam: zeros, not nan.
        geom = default_geom(0.06, 0, 5.0e5)
        assert math.exp(-(200.0 / geom.beam_radius_at_rx) ** 2) == 0.0
        r, got, want = list(self.closed_and_fft(geom))[-1]
        assert r == 200.0 and np.all(got == 0.0) and np.all(want == 0.0)


class TestReferenceGridMemory:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_field_pass_is_blocked(self, monkeypatch, workers):
        # The finest grid exact2d reaches (2048 angles x 512 rings) for four
        # tx modes: a single field pass over the whole grid holds over
        # 100 MB; blocks of rings keep the peak to a few MB per worker, each
        # of which holds one block's temporaries at a time. The count is
        # pinned, so the bound does not follow the host's CPUs.
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        geom, rx = default_geom(), default_rx()
        modes = ModeSet((-4, -2, 1, 3))
        r_ch = 14.0
        tracemalloc.start()
        try:
            _ring_powers(geom, rx, modes, r_ch, 2048, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6 * workers, peak

    @pytest.mark.parametrize("name, n_args", [("shifted_aperture_field", 5), ("lg_field", 4)])
    def test_field_pass_passes_the_block_points_positionally(self, monkeypatch, name, n_args):
        # benchmarks/spans.py counts shifted_aperture_field and lg_field
        # points as broadcast(args[2], args[3]): each block's rings and
        # angles, and then its x and y, go in those slots, whole rings at a
        # time, with no keyword arguments. One worker, so the calls come in
        # block order.
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        calls, traced = [], getattr(oamlink.crosstalk, name)

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return traced(*args, **kwargs)

        monkeypatch.setattr(oamlink.crosstalk, name, counting)
        geom, rx = default_geom(), default_rx()
        # 16,384-point blocks of 512-angle rings: 32 rings, then the last 8.
        _ring_powers(geom, rx, ModeSet((-2, 1)), 6.0, 512, 40)
        assert [len(args) for args, _ in calls] == [n_args, n_args]
        assert [kwargs for _, kwargs in calls] == [{}, {}]
        sizes = [np.broadcast(args[2], args[3]).size for args, _ in calls]
        assert sizes == [32 * 512, 8 * 512]


class TestReferenceWorkers:
    # exact2d's ring blocks run on the worker threads and the calling thread
    # adds their sums in block order, so every worker count gives the bits
    # of one worker.

    def test_uneven_blocks_give_the_one_worker_result(self, monkeypatch):
        # 512-angle rings in 16,384-point blocks: 32 rings, then the last 8.
        geom, rx = default_geom(), default_rx()
        sizes, traced = [], oamlink.crosstalk.shifted_aperture_field

        def counting(*args):
            sizes.append(np.broadcast(args[2], args[3]).size)
            return traced(*args)

        monkeypatch.setattr(oamlink.crosstalk, "shifted_aperture_field", counting)
        results = []
        for workers in ("1", "2", "3", "2", "3"):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            sizes.clear()
            got = _ring_powers(geom, rx, ModeSet((-4, -2, 1, 3)), 6.0, 512, 40)
            assert Counter(sizes) == Counter([32 * 512, 8 * 512]), workers
            results.append(tuple(a.tobytes() for a in got))
        assert results == results[:1] * len(results)

    @pytest.mark.parametrize("r_ch, rel_tol, radial_order", [
        # The off-diagonals are FFT round-off and settle by the 1e-13 rule.
        (0.0, 1e-3, 256),
        # A tolerance no pair meets walks every grid up to the finest.
        (1.5, 1e-13, 512),
    ])
    def test_worker_count_does_not_change_the_evaluation(
            self, monkeypatch, r_ch, rel_tol, radial_order):
        monkeypatch.setattr(oamlink.crosstalk, "_EXACT_REL_TOL", rel_tol)
        geom, rx = default_geom(), default_rx()
        modes = ModeSet((-4, -2, 1, 3))

        def evaluation(workers):
            monkeypatch.setenv(WORKERS_ENV_VAR, workers)
            e = crosstalk_exact_detailed(geom, rx, modes, r_ch)
            return e.value.tobytes(), e.converged, e.rel_change, e.phi_points, e.radial_order

        serial = evaluation("1")
        assert serial[4] == radial_order
        for workers in ("2", "3", "2", "3"):
            assert evaluation(workers) == serial, workers


class TestDispatchAndBatching:
    def test_dispatch_matches_direct_calls(self):
        # One coefficient is the batched kernel of its method at one radius.
        geom, rx = default_geom(), default_rx()
        r_ch = 10.0
        modes = ModeSet(tx_modes=(-2, 1))
        for method in Method:
            if method is Method.EXACT2D:
                # exact2d's one kernel takes one offset per call.
                with pytest.raises(ValueError, match="method exact2d takes minutes"):
                    channel_profile(geom, rx, modes, np.array([r_ch]), method)
                continue
            grid = channel_profile(geom, rx, modes, np.array([r_ch]), method)[0]
            got = crosstalk(geom, rx, modes.n_streams, -2, 1, r_ch, method=method.value)
            assert got == pytest.approx(grid[1, 0], rel=1e-12), method
        reference = crosstalk_exact_detailed(geom, rx, pair(-2, 1), r_ch).value[0, 0]
        assert crosstalk(geom, rx, N_M, -2, 1, r_ch, method="exact2d") == reference / N_M**2
        default = crosstalk(geom, rx, N_M, -2, 1, r_ch)
        assert default == crosstalk(geom, rx, N_M, -2, 1, r_ch, "bessel-sum")

    def test_method_parse(self):
        assert {m.value for m in Method if m.has_bessel_kernel} == {
            "radial-sum", "bessel-integral", "bessel-sum"}
        assert Method.parse(" Bessel-Sum ") is Method.BESSEL_SUM
        assert Method.parse(Method.EXACT2D) is Method.EXACT2D
        with pytest.raises(ValueError):
            Method.parse("bessel")

    def test_matrix_matches_elementwise_calls(self, monkeypatch):
        # Two and four streams: the single coefficient divides its one-stream
        # value by n_m^2 exactly.
        geom, rx = default_geom(), default_rx()
        r_ch = 6.0
        for tx_modes in ((-2, 1), (-4, -2, 1, 3)):
            modes = ModeSet(tx_modes=tx_modes, filter_modes=(-2, 0, 1))
            matrix, checks = crosstalk_matrix(geom, rx, modes, r_ch, Method.BESSEL_SUM)
            assert matrix.shape == (3, len(tx_modes)) and checks == ()
            for j, ell_j in enumerate(modes.filter_modes):
                for i, ell_n in enumerate(modes.tx_modes):
                    want = crosstalk(
                        geom, rx, modes.n_streams, ell_n, ell_j, r_ch, "bessel-sum"
                    )
                    assert matrix[j, i] == want

        # exact2d doubles one grid for the whole matrix, and each pair keeps
        # the value of the first doubling that settled it.
        modes = ModeSet(tx_modes=(-4, -2, 1, 3))
        n_m = modes.n_streams
        for r_ch in (0.0, 1.5, 8.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QuadratureConvergenceWarning)
                matrix, checks = crosstalk_matrix(geom, rx, modes, r_ch, Method.EXACT2D)
            whole = crosstalk_exact_detailed(geom, rx, modes, r_ch)
            assert np.array_equal(whole.value, matrix)
            assert (checks == ()) == whole.converged
            pairs = []
            for j, ell_j in enumerate(modes.filter_modes):
                for i, ell_n in enumerate(modes.tx_modes):
                    one = crosstalk_exact_detailed(geom, rx, pair(ell_n, ell_j), r_ch)
                    assert matrix[j, i] == one.value[0, 0] / n_m**2, (r_ch, ell_n, ell_j)
                    pairs.append(one)
            assert whole.rel_change == max(p.rel_change for p in pairs)
            assert whole.phi_points == max(p.phi_points for p in pairs)
            assert whole.radial_order == max(p.radial_order for p in pairs)
            assert whole.converged == all(p.converged for p in pairs)
            if r_ch == 0.0:
                # The off-diagonals are FFT round-off, far below the round-off
                # floor of their mode's captured power, so they settle after
                # one doubling with the diagonal instead of doubling on.
                assert whole.converged and whole.phi_points == 1024
        # At a tight tolerance the pairs settle after different doublings,
        # so a matrix that kept doubling settled pairs would differ from
        # the one-pair calls.
        monkeypatch.setattr(oamlink.crosstalk, "_EXACT_REL_TOL", 1e-13)
        r_ch = 1.5
        whole = crosstalk_exact_detailed(geom, rx, modes, r_ch)
        pairs = [
            crosstalk_exact_detailed(geom, rx, pair(ell_n, ell_j), r_ch)
            for ell_j in modes.filter_modes
            for ell_n in modes.tx_modes
        ]
        assert whole.value.ravel().tolist() == [p.value[0, 0] / n_m**2 for p in pairs]
        assert min(p.phi_points for p in pairs) < whole.phi_points

    def test_matrix_normalizes_by_stream_count(self):
        # Grouping four modes into two streams keeps the per-channel scale of
        # the two-stream set instead of dividing by sixteen.
        geom, rx = default_geom(), default_rx()
        r_ch = 6.0
        grouped = ModeSet(
            tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3))
        )
        flat = ModeSet(tx_modes=(-4, -2, 1, 3))
        g, _ = crosstalk_matrix(geom, rx, grouped, r_ch, Method.BESSEL_SUM)
        f, _ = crosstalk_matrix(geom, rx, flat, r_ch, Method.BESSEL_SUM)
        assert np.allclose(g, 4.0 * f, rtol=1e-12)

    @pytest.mark.parametrize(
        "method", ["radial-sum", "bessel-integral", "bessel-sum"]
    )
    def test_profile_matches_per_point_evaluation(self, method):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        radii = np.array([2.0, 8.0, 15.0])
        profile = channel_profile(geom, rx, modes, radii, method)
        assert profile.shape == (3, 2, 2)
        for idx, r in enumerate(radii):
            expected, _ = crosstalk_matrix(geom, rx, modes, r, method)
            assert np.allclose(profile[idx], expected, rtol=1e-12), (method, r)

    @pytest.mark.parametrize("tx_modes", [(-2, 1), (0, 2, 4)])
    def test_radial_sum_zero_offset_off_diagonals_are_zero(self, tx_modes):
        # A centred mode holds only its own azimuthal harmonic: at r = 0 the
        # off-diagonal coefficients vanish exactly, not at FFT round-off,
        # while an offset radius in the same batch keeps its leakage.
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=tx_modes)
        profile = channel_profile(geom, rx, modes, np.array([0.0, 2.0]), "radial-sum")
        off = ~np.eye(len(tx_modes), dtype=bool)
        assert np.all(profile[0][off] == 0.0)
        assert np.all(np.diag(profile[0]) > 0.0)
        assert np.all(profile[1][off] > 0.0)

    def test_profile_asymptotic_positive_radii_only(self):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        with pytest.raises(ValueError):
            channel_profile(geom, rx, modes, np.array([0.0, 5.0]), "asymptotic")
        with pytest.raises(ValueError):
            channel_profile(geom, rx, modes, np.ones((2, 2)), "bessel-sum")


class TestEnvelopePass:
    @pytest.mark.parametrize("radial_index", [0, 1, 2])
    def test_each_row_is_its_single_order_value(self, radial_index):
        # One order's row is the one-order expression, Laguerre factor
        # included (at p = 0 it is 1.0, so leaving it out moves no bit), and
        # stays that value inside any order sequence.
        geom, rx = default_geom(radial_index=radial_index), default_rx()
        w = geom.beam_radius_at_rx
        r = np.linspace(0.0, 150.0, 97)
        t = 2.0 * r**2 / w**2
        for ell in range(-6, 7):
            n = abs(ell)
            amp = (2.0 * math.pi * np.sqrt(t) ** n * laguerre(radial_index, n, t)
                   * np.exp(-(r**2) / w**2))
            alone = mode_envelope(geom, rx, N_M, [ell], r)
            assert alone.shape == (1, r.size)
            assert np.array_equal(alone[0], _envelope_prefactor(geom, rx, N_M, ell) * amp**2), ell
        rng = np.random.default_rng(3)
        for _ in range(25):
            orders = [int(m) for m in rng.integers(-6, 7, size=rng.integers(1, 6))]
            rows = mode_envelope(geom, rx, N_M, orders, r)
            for ell, row in zip(orders, rows):
                assert np.array_equal(row, mode_envelope(geom, rx, N_M, [ell], r)[0]), orders
        assert mode_envelope(geom, rx, N_M, [-2, 1], 5.0).shape == (2,)

    @pytest.mark.parametrize("radial_index, laguerre_calls", [(0, 0), (1, 3)])
    def test_bessel_sum_profile_makes_one_kernel_and_one_envelope_call(
            self, monkeypatch, radial_index, laguerre_calls):
        calls = {"bessel_j": 0, "mode_envelope": 0, "laguerre": 0}

        def counted(name):
            original = getattr(oamlink.crosstalk, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oamlink.crosstalk, name, counted(name))
        # |ell_n| in {4, 2, 3}: three distinct envelope orders.
        modes = ModeSet((-4, -2, 2, 3), (-2, 1, 3), stream_grouping=((-4, -2), (2, 3)))
        channel_profile(default_geom(radial_index=radial_index), default_rx(), modes,
                        np.linspace(1.0, 60.0, 33), "bessel-sum")
        assert calls == {"bessel_j": 1, "mode_envelope": 1, "laguerre": laguerre_calls}


class TestWarningsAndGuards:
    def test_small_offset_warns(self):
        geom, rx = default_geom(), default_rx()
        near = 0.5 * SMALL_OFFSET_FLOOR
        modes = ModeSet(tx_modes=(-2, 1))
        for method in ("bessel-integral", "bessel-sum"):
            with pytest.warns(ApproximationWarning):
                crosstalk(geom, rx, N_M, 0, 0, near, method)
            with pytest.warns(ApproximationWarning) as caught:
                _, checks = crosstalk_matrix(geom, rx, modes, near, method)
            (check,) = checks
            assert check.category is ApproximationWarning
            assert check.size == SMALL_OFFSET_FLOOR - near
            assert [str(w.message) for w in caught] == [check.text]

    def test_no_warning_above_floor(self):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        r_ch = 2.0 * SMALL_OFFSET_FLOOR
        near = 0.5 * SMALL_OFFSET_FLOOR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("bessel-integral", "bessel-sum", "asymptotic"):
                crosstalk(geom, rx, N_M, 0, 0, r_ch, method)
                assert crosstalk_matrix(geom, rx, modes, r_ch, method)[1] == ()
            # radial-sum keeps the angle exact and carries no validity floor.
            crosstalk(geom, rx, N_M, 0, 0, near, "radial-sum")
            assert crosstalk_matrix(geom, rx, modes, near, "radial-sum")[1] == ()
        # The asymptotic form is the large-offset limit of the Bessel
        # reduction and shares its floor.
        with pytest.warns(ApproximationWarning):
            crosstalk(geom, rx, N_M, 0, 0, near, "asymptotic")
        with pytest.warns(ApproximationWarning):
            _, checks = crosstalk_matrix(geom, rx, modes, near, "asymptotic")
        assert [check.category for check in checks] == [ApproximationWarning]

    def test_unsettled_reference_integral_warns(self, monkeypatch):
        # At a zero tolerance no grid doubling settles a pair.
        monkeypatch.setattr(oamlink.crosstalk, "_EXACT_REL_TOL", 0.0)
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        with pytest.warns(QuadratureConvergenceWarning, match="crosstalk integral did not settle"):
            _, checks = crosstalk_matrix(geom, rx, modes, 8.0, "exact2d")
        (check,) = checks
        assert check.category is QuadratureConvergenceWarning
        assert check.size == crosstalk_exact_detailed(geom, rx, modes, 8.0).rel_change

    # Each evaluator at offset radius r: the four batched methods with r
    # beside a valid radius, then the single-offset forms.
    OFFSET_EVALUATORS = {
        **{f"channel_profile-{method}": lambda geom, rx, modes, r, method=method:
           channel_profile(geom, rx, modes, np.array([2.0, r]), method)
           for method in ("radial-sum", "bessel-sum", "bessel-integral", "asymptotic")},
        "crosstalk": lambda geom, rx, modes, r: crosstalk(geom, rx, N_M, -2, 1, r),
        "crosstalk_matrix": lambda geom, rx, modes, r: crosstalk_matrix(
            geom, rx, modes, r, "exact2d"),
        "crosstalk_exact_detailed": lambda geom, rx, modes, r: crosstalk_exact_detailed(
            geom, rx, modes, r),
        "shifted_aperture_field": lambda geom, rx, modes, r: shifted_aperture_field(
            geom, [1], 1.0, 0.0, r),
    }

    @pytest.mark.parametrize("radius", [-5.0, math.nan, math.inf])
    @pytest.mark.parametrize("evaluator", OFFSET_EVALUATORS)
    def test_evaluators_refuse_negative_and_non_finite_offsets(self, evaluator, radius):
        # channel_profile used to return a value at -5 m: radial-sum's
        # differed from the +5 m one, the Bessel forms repeated it.
        modes = ModeSet((-2, 1), (-2, 1))
        with pytest.raises(ValueError, match="offset radius r_ch must be finite and >= 0"):
            self.OFFSET_EVALUATORS[evaluator](default_geom(), default_rx(), modes, radius)

    @pytest.mark.parametrize("method", ["radial-sum", "bessel-sum", "bessel-integral"])
    def test_batched_methods_refuse_radii_past_the_bessel_guards(self, method):
        # 1e5 m takes |beta| = 2|c| r_a r to about 2e4 on the default link.
        modes = ModeSet((-2, 1), (-2, 1))
        with pytest.raises(ValueError, match=r"Bessel argument exceeds guard \|x\| <= 1000"):
            channel_profile(default_geom(), default_rx(), modes, np.array([2.0, 1e5]), method)

    def test_receiver_config_validation(self):
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.0)
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.05, responsivity=0.0)
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.05, apd_gain=0.5)
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.05, noise_level=0.0)
        for field in ("responsivity", "apd_gain", "noise_level"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=field):
                    ReceiverConfig(aperture_radius=0.05, **{field: bad})
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.05, k_r=1)
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.05, k_r=65)
        with pytest.raises(ValueError):
            ReceiverConfig(aperture_radius=0.05, k_r=6.0)

    def test_gain_property(self):
        rx = ReceiverConfig(aperture_radius=0.05, responsivity=0.8, apd_gain=5.0)
        assert rx.gain == pytest.approx(4.0, rel=1e-15)
