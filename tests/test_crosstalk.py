"""Crosstalk coefficient evaluators.

The reference integral is pinned against constants frozen from a standalone
brute-force computation (dense trapezoid grids, scipy Laguerre, no package
code) and, for one case, against a compact in-test version of that oracle.
The approximation chain is then checked against the reference within its
documented accuracy budget, plus structural invariants: filter-order
completeness, mirror symmetry, rotation invariance and separability.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from oamlink.beam import LinkGeometry, ModeSet, PointingState
from oamlink.crosstalk import (
    SMALL_OFFSET_FLOOR,
    SPECTRUM_MAX_ORDER,
    ApproximationWarning,
    CrosstalkMatrix,
    Method,
    ReceiverConfig,
    channel_profile,
    crosstalk,
    crosstalk_exact,
    crosstalk_exact_detailed,
    crosstalk_matrix,
    filter_spectrum,
)
from oamlink.numerics import gauss_legendre, periodic_trapezoid

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


class TestReferenceIntegral:
    def test_frozen_values(self):
        geom, rx = default_geom(), default_rx()
        for (ell_n, ell_j, r), expected in FROZEN_EXACT.items():
            got = crosstalk_exact(geom, rx, N_M, ell_n, ell_j, PointingState(r, 0.0))
            assert got == pytest.approx(expected, rel=1e-9), (ell_n, ell_j, r)

    def test_aligned_fundamental_closed_form(self):
        # At zero offset the ell = 0 diagonal is the encircled Gaussian power
        # over n_m^2.
        geom, rx = default_geom(), default_rx()
        w = geom.beam_radius_at_rx
        expected = (1.0 - math.exp(-2.0 * rx.aperture_radius**2 / w**2)) / N_M**2
        got = crosstalk_exact(geom, rx, N_M, 0, 0, PointingState(0.0, 0.0))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_matches_in_test_brute_force(self):
        geom, rx = default_geom(), default_rx()
        brute = brute_force_coefficient(geom, rx, N_M, -2, 1, 8.0)
        got = crosstalk_exact(geom, rx, N_M, -2, 1, PointingState(8.0, 0.0))
        assert got == pytest.approx(brute, rel=1e-4)

    def test_detailed_reports_convergence(self):
        geom, rx = default_geom(), default_rx()
        result = crosstalk_exact_detailed(
            geom, rx, N_M, -2, 1, PointingState(8.0, 0.0)
        )
        assert result.converged
        assert result.rel_change <= 1e-3
        assert result.value == pytest.approx(FROZEN_EXACT[(-2, 1, 8.0)], rel=1e-9)

    def test_gain_scales_linearly(self):
        geom = default_geom()
        base = crosstalk_exact(
            geom, default_rx(), N_M, 1, 1, PointingState(5.0, 0.0)
        )
        boosted = crosstalk_exact(
            geom, default_rx(apd_gain=10.0), N_M, 1, 1, PointingState(5.0, 0.0)
        )
        assert boosted == pytest.approx(10.0 * base, rel=1e-12)

    def test_stream_count_normalization(self):
        geom, rx = default_geom(), default_rx()
        point = PointingState(5.0, 0.0)
        one = crosstalk_exact(geom, rx, 1, 1, 1, point)
        four = crosstalk_exact(geom, rx, 4, 1, 1, point)
        assert one == pytest.approx(16.0 * four, rel=1e-12)

    def test_validation(self):
        geom, rx = default_geom(), default_rx()
        point = PointingState(5.0, 0.0)
        with pytest.raises(ValueError):
            crosstalk_exact(geom, rx, 0, 1, 1, point)
        with pytest.raises(ValueError):
            crosstalk_exact(geom, rx, N_M, 1.5, 1, point)
        with pytest.raises(ValueError):
            crosstalk_exact(geom, rx, N_M, 1, "0", point)


class TestApproximationChain:
    PAIRS = ((0, 0), (2, 0), (2, 2))
    RADII = (5.0, 12.0, 20.0)

    def exact_grid(self):
        geom, rx = default_geom(), default_rx()
        table = {}
        for r in self.RADII:
            point = PointingState(r, 0.0)
            for ell_n, ell_j in self.PAIRS:
                table[(ell_n, ell_j, r)] = crosstalk_exact(
                    geom, rx, N_M, ell_n, ell_j, point
                )
        return geom, rx, table

    def test_radial_sum_within_five_percent(self):
        geom, rx, table = self.exact_grid()
        for (ell_n, ell_j, r), ref in table.items():
            got = crosstalk(
                geom, rx, N_M, ell_n, ell_j, PointingState(r, 0.0), "radial-sum"
            )
            assert abs(got - ref) <= 0.05 * ref, (ell_n, ell_j, r, got, ref)

    def test_bessel_forms_within_one_db(self):
        geom, rx, table = self.exact_grid()
        for method in ("bessel-integral", "bessel-sum"):
            for (ell_n, ell_j, r), ref in table.items():
                got = crosstalk(geom, rx, N_M, ell_n, ell_j, PointingState(r, 0.0), method)
                db = abs(10.0 * math.log10(got / ref))
                assert db <= 1.0, (method, ell_n, ell_j, r, db)

    def test_bessel_sum_tracks_bessel_integral(self):
        # Same integrand, k_r-point Simpson grid instead of Gauss-Legendre.
        geom, rx = default_geom(), default_rx()
        point = PointingState(10.0, 0.0)
        fine = crosstalk(geom, rx, N_M, 2, 0, point, "bessel-integral")
        coarse = crosstalk(geom, rx, N_M, 2, 0, point, "bessel-sum")
        assert coarse == pytest.approx(fine, rel=5e-3)
        dense = crosstalk(geom, default_rx(k_r=64), N_M, 2, 0, point, "bessel-sum")
        assert dense == pytest.approx(fine, rel=1e-6)

    def test_asymptotic_is_filter_independent(self):
        geom, rx = default_geom(), default_rx()
        point = PointingState(100.0, 0.0)
        values = {
            ell_j: crosstalk(geom, rx, N_M, 0, ell_j, point, "asymptotic")
            for ell_j in (-3, 0, 2)
        }
        assert len(set(values.values())) == 1
        with pytest.raises(ValueError, match="strictly positive offset radius"):
            crosstalk(geom, rx, N_M, 0, 0, PointingState(0.0, 0.0), "asymptotic")

    def test_asymptotic_approaches_bessel_integral_far_out(self):
        geom = default_geom()
        rx = default_rx(k_r=64)
        point = PointingState(100.0, 0.0)
        ref = crosstalk(geom, rx, N_M, 0, 0, point, "bessel-integral")
        got = crosstalk(geom, rx, N_M, 0, 0, point, "asymptotic")
        assert got == pytest.approx(ref, rel=0.1)

    def test_separability_of_reduced_forms(self):
        # The Bessel reductions factor into envelope(tx) * radial(filter),
        # so cross products of coefficients must match.
        geom, rx = default_geom(), default_rx()
        point = PointingState(10.0, 0.0)
        for method in ("bessel-integral", "bessel-sum", "asymptotic"):
            c = {
                (n, j): crosstalk(geom, rx, N_M, n, j, point, method)
                for n in (0, 2)
                for j in (0, 2)
            }
            lhs = c[(0, 2)] * c[(2, 0)]
            rhs = c[(0, 0)] * c[(2, 2)]
            assert lhs == pytest.approx(rhs, rel=1e-12), method


class TestStructuralInvariants:
    def test_filter_orders_sum_to_collected_power(self):
        # Summing the coefficients of one transmitted mode over filter orders
        # recovers its gain-weighted power through the aperture.
        geom, rx = default_geom(), default_rx()
        pointing = PointingState(5.0, 0.0)
        spectrum = filter_spectrum(geom, rx, N_M, 2, pointing)
        total = sum(value for _, value in spectrum)

        from oamlink.beam import shifted_aperture_field

        rule = gauss_legendre(200, 0.0, rx.aperture_radius)

        def ring(r):
            f = lambda phi: np.abs(
                shifted_aperture_field(geom, 2, r, phi, pointing)
            ) ** 2
            return r * periodic_trapezoid(f, 256).real

        collected = rule.integrate(np.array([ring(r) for r in rule.nodes]))
        assert total == pytest.approx(rx.gain * collected / N_M**2, rel=1e-3)

    def test_spectrum_matches_single_projection(self):
        geom, rx = default_geom(), default_rx()
        pointing = PointingState(8.0, 0.0)
        spectrum = dict(filter_spectrum(geom, rx, N_M, -2, pointing, (-3, 3)))
        direct = crosstalk_exact(geom, rx, N_M, -2, 1, pointing)
        assert spectrum[1] == pytest.approx(direct, rel=1e-4)

    def test_spectrum_range_guards(self):
        geom, rx = default_geom(), default_rx()
        pointing = PointingState(8.0, 0.0)
        with pytest.raises(ValueError):
            filter_spectrum(geom, rx, N_M, 0, pointing, (3, -3))
        with pytest.raises(ValueError):
            filter_spectrum(geom, rx, N_M, 0, pointing, (0, SPECTRUM_MAX_ORDER + 1))

    def test_mirror_symmetry(self):
        # Reflecting the plane flips the sign of every azimuthal order.
        geom, rx = default_geom(), default_rx()
        point = PointingState(8.0, 0.0)
        plus = crosstalk_exact(geom, rx, N_M, -2, 1, point)
        minus = crosstalk_exact(geom, rx, N_M, 2, -1, point)
        assert plus == pytest.approx(minus, rel=1e-12)

    def test_rotation_invariance(self):
        # The reference integral sees the full pointing vector; rotating it
        # about the beam axis must not change the coefficient.
        geom, rx = default_geom(), default_rx()
        aligned = crosstalk_exact(
            geom, rx, N_M, -2, 1, PointingState.from_radius(8.0, 0.0)
        )
        rotated = crosstalk_exact(
            geom, rx, N_M, -2, 1, PointingState.from_radius(8.0, 2.1)
        )
        assert rotated == pytest.approx(aligned, rel=1e-10)

    def test_radial_index_one(self):
        # p = 1 puts a ring node in the envelope; the dense-k_r radial sum
        # must still track the reference integral.
        geom = default_geom(radial_index=1)
        rx = default_rx(k_r=64)
        point = PointingState(10.0, 0.0)
        ref = crosstalk_exact(geom, rx, N_M, 2, 0, point)
        got = crosstalk(geom, rx, N_M, 2, 0, point, "radial-sum")
        assert got == pytest.approx(ref, rel=1e-2)


class TestDispatchAndBatching:
    def test_dispatch_matches_direct_calls(self):
        # One coefficient is the batched kernel of its method at one radius.
        geom, rx = default_geom(), default_rx()
        point = PointingState(10.0, 0.0)
        modes = ModeSet(tx_modes=(-2, 1))
        for method in Method:
            grid = channel_profile(geom, rx, modes, np.array([point.r_ch]), method)[0]
            got = crosstalk(geom, rx, modes.n_streams, -2, 1, point, method=method.value)
            assert got == pytest.approx(grid[1, 0], rel=1e-12), method
        assert crosstalk(geom, rx, N_M, -2, 1, point, method="exact2d") == crosstalk_exact(
            geom, rx, N_M, -2, 1, point
        )
        default = crosstalk(geom, rx, N_M, -2, 1, point)
        assert default == crosstalk(geom, rx, N_M, -2, 1, point, "bessel-sum")

    def test_method_parse(self):
        assert Method.parse(" Bessel-Sum ") is Method.BESSEL_SUM
        assert Method.parse(Method.EXACT2D) is Method.EXACT2D
        with pytest.raises(ValueError):
            Method.parse("bessel")

    def test_matrix_matches_elementwise_calls(self):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1), filter_modes=(-2, 0, 1))
        point = PointingState(6.0, 0.0)
        matrix = crosstalk_matrix(geom, rx, modes, point, Method.BESSEL_SUM)
        assert matrix.values.shape == (3, 2)
        for j, ell_j in enumerate(modes.filter_modes):
            for i, ell_n in enumerate(modes.tx_modes):
                want = crosstalk(
                    geom, rx, modes.n_streams, ell_n, ell_j, point, "bessel-sum"
                )
                assert matrix.values[j, i] == want
        assert np.allclose(matrix.amplitude_matrix**2, matrix.values)

    def test_matrix_normalizes_by_stream_count(self):
        # Grouping four modes into two streams keeps the per-channel scale of
        # the two-stream set instead of dividing by sixteen.
        geom, rx = default_geom(), default_rx()
        point = PointingState(6.0, 0.0)
        grouped = ModeSet(
            tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3))
        )
        flat = ModeSet(tx_modes=(-4, -2, 1, 3))
        g = crosstalk_matrix(geom, rx, grouped, point, Method.BESSEL_SUM)
        f = crosstalk_matrix(geom, rx, flat, point, Method.BESSEL_SUM)
        assert np.allclose(g.values, 4.0 * f.values, rtol=1e-12)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            CrosstalkMatrix(
                values=np.ones((2, 3)),
                tx_modes=(-2, 1),
                filter_modes=(-2, 1),
                method=Method.BESSEL_SUM,
                pointing=PointingState(1.0, 0.0),
            )
        with pytest.raises(ValueError):
            CrosstalkMatrix(
                values=np.array([[1.0, -0.5], [0.2, 1.0]]),
                tx_modes=(-2, 1),
                filter_modes=(-2, 1),
                method=Method.BESSEL_SUM,
                pointing=PointingState(1.0, 0.0),
            )

    @pytest.mark.parametrize(
        "method", ["exact2d", "radial-sum", "bessel-integral", "bessel-sum"]
    )
    def test_profile_matches_per_point_evaluation(self, method):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        radii = np.array([2.0, 8.0, 15.0])
        profile = channel_profile(geom, rx, modes, radii, method)
        assert profile.shape == (3, 2, 2)
        for idx, r in enumerate(radii):
            expected = crosstalk_matrix(
                geom, rx, modes, PointingState(r, 0.0), method
            ).values
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


class TestWarningsAndGuards:
    def test_small_offset_warns(self):
        geom, rx = default_geom(), default_rx()
        near = PointingState(0.5 * SMALL_OFFSET_FLOOR, 0.0)
        modes = ModeSet(tx_modes=(-2, 1))
        for method in ("bessel-integral", "bessel-sum"):
            with pytest.warns(ApproximationWarning):
                crosstalk(geom, rx, N_M, 0, 0, near, method)
            with pytest.warns(ApproximationWarning):
                crosstalk_matrix(geom, rx, modes, near, method)

    def test_no_warning_above_floor(self):
        geom, rx = default_geom(), default_rx()
        point = PointingState(2.0 * SMALL_OFFSET_FLOOR, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crosstalk(geom, rx, N_M, 0, 0, point, "bessel-integral")
            crosstalk(geom, rx, N_M, 0, 0, point, "bessel-sum")
            # The other reduced forms carry no validity floor.
            near = PointingState(0.5 * SMALL_OFFSET_FLOOR, 0.0)
            crosstalk(geom, rx, N_M, 0, 0, near, "radial-sum")
            crosstalk(geom, rx, N_M, 0, 0, near, "asymptotic")

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
