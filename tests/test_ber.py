"""Conditional and pointing-averaged bit error rate.

The four-Q conditional expression is recomputed in-test from its definition
using scipy's erfc, and the Rayleigh average is checked against dense
trapezoid integration of that independent conditional. One case places a
stream-degeneracy ridge inside the averaging domain to confirm the
piecewise quadrature actually resolves it.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.ber import (
    BerResult,
    ChannelVectors,
    PointingStats,
    _degeneracy_windows,
    average_ber,
    conditional_ber,
)
from oamlink.crosstalk import (
    Method,
    ReceiverConfig,
    channel_profile,
    mode_envelope,
)
from oamlink.numerics import gauss_legendre


def default_geom(waist=0.025, radial_index=0, distance=1.0e6):
    return LinkGeometry(
        wavelength=1.55e-6, waist=waist, radial_index=radial_index, distance=distance
    )


def default_rx(**overrides):
    kwargs = dict(aperture_radius=0.05, noise_level=6.35e-16, k_r=6)
    kwargs.update(overrides)
    return ReceiverConfig(**kwargs)


def q_ref(x):
    return 0.5 * erfc(np.asarray(x) / math.sqrt(2.0))


def four_term_ref(h1, h2, n0):
    """The conditional expression written out independently."""
    scale = 1.0 / (2.0 * math.sqrt(n0))
    n1 = np.linalg.norm(h1, axis=-1)
    n2 = np.linalg.norm(h2, axis=-1)
    ns = np.linalg.norm(np.asarray(h1) + h2, axis=-1)
    nd = np.linalg.norm(np.asarray(h1) - h2, axis=-1)
    return (
        q_ref(n1 * scale)
        + q_ref(n2 * scale)
        + 0.5 * q_ref(ns * scale)
        + 0.5 * q_ref(nd * scale)
    )


def conditional_profile(geom, rx, radii, method):
    """Independent conditional BER batch for the plain two-mode set."""
    modes = ModeSet(tx_modes=(-2, 1))
    amp = np.sqrt(channel_profile(geom, rx, modes, radii, method))
    return four_term_ref(amp[:, :, 0], amp[:, :, 1], rx.noise_level)


class TestPointingStats:
    def test_rayleigh_scale(self):
        stats = PointingStats(sigma_theta=3.0e-5, distance=1.0e6)
        assert stats.rayleigh_scale == pytest.approx(30.0, rel=1e-15)

    def test_pdf_is_normalized_density(self):
        stats = PointingStats(sigma_theta=3.0e-5, distance=1.0e6)
        rule = gauss_legendre(256, 0.0, 8.0 * stats.rayleigh_scale)
        mass = rule.integrate(stats.pdf(rule.nodes))
        assert mass == pytest.approx(1.0, rel=1e-12)
        mean = rule.integrate(stats.pdf(rule.nodes) * rule.nodes)
        assert mean == pytest.approx(
            stats.rayleigh_scale * math.sqrt(math.pi / 2.0), rel=1e-10
        )

    def test_pdf_mode_at_scale(self):
        stats = PointingStats(sigma_theta=2.0e-5, distance=1.0e6)
        s = stats.rayleigh_scale
        assert stats.pdf(s) == pytest.approx(math.exp(-0.5) / s, rel=1e-14)
        assert stats.pdf(s) > stats.pdf(0.7 * s)
        assert stats.pdf(s) > stats.pdf(1.3 * s)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointingStats(sigma_theta=0.0, distance=1e6)
        with pytest.raises(ValueError):
            PointingStats(sigma_theta=1e-5, distance=-1.0)


class TestStreamVectors:
    def test_plain_two_mode_vectors_are_amplitude_columns(self):
        # One mode per stream: the mixing matrix is the identity, so each
        # stream vector is its mode's amplitude column.
        modes = ModeSet(tx_modes=(-2, 1))
        assert np.array_equal(modes.stream_matrix, np.eye(2))
        amp = np.sqrt(np.array([[4.0, 1.0], [9.0, 16.0]]))
        h = amp @ modes.stream_matrix
        assert np.array_equal(h[:, 0], [2.0, 3.0])
        assert np.array_equal(h[:, 1], [1.0, 4.0])

    def test_grouped_vectors_default_split(self):
        # Two modes per stream share its power equally: weight 1/sqrt(2).
        modes = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        amp = np.sqrt(np.arange(1.0, 17.0).reshape(4, 4))
        h = amp @ modes.stream_matrix
        inv = 1.0 / math.sqrt(2.0)
        assert np.allclose(h[:, 0], inv * (amp[:, 0] + amp[:, 1]), rtol=1e-15)
        assert np.allclose(h[:, 1], inv * (amp[:, 2] + amp[:, 3]), rtol=1e-15)

    def test_stream_weights(self):
        # Entries follow tx order, whatever order the grouping lists modes
        # in, and every stream column carries unit power.
        modes = ModeSet(tx_modes=(1, -4, 3, -2), stream_grouping=((-4, -2, 3), (1,)))
        w = 1.0 / math.sqrt(3.0)
        expected = np.array([[0.0, 1.0], [w, 0.0], [w, 0.0], [w, 0.0]])
        assert np.array_equal(modes.stream_matrix, expected)
        assert np.allclose((modes.stream_matrix**2).sum(axis=0), 1.0, rtol=1e-15)
        with pytest.raises(ValueError):
            modes.stream_matrix[0, 0] = 2.0

    def test_channel_vector_validation(self):
        with pytest.raises(ValueError):
            ChannelVectors(h1=np.ones(2), h2=np.ones(3))
        with pytest.raises(ValueError):
            ChannelVectors(h1=np.ones((2, 2)), h2=np.ones((2, 2)))
        with pytest.raises(ValueError):
            ChannelVectors(h1=np.array([1.0, -0.1]), h2=np.ones(2))


class TestConditionalBer:
    def test_no_signal_limit(self):
        h = ChannelVectors(h1=np.zeros(2), h2=np.zeros(2))
        assert conditional_ber(h, 1e-12) == pytest.approx(1.5, rel=1e-14)

    def test_clean_channel_limit(self):
        h = ChannelVectors(h1=np.array([1.0, 0.0]), h2=np.array([0.0, 1.0]))
        assert conditional_ber(h, 1e-6) < 1e-100

    def test_identical_streams_floor(self):
        h = ChannelVectors(h1=np.array([1.0, 2.0]), h2=np.array([1.0, 2.0]))
        assert conditional_ber(h, 1e-8) == pytest.approx(0.25, rel=1e-12)

    def test_matches_independent_definition(self):
        h = ChannelVectors(
            h1=np.array([3.0e-8, 1.0e-8, 2.0e-9]),
            h2=np.array([1.0e-8, 2.5e-8, 4.0e-9]),
        )
        n0 = 6.35e-16
        assert conditional_ber(h, n0) == pytest.approx(
            float(four_term_ref(h.h1, h.h2, n0)), rel=1e-14
        )

    def test_scale_invariance(self):
        h = ChannelVectors(h1=np.array([2.0e-8, 1.0e-8]), h2=np.array([1.5e-8, 0.5e-8]))
        base = conditional_ber(h, 1e-16)
        scaled = ChannelVectors(h1=10.0 * h.h1, h2=10.0 * h.h2)
        assert conditional_ber(scaled, 1e-14) == pytest.approx(base, rel=1e-12)

    def test_monotone_in_noise(self):
        h = ChannelVectors(h1=np.array([2.0e-8, 1.0e-8]), h2=np.array([1.5e-8, 0.5e-8]))
        levels = [1e-17, 1e-16, 1e-15]
        values = [conditional_ber(h, n0) for n0 in levels]
        assert values[0] < values[1] < values[2]

    def test_validation(self):
        h = ChannelVectors(h1=np.ones(2), h2=np.ones(2))
        with pytest.raises(ValueError):
            conditional_ber(h, 0.0)
        with pytest.raises(ValueError):
            conditional_ber(h, -1e-16)


class TestAverageBer:
    def test_matches_dense_average(self):
        # Dense trapezoid of the independent conditional, refined around the
        # stream-amplitude crossing at the received beam radius, must agree
        # with the quadrature average.
        geom, rx = default_geom(), default_rx()
        stats = PointingStats(sigma_theta=3.0e-5, distance=geom.distance)
        modes = ModeSet(tx_modes=(-2, 1))
        result = average_ber(geom, rx, modes, stats, Method.RADIAL_SUM, quad_order=96)
        assert result.quad_converged

        w_rx = geom.beam_radius_at_rx
        coarse = np.linspace(0.0, 8.0 * stats.rayleigh_scale, 3001)[1:]
        fine = np.linspace(w_rx - 1.0, w_rx + 1.0, 20001)
        radii = np.unique(np.concatenate([coarse, fine]))
        cond = conditional_profile(geom, rx, radii, Method.RADIAL_SUM)
        dense = np.trapezoid(stats.pdf(radii) * cond, radii)
        assert result.averaged == pytest.approx(dense, rel=1e-3)

    def test_small_jitter_average_includes_near_degenerate_spike(self):
        # At small jitter the crossing sits far out in the Rayleigh tail yet
        # its spike still carries a few percent of the whole average, so the
        # quadrature must not step over it.
        geom, rx = default_geom(), default_rx()
        stats = PointingStats(sigma_theta=1.0e-5, distance=geom.distance)
        modes = ModeSet(tx_modes=(-2, 1))
        result = average_ber(geom, rx, modes, stats, Method.RADIAL_SUM, quad_order=192)
        assert result.quad_converged

        w_rx = geom.beam_radius_at_rx
        upper = 8.0 * stats.rayleigh_scale
        segments = (
            (np.linspace(0.0, w_rx - 1.0, 8001)[1:]),
            (np.linspace(w_rx - 1.0, w_rx + 1.0, 20001)),
            (np.linspace(w_rx + 1.0, upper, 2001)),
        )
        parts = []
        for radii in segments:
            cond = conditional_profile(geom, rx, radii, Method.RADIAL_SUM)
            parts.append(np.trapezoid(stats.pdf(radii) * cond, radii))
        dense = sum(parts)
        assert result.averaged == pytest.approx(dense, rel=1e-3)
        assert parts[1] > 0.03 * dense

    def test_degeneracy_ridge_is_resolved(self):
        # At this waist the two stream envelopes cross inside the averaging
        # domain, where the separable forms make h1 = h2 exactly.
        geom, rx = default_geom(waist=0.015), default_rx()
        stats = PointingStats(sigma_theta=3.0e-5, distance=geom.distance)

        # Locate the crossing from the public envelope factor; for orders
        # |l| = 2 and 1 it must sit at the received beam radius.
        def gap(r):
            e2 = mode_envelope(geom, rx, 2, -2, np.array([r]))
            e1 = mode_envelope(geom, rx, 2, 1, np.array([r]))
            return float(np.sqrt(e2[0]) - np.sqrt(e1[0]))

        lo, hi = 20.0, 40.0
        f_lo = gap(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = gap(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        r_star = 0.5 * (lo + hi)
        assert r_star == pytest.approx(geom.beam_radius_at_rx, rel=1e-9)

        # The ridge sits on the 0.25 floor and decays within a meter.
        on = conditional_profile(geom, rx, np.array([r_star]), Method.BESSEL_SUM)[0]
        off = conditional_profile(
            geom, rx, np.array([r_star - 2.0, r_star + 2.0]), Method.BESSEL_SUM
        )
        assert on == pytest.approx(0.25, abs=1e-3)
        assert np.all(off < 1e-6)

        result = average_ber(
            geom, rx, modes=ModeSet(tx_modes=(-2, 1)), stats=stats,
            method=Method.BESSEL_SUM, quad_order=192,
        )
        assert result.quad_converged

        # The dense oracle needs refinement in two places: across the ridge
        # and in the near-zero layer where this method loses all signal.
        coarse = np.linspace(0.0, 8.0 * stats.rayleigh_scale, 4001)[1:]
        near_zero = np.linspace(1e-4, 5.0, 5001)
        near_ridge = np.linspace(r_star - 1.0, r_star + 1.0, 20001)
        radii = np.unique(np.concatenate([coarse, near_zero, near_ridge]))
        cond = conditional_profile(geom, rx, radii, Method.BESSEL_SUM)
        dense = np.trapezoid(stats.pdf(radii) * cond, radii)
        assert result.averaged == pytest.approx(dense, rel=1e-3)

    @pytest.mark.parametrize("radial_index", [0, 1, 2])
    def test_crossings_match_envelope_bisection(self, radial_index):
        # Oracle: the scalar stream amplitudes built from the public envelope
        # factor, scanned on the same probe grid and bisected in r.
        rx = default_rx()
        specs = {
            "-2|2": ((-2, 2), None), "-2|1": ((-2, 1), None), "-1|1": ((-1, 1), None),
            "-3|1": ((-3, 1), None), "-4,-2|1,3": ((-4, -2, 1, 3), ((-4, -2), (1, 3))),
            "-3,-1|2,4": ((-3, -1, 2, 4), ((-3, -1), (2, 4))),
        }
        crossings = 0
        for label, (tx, grouping) in specs.items():
            modes = ModeSet(tx_modes=tx, stream_grouping=grouping)
            for waist in (0.005, 0.012, 0.025, 0.04, 0.06):
                for distance in (0.5e6, 1.0e6, 1.5e6):
                    geom = default_geom(waist, radial_index, distance)
                    upper = 8.0 * 2.0e-5 * distance

                    def gap(r):
                        env = [np.sqrt(mode_envelope(geom, rx, 2, ell, r)) for ell in tx]
                        amps = np.einsum("tn,tk->kn", env, modes.stream_matrix)
                        return amps[0] - amps[1]

                    probe = np.linspace(0.0, upper, 4097)[1:]
                    diff = gap(probe)
                    roots = []
                    for idx in np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]:
                        lo, hi = probe[idx], probe[idx + 1]
                        f_lo = gap(np.array([lo]))[0]
                        for _ in range(80):
                            mid = 0.5 * (lo + hi)
                            f_mid = gap(np.array([mid]))[0]
                            if f_lo * f_mid <= 0.0:
                                hi = mid
                            else:
                                lo, f_lo = mid, f_mid
                        roots.append(0.5 * (lo + hi))

                    windows = _degeneracy_windows(geom, rx, modes, Method.BESSEL_SUM, upper)
                    case = (label, waist, distance)
                    if label in ("-2|2", "-1|1"):
                        assert windows == [] and roots == [], case
                    # Every crossing sits in exactly one window, and each
                    # window is centered on the first crossing it holds.
                    owner = [[k for k, (lo, _, hi) in enumerate(windows) if lo <= r <= hi]
                             for r in roots]
                    assert all(len(o) == 1 for o in owner), case
                    assert sorted({o[0] for o in owner}) == list(range(len(windows))), case
                    for k, (_, mid, _) in enumerate(windows):
                        first = min(r for r, o in zip(roots, owner) if o[0] == k)
                        assert mid == pytest.approx(first, rel=1e-12, abs=0.0), case
                    crossings += len(roots)
        assert crossings > 0

    def test_degraded_node_fraction_bookkeeping(self):
        geom, rx = default_geom(), default_rx()
        stats = PointingStats(sigma_theta=3.0e-5, distance=geom.distance)
        modes = ModeSet(tx_modes=(-2, 1))
        full_rank = average_ber(geom, rx, modes, stats, Method.RADIAL_SUM, quad_order=48)
        assert full_rank.degraded_node_fraction == 0.0
        reduced = average_ber(geom, rx, modes, stats, Method.BESSEL_SUM, quad_order=48)
        # Some quadrature nodes fall below the approximation validity floor.
        assert reduced.degraded_node_fraction > 0.0
        assert reduced.degraded_node_fraction < 0.05

    def test_monotone_in_jitter(self):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        small = average_ber(
            geom, rx, modes, PointingStats(1.0e-5, geom.distance),
            Method.RADIAL_SUM, quad_order=96,
        )
        large = average_ber(
            geom, rx, modes, PointingStats(5.0e-5, geom.distance),
            Method.RADIAL_SUM, quad_order=96,
        )
        assert small.quad_converged and large.quad_converged
        assert small.averaged < large.averaged

    def test_grouped_mode_set(self):
        geom, rx = default_geom(), default_rx()
        stats = PointingStats(sigma_theta=3.0e-5, distance=geom.distance)
        modes = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        result = average_ber(geom, rx, modes, stats, Method.RADIAL_SUM, quad_order=48)
        assert 0.0 < result.averaged < 1.5
        assert result.quad_converged

    def test_grouped_average_is_bit_stable(self):
        # Frozen from the one-pass Bessel recurrence with the crossings
        # located on the waist-free gap function g(s). A BLAS matmul in place
        # of the einsum that applies the stream matrix moves the stream
        # vectors by about 1e-19, which shifts the 20 urad average in its
        # last digits. ``before`` is the value frozen from per-order scipy
        # Bessel calls and the envelope bisection, which the current code
        # must stay within 1e-12 of.
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        for sigma, frozen, before in (
            (3.0e-5, "0.06337909537581755", "0.06337909537581757"),
            (2.0e-5, "0.001506130828729049", "0.0015061308287290154"),
        ):
            stats = PointingStats(sigma_theta=sigma, distance=geom.distance)
            result = average_ber(geom, rx, modes, stats, Method.BESSEL_SUM, quad_order=64)
            assert repr(result.averaged) == frozen, sigma
            assert result.averaged == pytest.approx(float(before), rel=1e-12, abs=0.0), sigma

    def test_parameter_snapshot(self):
        geom, rx = default_geom(), default_rx()
        stats = PointingStats(sigma_theta=3.0e-5, distance=geom.distance)
        modes = ModeSet(tx_modes=(-2, 1))
        result = average_ber(geom, rx, modes, stats, "radial-sum", quad_order=48)
        assert result.method is Method.RADIAL_SUM
        assert result.quad_order == 48

    def test_quad_order_guards(self):
        geom, rx = default_geom(), default_rx()
        stats = PointingStats(sigma_theta=3.0e-5, distance=geom.distance)
        modes = ModeSet(tx_modes=(-2, 1))
        for bad in (8, 300, 64.0):
            with pytest.raises(ValueError):
                average_ber(geom, rx, modes, stats, Method.RADIAL_SUM, quad_order=bad)

    def test_result_validation_and_clamp(self):
        assert BerResult(averaged=1.2, method=Method.BESSEL_SUM).averaged_clamped == 0.5
        assert BerResult(averaged=0.3, method=Method.BESSEL_SUM).averaged_clamped == 0.3
        for bad in (1.6, -0.1):
            with pytest.raises(ValueError):
                BerResult(averaged=bad, method=Method.BESSEL_SUM)
