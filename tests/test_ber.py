"""Conditional and pointing-averaged bit error rate.

The four-Q conditional expression is recomputed in-test from its definition
using scipy's erfc, and the Rayleigh average is checked against dense
trapezoid integration of that independent conditional. One case places a
stream-degeneracy ridge inside the averaging domain to confirm the
piecewise quadrature actually resolves it.
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import erfc

import oamlink.crosstalk
from oamlink.beam import REACH_SIGMAS, LinkGeometry, ModeSet
from oamlink import ber
from oamlink.ber import (
    BerResult,
    _degeneracy_windows,
    _gap_roots,
    _piecewise_rule,
    _vectors_from_profile,
    average_ber,
    check_quad_order,
    conditional_ber,
    rayleigh_pdf,
)
from oamlink.crosstalk import (
    ApproximationWarning,
    Check,
    Method,
    QuadratureConvergenceWarning,
    ReceiverConfig,
    channel_profile,
    crosstalk_exact_detailed,
    crosstalk_matrix,
    mode_envelope,
)
from oamlink.numerics import _kronrod, gauss_legendre, q_function


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


def rule_pieces(windows, upper, order, window_order):
    """average_ber's pieces (a, b, n): the base order on the gaps, the
    window order on each half of each window, empty pieces dropped."""
    pieces, cursor = [], 0.0
    for lo, mid, hi in windows:
        if lo > cursor:
            pieces.append((cursor, lo, order))
        pieces += [(lo, mid, window_order), (mid, hi, window_order)]
        cursor = hi
    if cursor < upper:
        pieces.append((cursor, upper, order))
    return [(a, b, n) for a, b, n in pieces if b - a > upper * 1e-15]


def conditional_profile(geom, rx, radii, method):
    """Independent conditional BER batch for the plain two-mode set."""
    modes = ModeSet(tx_modes=(-2, 1))
    amp = np.sqrt(channel_profile(geom, rx, modes, radii, method))
    return four_term_ref(amp[:, :, 0], amp[:, :, 1], rx.noise_level)


class TestRayleighOffset:
    def test_rayleigh_scale(self):
        assert default_geom().rayleigh_scale(3.0e-5) == pytest.approx(30.0, rel=1e-15)

    def test_pdf_is_normalized_density(self):
        s = default_geom().rayleigh_scale(3.0e-5)
        nodes, weights = gauss_legendre(256, 0.0, 8.0 * s)
        mass = weights @ rayleigh_pdf(nodes, s)
        assert mass == pytest.approx(1.0, rel=1e-12)
        mean = weights @ (rayleigh_pdf(nodes, s) * nodes)
        assert mean == pytest.approx(s * math.sqrt(math.pi / 2.0), rel=1e-10)

    def test_pdf_mode_at_scale(self):
        s = default_geom().rayleigh_scale(2.0e-5)
        assert rayleigh_pdf(s, s) == pytest.approx(math.exp(-0.5) / s, rel=1e-14)
        assert rayleigh_pdf(s, s) > rayleigh_pdf(0.7 * s, s)
        assert rayleigh_pdf(s, s) > rayleigh_pdf(1.3 * s, s)

    def test_validation(self):
        for bad in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_theta must be positive"):
                default_geom().rayleigh_scale(bad)
        for bad in (1e-300, 1e300):
            with pytest.raises(ValueError, match="whose square is not a normal float"):
                default_geom().rayleigh_scale(bad)
        with pytest.raises(ValueError, match="distance must be positive"):
            default_geom(distance=-1.0)

    def test_bad_jitter_is_refused_before_any_kernel_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr("oamlink.ber.channel_profile", refuse)
        geom, rx, modes = default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1))
        with pytest.raises(ValueError, match="sigma_theta must be positive, got 0.0"):
            average_ber(geom, rx, modes, 0.0)
        with pytest.raises(ValueError, match="sigma_theta 1e-300 gives a Rayleigh scale"):
            average_ber(geom, rx, modes, 1e-300)

    @pytest.mark.parametrize("tx, grouping, sigma_theta, method, aperture, refusal", [
        ((-2, 1, 3), None, 3e-5, "bessel-sum", 0.05,
         "the averaged BER needs exactly 2 data streams, '-2|1|3' has 3"),
        ((-2, 1), ((-2, 1),), 3e-5, "radial-sum", 0.05, "'-2,1' has 1"),
        ((-2, 1), None, 3e-5, "exact2d", 0.05,
         "method exact2d takes minutes per jitter-averaged value; use radial-sum"),
        # 8 sigma_r = 8 km, or a 1.5 m aperture, takes the Bessel arguments
        # past their range.
        ((-2, 1), None, 1e-3, "bessel-sum", 0.05,
         "past 1000 (at sigma_theta=0.001, distance=1000000.0, waist=0.025, "
         "wavelength=1.55e-06)"),
        ((-2, 1), None, 3e-5, "bessel-integral", 1.5,
         "aperture_radius 1.5 m takes Bessel arguments"),
    ])
    def test_average_it_cannot_run_is_refused_before_the_window_search(
        self, monkeypatch, tx, grouping, sigma_theta, method, aperture, refusal
    ):
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr("oamlink.ber.channel_profile", refuse)
        monkeypatch.setattr("oamlink.ber._gap_roots", refuse)
        modes = ModeSet(tx, stream_grouping=grouping)
        with pytest.raises(ValueError, match=re.escape(refusal)):
            average_ber(default_geom(), default_rx(aperture_radius=aperture), modes, sigma_theta,
                        method)

    def test_asymptotic_is_not_held_to_the_bessel_range(self):
        # asymptotic evaluates no Bessel function: the 1.5 m aperture the
        # Bessel methods are refused at averages and settles.
        res = average_ber(default_geom(), default_rx(aperture_radius=1.5), ModeSet((-2, 1)),
                          3e-5, "asymptotic")
        assert res.quad_converged and res.quad_self_check_rel < 2e-3
        assert res.averaged == pytest.approx(0.07313, rel=1e-4)


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


class TestConditionalBer:
    def test_no_signal_limit(self):
        assert conditional_ber(np.zeros(2), np.zeros(2), 1e-12) == pytest.approx(1.5, rel=1e-14)

    def test_clean_channel_limit(self):
        assert conditional_ber(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-6) < 1e-100

    def test_identical_streams_floor(self):
        h = np.array([1.0, 2.0])
        assert conditional_ber(h, h, 1e-8) == pytest.approx(0.25, rel=1e-12)

    def test_matches_independent_definition(self):
        h1 = np.array([3.0e-8, 1.0e-8, 2.0e-9])
        h2 = np.array([1.0e-8, 2.5e-8, 4.0e-9])
        n0 = 6.35e-16
        assert conditional_ber(h1, h2, n0) == pytest.approx(
            float(four_term_ref(h1, h2, n0)), rel=1e-14
        )

    def test_stacked_terms_match_separate_q_calls(self):
        # The four norms go through one q_function call; the sum must equal
        # the four separate terms bit for bit, with and without batch axes,
        # at every filter-bank width a ModeSet admits (1 to 33): the norms
        # are column adds in numpy's own reduction order, which from eight
        # columns on is not left to right.
        rng = np.random.default_rng(7)
        for shape in ((3,), (5, 3), (2, 4, 2), *((60, width) for width in range(1, 34))):
            h1, h2 = rng.random(shape), rng.random(shape)
            scale = 1.0 / math.sqrt(4.0 * 0.05)
            terms = (
                q_function(np.linalg.norm(h1, axis=-1) * scale)
                + q_function(np.linalg.norm(h2, axis=-1) * scale)
                + 0.5 * q_function(np.linalg.norm(h1 + h2, axis=-1) * scale)
                + 0.5 * q_function(np.linalg.norm(h1 - h2, axis=-1) * scale)
            )
            stacked = conditional_ber(h1, h2, 0.05)
            assert np.shape(stacked) == shape[:-1]
            assert np.array_equal(stacked, terms), shape

    def test_scale_invariance(self):
        h1, h2 = np.array([2.0e-8, 1.0e-8]), np.array([1.5e-8, 0.5e-8])
        base = conditional_ber(h1, h2, 1e-16)
        assert conditional_ber(10.0 * h1, 10.0 * h2, 1e-14) == pytest.approx(base, rel=1e-12)

    def test_monotone_in_noise(self):
        h1, h2 = np.array([2.0e-8, 1.0e-8]), np.array([1.5e-8, 0.5e-8])
        levels = [1e-17, 1e-16, 1e-15]
        values = [conditional_ber(h1, h2, n0) for n0 in levels]
        assert values[0] < values[1] < values[2]

    def test_validation(self):
        h = np.ones(2)
        with pytest.raises(ValueError):
            conditional_ber(h, h, 0.0)
        with pytest.raises(ValueError):
            conditional_ber(h, h, -1e-16)


class TestAverageBer:
    def test_matches_dense_average(self):
        # Dense trapezoid of the independent conditional, refined around the
        # stream-amplitude crossing at the received beam radius, must agree
        # with the quadrature average.
        geom, rx = default_geom(), default_rx()
        sigma_theta = 3.0e-5
        modes = ModeSet(tx_modes=(-2, 1))
        result = average_ber(geom, rx, modes, sigma_theta, Method.RADIAL_SUM, quad_order=96)
        assert result.quad_converged

        w_rx = geom.beam_radius_at_rx
        scale = geom.rayleigh_scale(sigma_theta)
        coarse = np.linspace(0.0, 8.0 * scale, 3001)[1:]
        fine = np.linspace(w_rx - 1.0, w_rx + 1.0, 20001)
        radii = np.unique(np.concatenate([coarse, fine]))
        cond = conditional_profile(geom, rx, radii, Method.RADIAL_SUM)
        dense = np.trapezoid(rayleigh_pdf(radii, scale) * cond, radii)
        assert result.averaged == pytest.approx(dense, rel=1e-3)

    def test_small_jitter_average_includes_near_degenerate_spike(self):
        # At small jitter the crossing sits far out in the Rayleigh tail yet
        # its spike still carries a few percent of the whole average, so the
        # quadrature must not step over it.
        geom, rx = default_geom(), default_rx()
        sigma_theta = 1.0e-5
        modes = ModeSet(tx_modes=(-2, 1))
        result = average_ber(geom, rx, modes, sigma_theta, Method.RADIAL_SUM, quad_order=192)
        assert result.quad_converged

        w_rx = geom.beam_radius_at_rx
        scale = geom.rayleigh_scale(sigma_theta)
        upper = 8.0 * scale
        segments = (
            (np.linspace(0.0, w_rx - 1.0, 8001)[1:]),
            (np.linspace(w_rx - 1.0, w_rx + 1.0, 20001)),
            (np.linspace(w_rx + 1.0, upper, 2001)),
        )
        parts = []
        for radii in segments:
            cond = conditional_profile(geom, rx, radii, Method.RADIAL_SUM)
            parts.append(np.trapezoid(rayleigh_pdf(radii, scale) * cond, radii))
        dense = sum(parts)
        assert result.averaged == pytest.approx(dense, rel=1e-3)
        assert parts[1] > 0.03 * dense

    def test_degeneracy_ridge_is_resolved(self):
        # At this waist the two stream envelopes cross inside the averaging
        # domain, where the separable forms make h1 = h2 exactly.
        geom, rx = default_geom(waist=0.015), default_rx()
        sigma_theta = 3.0e-5

        # Locate the crossing from the public envelope factor; for orders
        # |l| = 2 and 1 it must sit at the received beam radius.
        def gap(r):
            e2 = mode_envelope(geom, rx, 2, [-2], np.array([r]))[0]
            e1 = mode_envelope(geom, rx, 2, [1], np.array([r]))[0]
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
            geom, rx, modes=ModeSet(tx_modes=(-2, 1)), sigma_theta=sigma_theta,
            method=Method.BESSEL_SUM, quad_order=192,
        )
        assert result.quad_converged

        # The dense oracle needs refinement in two places: across the ridge
        # and in the near-zero layer where this method loses all signal.
        scale = geom.rayleigh_scale(sigma_theta)
        coarse = np.linspace(0.0, 8.0 * scale, 4001)[1:]
        near_zero = np.linspace(1e-4, 5.0, 5001)
        near_ridge = np.linspace(r_star - 1.0, r_star + 1.0, 20001)
        radii = np.unique(np.concatenate([coarse, near_zero, near_ridge]))
        cond = conditional_profile(geom, rx, radii, Method.BESSEL_SUM)
        dense = np.trapezoid(rayleigh_pdf(radii, scale) * cond, radii)
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
                        env = [np.sqrt(mode_envelope(geom, rx, 2, [ell], r)[0]) for ell in tx]
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

    @pytest.mark.parametrize("tx, grouping, crossings, method, quad_order", [
        ((-2, 1), None, 1, Method.BESSEL_SUM, 64),
        ((-4, -2, 1, 3), ((-4, -2), (1, 3)), 1, Method.BESSEL_SUM, 17),  # does not settle
        ((-1, 1), None, 0, Method.BESSEL_SUM, 64),
        ((-2, 1), None, 1, Method.RADIAL_SUM, 96),
        ((-2, 1), None, 1, Method.ASYMPTOTIC, 256),
    ], ids=["-2|1", "-4,-2|1,3-q17", "-1|1", "-2|1-radial-sum", "-2|1-asymptotic-q256"])
    @pytest.mark.filterwarnings("ignore::oamlink.crosstalk.QuadratureConvergenceWarning")
    def test_one_kernel_pass_per_average(self, monkeypatch, tx, grouping, crossings, method,
                                         quad_order):
        # The Gauss rule and its Kronrod extension share one channel_profile
        # call over sum(2 n_i + 1) radii, n_i the order of piece i: the Gauss
        # nodes and the n_i + 1 added ones, not a second rule of twice the
        # order (3 n_i). The only other calls are the one-radius slope
        # probes, one per crossing.
        geom, rx = default_geom(), default_rx()
        sigma_theta = 3.0e-5
        modes = ModeSet(tx_modes=tx, stream_grouping=grouping)
        upper = REACH_SIGMAS * geom.rayleigh_scale(sigma_theta)
        probe = np.linspace(0.0, upper, 4097)[1:]
        env = [np.sqrt(mode_envelope(geom, rx, 2, [ell], probe)[0])
               for ell in tx]
        gap = np.einsum("tn,tk->kn", env, modes.stream_matrix)
        gap = gap[0] - gap[1]
        assert np.count_nonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0) == crossings
        pieces = rule_pieces(_degeneracy_windows(geom, rx, modes, method, upper), upper,
                             quad_order, 48)
        sizes = []

        def counting(geom, rx, modes, r_ch, method):
            sizes.append(np.size(r_ch))
            return channel_profile(geom, rx, modes, r_ch, method)

        monkeypatch.setattr("oamlink.ber.channel_profile", counting)
        average_ber(geom, rx, modes, sigma_theta, method, quad_order)
        assert len(sizes) == 1 + crossings, sizes
        assert sorted(sizes)[:-1] == [1] * crossings, sizes
        assert max(sizes) == sum(2 * n + 1 for _, _, n in pieces), sizes

    @pytest.mark.parametrize("label, radial_index, frozen", [
        ("-2|1", 0, "[(19.71218000565596, 19.735228778029057, 19.758277550402155)]"),
        ("-2|1", 1, "[(12.8941193930509, 12.902805254388532, 12.911491115726164), "
                    "(21.95368196836139, 21.95859544724716, 21.963508926132928), "
                    "(33.19320154998359, 33.226410424489416, 33.25961929899524)]"),
        ("-3|1", 0, "[(21.82376370213041, 21.840620869794233, 21.857478037458055)]"),
        ("-3|1", 1, "[(14.538011612465317, 14.544605847524812, 14.551200082584307), "
                    "(23.813709605316895, 23.82043136852143, 23.827153131725964), "
                    "(35.22112102687028, 35.24217372126662, 35.263226415662956)]"),
    ])
    def test_windows_are_bit_stable(self, label, radial_index, frozen):
        # Frozen from a bisection that runs all of its 60 steps: stopping
        # once no float lies between the bracket ends must not move a bit.
        geom, rx = default_geom(radial_index=radial_index), default_rx()
        upper = 8.0 * geom.rayleigh_scale(3.0e-5)
        modes = ModeSet(tx_modes=tuple(int(t) for t in label.split("|")))
        assert repr(_degeneracy_windows(geom, rx, modes, Method.BESSEL_SUM, upper)) == frozen

    def test_degraded_node_fraction_bookkeeping(self):
        geom, rx = default_geom(), default_rx()
        sigma_theta = 3.0e-5
        modes = ModeSet(tx_modes=(-2, 1))
        full_rank = average_ber(geom, rx, modes, sigma_theta, Method.RADIAL_SUM, quad_order=48)
        assert full_rank.degraded_node_fraction == 0.0
        reduced = average_ber(geom, rx, modes, sigma_theta, Method.BESSEL_SUM, quad_order=48)
        # Some quadrature nodes fall below the approximation validity floor.
        assert reduced.degraded_node_fraction > 0.0
        assert reduced.degraded_node_fraction < 0.05

    def test_monotone_in_jitter(self):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        small = average_ber(
            geom, rx, modes, 1.0e-5,
            Method.RADIAL_SUM, quad_order=96,
        )
        large = average_ber(
            geom, rx, modes, 5.0e-5,
            Method.RADIAL_SUM, quad_order=96,
        )
        assert small.quad_converged and large.quad_converged
        assert small.averaged < large.averaged

    def test_grouped_mode_set(self):
        geom, rx = default_geom(), default_rx()
        sigma_theta = 3.0e-5
        modes = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        result = average_ber(geom, rx, modes, sigma_theta, Method.RADIAL_SUM, quad_order=48)
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
            result = average_ber(geom, rx, modes, sigma, Method.BESSEL_SUM, quad_order=64)
            assert repr(result.averaged) == frozen, sigma
            assert result.averaged == pytest.approx(float(before), rel=1e-12, abs=0.0), sigma

    def test_parameter_snapshot(self):
        geom, rx = default_geom(), default_rx()
        sigma_theta = 3.0e-5
        modes = ModeSet(tx_modes=(-2, 1))
        result = average_ber(geom, rx, modes, sigma_theta, "radial-sum", quad_order=48)
        assert result == average_ber(geom, rx, modes, sigma_theta, Method.RADIAL_SUM, 48)

    def test_quad_order_guards(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr("oamlink.ber.channel_profile", refuse)
        geom, rx = default_geom(), default_rx()
        sigma_theta = 3.0e-5
        modes = ModeSet(tx_modes=(-2, 1))
        for bad in (8, 15, 257, 300, 64.0):
            with pytest.raises(ValueError, match="quad_order must be an integer in \\[16, 256\\]"):
                average_ber(geom, rx, modes, sigma_theta, Method.RADIAL_SUM, quad_order=bad)
        for edge in (16, 256, np.int64(64)):
            check_quad_order(edge)

    def test_result_validation_and_clamp(self):
        assert BerResult(averaged=1.2).averaged_clamped == 0.5
        assert BerResult(averaged=0.3).averaged_clamped == 0.3
        # nan and the infinities are refused too, so every average that
        # optimize_w0 or rank_mode_sets reads is finite.
        for bad in (1.6, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                BerResult(averaged=bad)


class TestPiecewiseRule:
    @staticmethod
    def per_piece_rules(windows, upper, order, window_order):
        """The rule built piece by piece: the Gauss part from the public
        gauss_legendre, and the Kronrod extension's added nodes and weights
        (at the Gauss nodes, then at the added ones) mapped from _kronrod."""
        pieces = rule_pieces(windows, upper, order, window_order)
        nodes, weights = zip(*(gauss_legendre(n, a, b) for a, b, n in pieces))
        added, at_gauss, at_added = [], [], []
        for a, b, n in pieces:
            xs, gauss_ws, added_ws = _kronrod(n)
            half = 0.5 * (b - a)
            added.append(0.5 * (b + a) + half * xs)
            at_gauss.append(half * gauss_ws)
            at_added.append(half * added_ws)
        return (np.concatenate(nodes), np.concatenate(weights), np.concatenate(added),
                np.concatenate(at_gauss + at_added))

    def test_equals_per_piece_gauss_legendre(self):
        # The pieces are mapped from the cached Legendre and Kronrod tables
        # directly; the floats must be the ones gauss_legendre gives, and
        # the Kronrod parts those of each piece's own map, with and without
        # windows, for every base order average_ber accepts and its double.
        upper = 8.0 * default_geom(waist=0.015).rayleigh_scale(3.0e-5)
        found = _degeneracy_windows(default_geom(waist=0.015), default_rx(),
                                    ModeSet((-2, 1)), Method.BESSEL_SUM, upper)
        assert found
        window_sets = [
            [],
            found,
            [(0.0, 0.25, 1.0), (100.0, 101.0, 102.5)],
            [(0.5 * upper, 0.9 * upper, upper)],
            [(10.0, 10.0, 11.0)],  # an empty half is skipped
        ]
        for windows in window_sets:
            for order in (16, 17, 31, 48, 64, 100, 128, 255, 256):
                for base, window_order in ((order, 48), (2 * order, 96)):
                    got = _piecewise_rule(windows, upper, base, window_order)
                    want = self.per_piece_rules(windows, upper, base, window_order)
                    assert len(got) == 4
                    for part, (g, w) in enumerate(zip(got, want)):
                        assert np.array_equal(g, w), (windows, base, part)
                    # The Kronrod weights cover the Gauss nodes, then the
                    # added ones, and each rule spans [0, upper].
                    nodes, weights, added, kronrod = got
                    assert kronrod.size == nodes.size + added.size
                    assert weights.sum() == pytest.approx(upper, rel=1e-13)
                    assert kronrod.sum() == pytest.approx(upper, rel=1e-13)


# The seven regimes of ROADMAP Table U (default link at 1000 km, p = 0,
# bessel-sum at q = 64), criterion 06's links (bessel-sum at q = 192) and
# criterion 08's (radial-sum at q = 96 across its search range), each
# (w0, sigma_theta, mode set, method, q).
GATE_REGIMES = [
    (0.015, 2e-5, "-2|1", Method.BESSEL_SUM, 64),
    (0.025, 3e-5, "-2|1", Method.BESSEL_SUM, 64),
    (0.035, 2e-5, "-2|1", Method.BESSEL_SUM, 64),
    (0.015, 2e-5, "-4,-2|1,3", Method.BESSEL_SUM, 64),
    (0.025, 3e-5, "-4,-2|1,3", Method.BESSEL_SUM, 64),
    (0.025, 3e-5, "-2|2", Method.BESSEL_SUM, 64),
    (0.025, 1e-5, "-1|1", Method.BESSEL_SUM, 64),
    *((w0, 2e-5, "-2|1", Method.BESSEL_SUM, 192) for w0 in (0.013, 0.015, 0.017)),
    *((w0, sigma, "-2|1", Method.RADIAL_SUM, 96)
      for sigma in (1e-5, 2e-5, 3e-5) for w0 in (0.005, 0.01, 0.025, 0.06)),
]


class TestSelfCheckGate:
    """The Gauss-Kronrod self-check measures what the doubled-order rule
    it replaced measured, so the 1% gate keeps its meaning."""

    @staticmethod
    def doubled_order_estimate(geom, rx, modes, sigma_theta, method, quad_order, base):
        """|fine - base| / max(|fine|, |base|), fine the Gauss-Legendre
        rule of twice the order (96 on the windows) on average_ber's pieces."""
        scale = geom.rayleigh_scale(sigma_theta)
        upper = REACH_SIGMAS * scale
        windows = _degeneracy_windows(geom, rx, modes, method, upper)
        fine = 0.0
        for a, b, n in rule_pieces(windows, upper, 2 * quad_order, 96):
            x, w = gauss_legendre(n, a, b)
            h1, h2 = _vectors_from_profile(channel_profile(geom, rx, modes, x, method), modes)
            fine += w @ (rayleigh_pdf(x, scale) * conditional_ber(h1, h2, rx.noise_level))
        return abs(fine - base) / max(abs(fine), abs(base))

    @pytest.mark.parametrize("w0, sigma_theta, spec, method, quad_order", GATE_REGIMES)
    def test_kronrod_check_tracks_the_doubled_order_check(self, w0, sigma_theta, spec, method,
                                                          quad_order):
        geom, rx, modes = default_geom(waist=w0), default_rx(), ModeSet.parse(spec)
        result = average_ber(geom, rx, modes, sigma_theta, method, quad_order)
        kronrod = result.quad_self_check_rel
        doubled = self.doubled_order_estimate(geom, rx, modes, sigma_theta, method,
                                              quad_order, result.averaged)
        assert (kronrod < 1e-8 and doubled < 1e-8) or 0.5 <= kronrod / doubled <= 2.0, (
            kronrod, doubled)
        assert (kronrod <= 1e-2) == (doubled <= 1e-2) == result.quad_converged

    def test_each_check_record_owns_its_warning_text(self, monkeypatch):
        # The four checks: the average's self-check and validity floor, and
        # a matrix's grid doubling and validity floor. Each is pinned from
        # its record, and each warning's text is its record's text.
        geom, rx, modes = default_geom(), default_rx(), ModeSet((-2, 1))
        monkeypatch.setattr(oamlink.crosstalk, "_EXACT_REL_TOL", 0.0)
        calls = {
            "average-self-check": lambda: average_ber(geom, rx, modes, 3e-5, "bessel-sum", 16),
            "average-floor": lambda: average_ber(geom, rx, modes, 1e-12, "bessel-sum", 64),
            "matrix-doubling": lambda: crosstalk_matrix(geom, rx, modes, 8.0, "exact2d"),
            "matrix-floor": lambda: crosstalk_matrix(geom, rx, modes, 0.5, "bessel-sum"),
        }
        floor = "validity floor of the Bessel-based approximations; accuracy is degraded"
        upper = REACH_SIGMAS * geom.rayleigh_scale(1e-12)
        rel_change = crosstalk_exact_detailed(geom, rx, modes, 8.0).rel_change
        expected = {
            "average-self-check": (QuadratureConvergenceWarning, None,
                                   "pointing average did not settle: the Gauss-Kronrod "
                                   "extension moved the BER by {:.2%}"),
            "average-floor": (ApproximationWarning, 1.0 - upper,
                              f"every averaged offset (up to 8 sigma_r = {upper:.3g} m) is "
                              f"below the 1 m {floor}"),
            "matrix-doubling": (QuadratureConvergenceWarning, rel_change,
                                "crosstalk integral did not settle: last grid doubling "
                                f"changed the value by {rel_change:.2%}"),
            "matrix-floor": (ApproximationWarning, 0.5,
                             f"offset radius 0.5 m is below the 1 m {floor}"),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = call()
            checks = result.checks if isinstance(result, BerResult) else result[1]
            (check,) = checks
            category, size, text = expected[name]
            if size is None:
                assert not result.quad_converged
                size = result.quad_self_check_rel
                text = text.format(size)
            assert check == Check(category, size, text), name
            assert [(w.category, str(w.message)) for w in caught] == [(category, text)], name


CACHE_SPECS = ("-2|1", "-3|1", "-4,-2|1,3", "-3,-1|2,4")


def windows_of(geom, modes, upper, rx=None):
    return repr(_degeneracy_windows(geom, rx or default_rx(), modes, Method.BESSEL_SUM, upper))


class TestCrossingCache:
    """The crossings of g(s) are cached per (tx modes, stream partition, p,
    cap); a call's windows must not depend on what the cache holds."""

    @pytest.mark.parametrize("radial_index", [0, 1, 2])
    def test_windows_do_not_depend_on_what_ran_before(self, radial_index):
        other_rx = default_rx(aperture_radius=0.04, noise_level=1e-15)
        warm_hits = 0
        for spec in CACHE_SPECS:
            modes = ModeSet.parse(spec)
            for waist in (0.012, 0.025, 0.04):
                for distance in (0.5e6, 1.5e6):
                    for sigma in (1.0e-5, 3.0e-5):
                        geom = default_geom(waist, radial_index, distance)
                        upper = 8.0 * geom.rayleigh_scale(sigma)
                        case = (spec, waist, distance, sigma)
                        _gap_roots.cache_clear()
                        cold = windows_of(geom, modes, upper)
                        # The same set at another link: other distance and
                        # receiver; in the far field s_max barely moves with
                        # the distance, so this mostly shares the entry.
                        other = default_geom(waist, radial_index, 2.0e6 - distance)
                        _gap_roots.cache_clear()
                        windows_of(other, modes, 8.0 * other.rayleigh_scale(sigma), other_rx)
                        before = _gap_roots.cache_info().hits
                        assert windows_of(geom, modes, upper) == cold, case
                        warm_hits += _gap_roots.cache_info().hits - before
                        # Warmed by larger and smaller reaches, alone and in
                        # both orders; 1.3 often shares the cap, 3 never does.
                        for warmers in ((3.0,), (1 / 3.0,), (1.3,), (1 / 1.3,),
                                        (3.0, 1 / 3.0), (1 / 3.0, 3.0),
                                        (1.3, 1 / 1.3), (1 / 1.3, 1.3)):
                            _gap_roots.cache_clear()
                            for factor in warmers:
                                windows_of(geom, modes, factor * upper)
                            assert windows_of(geom, modes, upper) == cold, (case, warmers)
        assert warm_hits > 0

    def test_no_crossing_past_upper_reaches_the_call(self):
        # Reaches swept through the crossings of "-2|1" at p = 1 (about 12.9,
        # 22.0 and 33.2 m on the default link), after a call with the full
        # reach has cached every crossing.
        geom = default_geom(radial_index=1)
        modes = ModeSet(tx_modes=(-2, 1))
        to_s = math.sqrt(2.0) / geom.beam_radius_at_rx
        full = _degeneracy_windows(geom, default_rx(), modes, Method.BESSEL_SUM, 240.0)
        assert len(full) == 3
        held_beyond = 0
        for upper in np.linspace(5.0, 40.0, 71):
            windows = _degeneracy_windows(geom, default_rx(), modes, Method.BESSEL_SUM, upper)
            assert all(0.0 <= lo <= mid <= hi <= upper for lo, mid, hi in windows), upper
            assert [w[1] for w in windows] == [w[1] for w in full if w[1] <= upper], upper
            s_max = upper * to_s
            cap = math.ldexp(1.0, math.frexp(s_max)[1])
            held_beyond += sum(s > s_max for s in _gap_roots((-2, 1), ((-2,), (1,)), 1, cap))
        assert held_beyond > 0  # the cache did hold crossings the calls refused

    @pytest.mark.parametrize("spec", CACHE_SPECS)
    def test_warm_call_does_no_scan_or_bisection(self, monkeypatch, spec):
        evaluations = []
        gap = ber._gap

        def counting(terms, s):
            evaluations.append(np.size(s))
            return gap(terms, s)

        monkeypatch.setattr(ber, "_gap", counting)
        geom, modes = default_geom(), ModeSet.parse(spec)
        upper = 8.0 * geom.rayleigh_scale(3.0e-5)
        _gap_roots.cache_clear()
        cold = windows_of(geom, modes, upper)
        assert evaluations[0] == ber._SCAN_POINTS and len(evaluations) > 1
        evaluations.clear()
        assert windows_of(geom, modes, upper) == cold
        windows_of(geom, modes, upper, default_rx(aperture_radius=0.04, k_r=8))
        assert evaluations == []

    def test_a_set_and_its_spec_share_one_entry(self):
        geom = default_geom()
        upper = 8.0 * geom.rayleigh_scale(3.0e-5)
        _gap_roots.cache_clear()
        first = windows_of(geom, ModeSet((-2, 1)), upper)
        assert windows_of(geom, ModeSet.parse("-2|1"), upper) == first
        info = _gap_roots.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_cache_is_bounded(self):
        maxsize = _gap_roots.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
