"""Waist optimizer, mode-set ranking and method benchmarks.

The optimizer is checked against closed-form objectives with known minima
and the ranking for permutation stability. Benchmark checks stick to
structure and internal consistency; absolute timing thresholds belong to
the acceptance suite.
"""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oamlink.sweep
from oamlink.beam import LinkGeometry, ModeSet
from oamlink.ber import BerResult
from oamlink.crosstalk import Method, ReceiverConfig
from oamlink.sweep import (
    PRE_GRID_POINTS,
    BenchReport,
    OptimizeResult,
    bench_methods,
    mode_set_label,
    optimize_w0,
    rank_mode_sets,
    warning_status,
)


GEOM = LinkGeometry(wavelength=1.55e-6, waist=0.025, radial_index=0, distance=1.0e6)
RX = ReceiverConfig(aperture_radius=0.05, noise_level=6.35e-16, k_r=6)
A2 = ModeSet(tx_modes=(-2, 1))
SIGMA_THETA = 3.0e-5  # per-axis angular pointing jitter, rad
LINK = (GEOM, RX, A2, SIGMA_THETA)


class TestModeSetLabel:
    def test_labels(self):
        assert mode_set_label(ModeSet(tx_modes=(-2, 1))) == "-2|1"
        grouped = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        assert mode_set_label(grouped) == "-4,-2|1,3"
        assert mode_set_label(ModeSet(tx_modes=(0,))) == "0"


def use_objective(monkeypatch, objective):
    """Replace the averaged BER the optimizer minimizes with a closed-form
    function of the waist."""
    def average_ber(geom, *args):
        return SimpleNamespace(averaged=objective(geom.waist))

    monkeypatch.setattr(oamlink.sweep, "average_ber", average_ber)


class TestOptimizeW0:
    def test_recovers_quadratic_minimum(self, monkeypatch):
        calls = []

        def objective(w):
            calls.append(w)
            return (w - 0.02) ** 2 + 0.3

        use_objective(monkeypatch, objective)
        res = optimize_w0(*LINK, bounds=(0.005, 0.06), tol=1e-4, quad_order=48)
        assert not res.boundary
        assert res.w0_opt == pytest.approx(0.02, abs=1e-4)
        assert res.ber_opt == pytest.approx(0.3, abs=1e-8)
        # Memoization: every reported evaluation was a distinct abscissa.
        assert res.evaluations == len(set(calls)) == len(calls)
        xs = [p[0] for p in res.bracket]
        ys = [p[1] for p in res.bracket]
        assert xs[0] < res.w0_opt <= xs[2]
        assert ys[1] <= ys[0] and ys[1] <= ys[2]

    @pytest.mark.parametrize("sign, edge", [(1.0, slice(0, 3)), (-1.0, slice(-3, None))],
                             ids=["lower", "upper"])
    def test_boundary_minimum_is_flagged(self, sign, edge, monkeypatch):
        use_objective(monkeypatch, lambda w: sign * w)
        res = optimize_w0(*LINK, bounds=(0.01, 0.02), tol=1e-4, quad_order=48)
        pre = np.linspace(0.01, 0.02, PRE_GRID_POINTS)[edge]
        assert res.boundary
        assert res.w0_opt == (0.01 if sign > 0 else 0.02)
        assert res.evaluations == PRE_GRID_POINTS
        assert res.bracket == tuple((x, sign * x) for x in pre.tolist())

    def test_real_objective_interior_optimum(self):
        res = optimize_w0(*LINK, bounds=(0.008, 0.03), tol=2e-3, quad_order=48)
        assert not res.boundary
        assert 0.009 < res.w0_opt < 0.016
        assert res.ber_opt < 5e-3

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            optimize_w0(*LINK, bounds=(0.03, 0.01), tol=1e-4, quad_order=48)
        with pytest.raises(ValueError):
            optimize_w0(*LINK, bounds=(0.01, 0.03), tol=0.5, quad_order=48)
        with pytest.raises(ValueError):
            optimize_w0(*LINK, bounds=(-0.01, 0.03), tol=1e-4, quad_order=48)
        # A nan average is refused where it is made, by BerResult.
        monkeypatch.setattr(oamlink.sweep, "average_ber",
                            lambda geom, *args: BerResult(averaged=math.nan))
        with pytest.raises(ValueError, match="averaged BER nan"):
            optimize_w0(*LINK, bounds=(0.01, 0.03), tol=1e-4, quad_order=48)

    @pytest.mark.parametrize("tol", [1e-300, 1e-18, math.ulp(0.06)])
    def test_tol_below_the_float_spacing_is_refused_before_any_average(self, monkeypatch,
                                                                       tol):
        # The golden-section points stop moving below about one ulp of the
        # optimum, so such a tol would never end the search.
        def refuse(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(oamlink.sweep, "average_ber", refuse)
        with pytest.raises(ValueError, match="tol must be in"):
            optimize_w0(*LINK, bounds=(0.005, 0.06), tol=tol)

    @pytest.mark.parametrize("bounds, tol, refusal", [
        ((0.0, 0.06), 1e-4, "need 0 < w_lo < w_hi < inf"),
        ((0.03, 0.01), 1e-4, "need 0 < w_lo < w_hi < inf"),
        ((0.03, 0.03), 1e-4, "need 0 < w_lo < w_hi < inf"),
        ((math.nan, 0.06), 1e-4, "need 0 < w_lo < w_hi < inf"),
        ((0.01, math.inf), 1e-4, "need 0 < w_lo < w_hi < inf"),
        ((0.005, 0.06), 0.06 - 0.005, "tol must be in"),
        ((0.005, 0.06), math.nan, "tol must be in"),
    ])
    def test_bad_search_is_refused_before_any_average(self, monkeypatch, bounds, tol, refusal):
        def refuse(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(oamlink.sweep, "average_ber", refuse)
        with pytest.raises(ValueError, match=re.escape(refusal)):
            optimize_w0(*LINK, bounds=bounds, tol=tol)

    @pytest.mark.parametrize("w_opt", [0.0095, 0.0237, 0.030, 0.045, 0.0555])
    def test_least_tol_ends(self, monkeypatch, w_opt):
        calls = []

        def objective(w):
            calls.append(w)
            assert len(calls) < 500, "search did not end"
            return (w - w_opt) ** 2

        use_objective(monkeypatch, objective)
        tol = oamlink.sweep.TOL_ULPS * math.ulp(0.06)
        res = optimize_w0(*LINK, bounds=(0.005, 0.06), tol=tol)
        assert not res.boundary and abs(res.w0_opt - w_opt) <= tol

    def test_result_validation(self):
        good = ((0.01, 2.0), (0.02, 1.0), (0.03, 3.0))
        OptimizeResult(
            w0_opt=0.02, ber_opt=1.0, bracket=good, boundary=False,
            evaluations=9,
        )
        with pytest.raises(ValueError):
            OptimizeResult(
                w0_opt=0.02, ber_opt=1.0,
                bracket=((0.03, 2.0), (0.02, 1.0), (0.01, 3.0)),
                boundary=False, evaluations=9,
            )
        with pytest.raises(ValueError):
            OptimizeResult(
                w0_opt=0.02, ber_opt=2.5,
                bracket=((0.01, 2.0), (0.02, 2.5), (0.03, 2.2)),
                boundary=False, evaluations=9,
            )


class TestWarningStatus:
    @staticmethod
    def warn(*texts):
        def fn():
            for text in texts:
                warnings.warn(text)
            return 7
        return fn

    def test_single_text_is_kept_byte_for_byte(self):
        text = "offset radius 0.5 m is below the 1 m validity floor"
        assert warning_status(self.warn(text)) == (7, f"warning: {text}")
        assert warning_status(self.warn(text, text)) == (7, f"warning: {text}")

    def test_texts_differing_in_numbers_fold_to_the_worst(self):
        moved = "moved the BER by {}%"
        fn = self.warn(moved.format("1.37"), "other", moved.format("12.10"),
                       moved.format("4.76"), moved.format("1.37"))
        assert warning_status(fn) == (
            7, "warning: moved the BER by 12.10% (worst of 4 warnings); other"
        )


class TestRankModeSets:
    CANDIDATES = (
        ModeSet(tx_modes=(-1, 1)),
        ModeSet(tx_modes=(-2, 1)),
        ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3))),
    )

    def test_ordering_and_permutation_stability(self):
        # average_ber's argument order, the candidates in the mode-set slot.
        forward = rank_mode_sets(GEOM, RX, self.CANDIDATES, SIGMA_THETA, Method.BESSEL_SUM, 48)
        backward = rank_mode_sets(GEOM, RX, tuple(reversed(self.CANDIDATES)), SIGMA_THETA,
                                  quad_order=48)
        assert [r.label for r in forward] == [r.label for r in backward]
        assert [r.ber for r in forward] == [r.ber for r in backward]
        assert [r.rank for r in forward] == [1, 2, 3]
        bers = [r.ber for r in forward]
        assert bers == sorted(bers)
        assert all(r.converged for r in forward)

    def test_duplicate_candidates_rejected(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("candidate averaged")

        monkeypatch.setattr(oamlink.sweep, "average_ber", refuse)
        with pytest.raises(ValueError, match=re.escape("distinct mode sets, at least one; got "
                                                       "['-2|1', '-1|1', '-2|1']")):
            rank_mode_sets(GEOM, RX, (A2, ModeSet(tx_modes=(-1, 1)), ModeSet(tx_modes=(-2, 1))),
                           SIGMA_THETA, quad_order=48)
        with pytest.raises(ValueError, match="got \\[\\]"):
            rank_mode_sets(GEOM, RX, (), SIGMA_THETA, quad_order=48)


class TestBench:
    def test_small_benchmark_structure(self):
        report = bench_methods(*LINK, 5.0, 10.0, 2, repetitions=3, mc_trials=1000, seed=77,
                               quad_order=48)
        assert set(report.method_times) == {
            "exact2d", "bessel-integral", "bessel-sum",
        }
        assert all(t > 0 for t in report.method_times.values())
        speedups = report.speedup_vs_exact
        assert set(speedups) == {"bessel-integral", "bessel-sum"}
        # The reduced forms beat the reference integral even on a tiny grid.
        assert all(s > 1 for s in speedups.values())
        assert report.mc_over_analytic == pytest.approx(
            report.mc_time / report.analytic_ber_time, rel=1e-12
        )

    def test_bench_guards(self, monkeypatch):
        # Each bad grid is refused, naming its argument, before any timing.
        def refuse(*args):
            raise AssertionError("evaluator timed")

        monkeypatch.setattr(oamlink.sweep, "crosstalk", refuse)
        common = dict(mc_trials=1000, seed=77, quad_order=48)
        for span, repetitions, refusal in [
            ((5.0, 10.0, 0), 3, "n_points must be an integer in [1, 1000], got 0"),
            ((5.0, 10.0, 1001), 3, "n_points must be an integer in [1, 1000], got 1001"),
            ((5.0, 10.0, 2.0), 3, "n_points must be an integer in [1, 1000], got 2.0"),
            ((5.0, 10.0, 2), 2, "repetitions must be an integer in [3, 20], got 2"),
            ((5.0, 10.0, 2), 21, "repetitions must be an integer in [3, 20], got 21"),
            ((5.0, 10.0, 2), 3.0, "repetitions must be an integer in [3, 20], got 3.0"),
            ((0.0, 10.0, 1), 3, "need 0 < r_min <= r_max < inf, got 0.0, 10.0"),
            ((6.0, 5.0, 1), 3, "need 0 < r_min <= r_max < inf, got 6.0, 5.0"),
            ((5.0, math.inf, 1), 3, "need 0 < r_min <= r_max < inf, got 5.0, inf"),
        ]:
            with pytest.raises(ValueError, match=re.escape(refusal)):
                bench_methods(*LINK, *span, repetitions=repetitions, **common)
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            bench_methods(*LINK, 5.0, 10.0, 2, repetitions=3, mc_trials=1000, seed=-1)

        # A one-radius span runs, and the reference exact2d, missing from
        # the list, is timed first.
        timed = []
        monkeypatch.setattr(oamlink.sweep, "crosstalk", lambda *args: timed.append(args[6]))
        report = bench_methods(*LINK, 5.0, 5.0, 1, repetitions=3, methods=["bessel-sum"],
                               **common)
        assert list(report.method_times) == ["exact2d", "bessel-sum"]
        assert timed == [Method.EXACT2D] * 3 + [Method.BESSEL_SUM] * 3

    def test_times_the_filter_major_pair_cycle(self, monkeypatch):
        class Timed(Exception):
            pass

        def stop(*args, **kwargs):
            raise Timed

        calls = []
        monkeypatch.setattr(oamlink.sweep, "crosstalk", lambda *args: calls.append(args))
        monkeypatch.setattr(oamlink.sweep, "simulate_ber", stop)
        modes = ModeSet(tx_modes=(-2, 1), filter_modes=(-2, 0, 1))
        with pytest.raises(Timed):
            bench_methods(GEOM, RX, modes, SIGMA_THETA, 2.0, 8.0, 7, repetitions=3,
                          methods=["exact2d"])
        pairs = [(-2, -2), (1, -2), (-2, 0), (1, 0), (-2, 1), (1, 1), (-2, -2)]
        one_pass = [(GEOM, RX, 2, n, j, float(r), "exact2d")
                    for (n, j), r in zip(pairs, range(2, 9))]
        assert [(*c[:6], c[6].value) for c in calls] == one_pass * 3

    @pytest.mark.parametrize("repetitions, mc_trials", [(5, 10**9), (20, 50_000_001)])
    def test_trial_budget_is_refused_before_any_timing(self, monkeypatch, repetitions,
                                                        mc_trials):
        def refuse(*args):
            raise AssertionError("evaluator timed")

        monkeypatch.setattr(oamlink.sweep, "crosstalk", refuse)
        with pytest.raises(ValueError, match="repetitions x mc_trials makes"):
            bench_methods(*LINK, 5.0, 10.0, 2, repetitions=repetitions, mc_trials=mc_trials)

    def test_bad_jitter_is_refused_before_any_timing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("evaluator timed")

        monkeypatch.setattr(oamlink.sweep, "crosstalk", refuse)
        with pytest.raises(ValueError, match="sigma_theta must be positive, got 0.0"):
            bench_methods(GEOM, RX, A2, 0.0, 5.0, 5.0, 1, repetitions=3)

    def test_report_validation(self):
        times = {"exact2d": 1.0, "bessel-sum": 0.1}
        report = BenchReport(method_times=times, mc_time=2.0, analytic_ber_time=0.5)
        assert report.speedup_vs_exact["bessel-sum"] == pytest.approx(10.0)
        assert report.mc_over_analytic == pytest.approx(4.0)
