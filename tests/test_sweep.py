"""Sweep scenarios, waist optimizer, mode-set ranking and method benchmarks.

The optimizer is checked against closed-form objectives with known minima
and the ranking for permutation stability. Benchmark checks stick to
structure and internal consistency; absolute timing thresholds belong to
the acceptance suite.
"""

import math

import pytest

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.crosstalk import Method, ReceiverConfig
from oamlink.sweep import (
    PRE_GRID_POINTS,
    BenchReport,
    OptimizeResult,
    Scenario,
    SweepAxis,
    bench_methods,
    mode_set_label,
    optimize_w0,
    rank_mode_sets,
)


def default_scenario(**overrides):
    geom = LinkGeometry(
        wavelength=1.55e-6, waist=0.025, radial_index=0, distance=1.0e6
    )
    rx = ReceiverConfig(aperture_radius=0.05, noise_level=6.35e-16, k_r=6)
    kwargs = dict(
        geom=geom,
        rx=rx,
        modes=ModeSet(tx_modes=(-2, 1)),
        sigma_theta=3.0e-5,
        quad_order=48,
        seed=77,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestAxisAndScenario:
    def test_axis_parse(self):
        assert SweepAxis.parse(" W0 ") is SweepAxis.W0
        assert SweepAxis.parse("sigma_theta") is SweepAxis.SIGMA_THETA
        assert SweepAxis.parse(SweepAxis.Z) is SweepAxis.Z
        with pytest.raises(ValueError):
            SweepAxis.parse("waist")
        # A fixed offset is not an axis of the jitter-averaged scenario.
        with pytest.raises(ValueError):
            SweepAxis.parse("r_ch")

    def test_with_axis(self):
        scen = default_scenario()
        assert scen.with_axis("w0", 0.015).geom.waist == 0.015
        assert scen.with_axis("Z", 5.0e5).geom.distance == 5.0e5
        assert scen.with_axis("sigma_theta", 2.0e-5).sigma_theta == 2.0e-5
        # The original is untouched.
        assert scen.geom.waist == 0.025

    def test_pointing_stats_follow_distance(self):
        scen = default_scenario()
        moved = scen.with_axis("Z", 5.0e5)
        assert moved.pointing_stats().rayleigh_scale == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_scenario(sigma_theta=0.0)
        with pytest.raises(ValueError):
            default_scenario().with_axis("w0", math.nan)


class TestModeSetLabel:
    def test_labels(self):
        assert mode_set_label(ModeSet(tx_modes=(-2, 1))) == "-2|1"
        grouped = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        assert mode_set_label(grouped) == "-4,-2|1,3"
        assert mode_set_label(ModeSet(tx_modes=(0,))) == "0"


class TestOptimizeW0:
    def test_recovers_quadratic_minimum(self):
        calls = []

        def objective(w):
            calls.append(w)
            return (w - 0.02) ** 2 + 0.3

        res = optimize_w0(
            default_scenario(), bounds=(0.005, 0.06), tol=1e-4, objective=objective
        )
        assert not res.boundary
        assert res.w0_opt == pytest.approx(0.02, abs=1e-4)
        assert res.ber_opt == pytest.approx(0.3, abs=1e-8)
        # Memoization: every reported evaluation was a distinct abscissa.
        assert res.evaluations == len(set(calls)) == len(calls)
        xs = [p[0] for p in res.bracket]
        ys = [p[1] for p in res.bracket]
        assert xs[0] < res.w0_opt <= xs[2]
        assert ys[1] <= ys[0] and ys[1] <= ys[2]

    def test_boundary_minimum_is_flagged(self):
        res = optimize_w0(
            default_scenario(),
            bounds=(0.01, 0.02),
            tol=1e-4,
            objective=lambda w: w,
        )
        assert res.boundary
        assert res.w0_opt == 0.01
        assert res.evaluations == PRE_GRID_POINTS
        xs = [p[0] for p in res.bracket]
        assert xs == sorted(xs)
        assert xs[0] == 0.01

    def test_real_objective_interior_optimum(self):
        scen = default_scenario()
        res = optimize_w0(scen, bounds=(0.008, 0.03), tol=2e-3)
        assert not res.boundary
        assert 0.009 < res.w0_opt < 0.016
        assert res.ber_opt < 5e-3
        assert res.method is Method.BESSEL_SUM

    def test_validation(self):
        scen = default_scenario()
        with pytest.raises(ValueError):
            optimize_w0(scen, bounds=(0.03, 0.01), tol=1e-4)
        with pytest.raises(ValueError):
            optimize_w0(scen, bounds=(0.01, 0.03), tol=0.5)
        with pytest.raises(ValueError):
            optimize_w0(scen, bounds=(-0.01, 0.03), tol=1e-4)
        with pytest.raises(ValueError):
            optimize_w0(
                scen, bounds=(0.01, 0.03), tol=1e-4, objective=lambda w: math.nan
            )

    def test_result_validation(self):
        good = ((0.01, 2.0), (0.02, 1.0), (0.03, 3.0))
        OptimizeResult(
            w0_opt=0.02, ber_opt=1.0, bracket=good, boundary=False,
            evaluations=9, method=Method.RADIAL_SUM, tol=1e-4,
        )
        with pytest.raises(ValueError):
            OptimizeResult(
                w0_opt=0.02, ber_opt=1.0,
                bracket=((0.03, 2.0), (0.02, 1.0), (0.01, 3.0)),
                boundary=False, evaluations=9, method=Method.RADIAL_SUM, tol=1e-4,
            )
        with pytest.raises(ValueError):
            OptimizeResult(
                w0_opt=0.02, ber_opt=2.5,
                bracket=((0.01, 2.0), (0.02, 2.5), (0.03, 2.2)),
                boundary=False, evaluations=9, method=Method.RADIAL_SUM, tol=1e-4,
            )


class TestRankModeSets:
    CANDIDATES = (
        ModeSet(tx_modes=(-1, 1)),
        ModeSet(tx_modes=(-2, 1)),
        ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3))),
    )

    def test_ordering_and_permutation_stability(self):
        scen = default_scenario()
        forward = rank_mode_sets(self.CANDIDATES, scen)
        backward = rank_mode_sets(tuple(reversed(self.CANDIDATES)), scen)
        assert [r.label for r in forward] == [r.label for r in backward]
        assert [r.ber for r in forward] == [r.ber for r in backward]
        assert [r.rank for r in forward] == [1, 2, 3]
        bers = [r.ber for r in forward]
        assert bers == sorted(bers)
        assert all(r.converged for r in forward)

    def test_duplicate_candidates_rejected(self):
        scen = default_scenario()
        with pytest.raises(ValueError):
            rank_mode_sets(
                (ModeSet(tx_modes=(-2, 1)), ModeSet(tx_modes=(-2, 1))), scen
            )
        with pytest.raises(ValueError):
            rank_mode_sets((), scen)


class TestBench:
    def test_small_benchmark_structure(self):
        scen = default_scenario()
        grid = [(5.0, (-2, 1)), (10.0, (0, 0))]
        report = bench_methods(scen, grid, repetitions=3, mc_trials=1000)
        assert report.grid_size == 2
        assert report.repetitions == 3
        assert report.mc_trials == 1000
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

    def test_bench_guards(self):
        scen = default_scenario()
        grid = [(5.0, (-2, 1))]
        with pytest.raises(ValueError):
            bench_methods(scen, [], repetitions=3, mc_trials=1000)
        with pytest.raises(ValueError):
            bench_methods(scen, [(0.0, (0, 0))], repetitions=3, mc_trials=1000)
        with pytest.raises(ValueError):
            bench_methods(scen, grid, repetitions=2, mc_trials=1000)
        with pytest.raises(ValueError):
            bench_methods(
                scen, grid, repetitions=3,
                methods=["bessel-sum"], mc_trials=1000,
            )

    def test_report_validation(self):
        times = {"exact2d": 1.0, "bessel-sum": 0.1}
        report = BenchReport(
            method_times=times, mc_time=2.0, analytic_ber_time=0.5,
            repetitions=3, grid_size=10, mc_trials=1000,
        )
        assert report.speedup_vs_exact["bessel-sum"] == pytest.approx(10.0)
        assert report.mc_over_analytic == pytest.approx(4.0)
        with pytest.raises(ValueError):
            BenchReport(
                method_times={"bessel-sum": 0.1}, mc_time=2.0,
                analytic_ber_time=0.5, repetitions=3, grid_size=10, mc_trials=1000,
            )
        with pytest.raises(ValueError):
            BenchReport(
                method_times=times, mc_time=0.0, analytic_ber_time=0.5,
                repetitions=3, grid_size=10, mc_trials=1000,
            )
        with pytest.raises(ValueError):
            BenchReport(
                method_times=times, mc_time=2.0, analytic_ber_time=0.5,
                repetitions=2, grid_size=10, mc_trials=1000,
            )
        with pytest.raises(ValueError):
            BenchReport(
                method_times=times, mc_time=2.0, analytic_ber_time=0.5,
                repetitions=3, grid_size=0, mc_trials=1000,
            )
