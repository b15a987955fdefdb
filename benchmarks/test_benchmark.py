"""Tests for the benchmark's own code: generator, checker and tracer.

    python3 -m pytest benchmarks
"""

import math
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from checks import OutputError, analytic_cells, check_output, compare_cells, read_csv  # noqa: E402
from workloads import WORKLOADS, Job, round_jobs  # noqa: E402

from oamlink import cli  # noqa: E402


def test_same_seed_gives_same_job_lists():
    for workload in WORKLOADS:
        for index in (0, 3):
            assert round_jobs(workload, 7, index) == round_jobs(workload, 7, index)


def test_seed_draws_parameters_not_the_job_mix():
    for workload in WORKLOADS:
        a, b = round_jobs(workload, 1, 0), round_jobs(workload, 2, 0)
        assert [j.kind for j in a] == [j.kind for j in b]
        assert [j.argv[0] for j in a] == [j.argv[0] for j in b]
        assert a != b


def _write_mc_curve(path: Path, ber_avg: float, ber_mc: float, ci95: float) -> None:
    path.write_text(
        "# oamlink/ber-curve v1\r\n"
        "axis_value,mode_set_id,method,ber_avg_raw,ber_avg_clamped,ber_mc,ci95,status\r\n"
        f"0.015,-2|1,bessel-sum,{ber_avg!r},{min(ber_avg, 0.5)!r},{ber_mc!r},{ci95!r},ok\r\n"
    )


def test_checker_fails_monte_carlo_outside_three_ci95(tmp_path):
    job = round_jobs("mc-validate", 0, 0)[0]
    out = tmp_path / "mc.csv"
    _write_mc_curve(out, 2.0e-3, 2.0e-3 + 2.9 * 1e-4, 1e-4)
    check_output(job, str(out))
    _write_mc_curve(out, 2.0e-3, 2.0e-3 + 3.1 * 1e-4, 1e-4)
    with pytest.raises(OutputError, match="3 x CI95"):
        check_output(job, str(out))


def test_checker_fails_reference_ber_moved_by_1e_6(tmp_path):
    reference = run.load_reference("design-bessel", run.REFERENCE_SEED)
    job = round_jobs("design-bessel", run.REFERENCE_SEED, 0)[0]
    assert job.kind == "ber-curve" and job.job_id in reference
    result = run.run_job(job, tmp_path, cli.main, reference)
    assert result.problem is None

    out = tmp_path / f"{job.job_id}.out"
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[2].split(",")
    col = header.index("ber_avg_raw")
    moved = float(cells[col]) * (1.0 + 1e-6)
    cells[col] = repr(moved)
    cells[header.index("ber_avg_clamped")] = repr(min(moved, 0.5))
    lines[2] = ",".join(cells)
    out.write_text("\r\n".join(lines))
    check_output(job, str(out))
    with pytest.raises(OutputError, match="ber_avg_raw"):
        compare_cells(reference[job.job_id], analytic_cells(job, str(out)))


def test_checker_fails_reduced_method_off_reference(tmp_path):
    job = round_jobs("reference-curves", 0, 0)[1]
    assert "modes.tx=0,2,4" in job.argv
    assert run.run_job(job, tmp_path, cli.main, {}).problem is None
    out = tmp_path / f"{job.job_id}.out"
    rows = read_csv(str(out))
    text = out.read_text()
    row = next(r for r in rows if r["method"] == "radial-sum")
    bumped = repr(float(row["C_watts"]) * 1.06)
    out.write_text(text.replace(row["C_watts"], bumped, 1))
    with pytest.raises(OutputError, match="criterion 02"):
        check_output(job, str(out))


def test_failed_exit_and_traceback_are_failures(tmp_path):
    job = Job("x-0", "ber-curve", ("ber-curve", "--axis", "r_ch", "--grid", "1,2"))
    assert run.run_job(job, tmp_path, cli.main, {}).problem.startswith("exit 2")

    def boom(argv):
        raise RuntimeError("boom")

    assert run.run_job(job, tmp_path, boom, {}).problem.startswith("traceback")


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path):
    from spans import Tracer, attribute_workers, layer_metrics

    jobs = [
        round_jobs("design-bessel", 3, 0)[0],
        round_jobs("design-bessel", 3, 0)[2],
        round_jobs("design-radial", 3, 0)[1],
        round_jobs("mc-validate", 3, 0)[2],
        round_jobs("reference-curves", 3, 0)[0],
    ]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    tracer = Tracer()
    originals = {name: getattr(cli, name) for name in ("average_ber", "write_csv", "main")}
    for job in jobs:
        assert run.run_job(job, plain, cli.main, {}).problem is None
        with tracer.installed():
            tracer.job = job.job_id
            call = lambda argv: tracer.span("cli.main", cli.main, argv)
            assert run.run_job(job, traced, call, {}).problem is None
        name = f"{job.job_id}.out"
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), job.job_id
    assert {name: getattr(cli, name) for name in originals} == originals

    attribute_workers(tracer.spans, threading.get_ident())
    metrics, _ = layer_metrics(tracer.spans, rounds=1)
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["ber.average_ber.calls"] > 0
    assert metrics["montecarlo.simulate_ber.trials"] == 1 << 18
    assert metrics["beam.lg_field.points"] > 0
    assert metrics["crosstalk.crosstalk_exact_detailed.calls"] > 0
    # Every worker-thread span found its Monte Carlo parent.
    main = threading.get_ident()
    assert all(s.parent is not None for s in tracer.spans if s.thread != main)


def test_tail_needs_ten_jobs_beyond_it():
    latencies = [float(i) for i in range(1, 201)]
    value, label = run.tail(latencies)
    assert label == "p95" and math.isclose(value, 190.95)
    assert run.tail(latencies[:39])[1].startswith("p50")


def test_probe_scales_a_job_by_the_reads_around_it():
    probe = run.SpeedProbe()
    # a host twice as slow for the middle fifth of the run
    probe.reads = [run.PROBE_REF_S] * 40 + [2 * run.PROBE_REF_S] * 20 + [run.PROBE_REF_S] * 40
    assert probe.factor() == 1.0
    assert probe.factor(50) == 0.5
    assert probe.factor(0) == 1.0 and probe.factor(99) == 1.0
