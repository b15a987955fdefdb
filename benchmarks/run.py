"""oamlink benchmark: seeded CLI workloads run in-process, outputs checked.

    python3 benchmarks/run.py --workload design-bessel --seed 1 --seconds 22 --trace 0

One process runs one workload. It repeats the workload's job list (a round
of CLI jobs with fresh seeded parameters, see ``workloads.py``) through
``oamlink.cli.main`` until ``--seconds`` have passed, finishing the round
in progress and running at least two, and checks every job's output
(``checks.py``). With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs each round twice, untraced and then traced
(``spans.py``), requires the two to write identical output bytes, and
reports the per-layer metrics.

End-to-end metrics (``--trace 0``), each for the workload's process:

- ``setup_s``: median, over 9 fresh interpreters, of the time from process
  start until ``oamlink.cli`` is imported and the default config is built;
- ``wall_norm_s``: median time of one round, the workload's job list;
- ``job_p50_norm_s`` and ``job_tail_norm_s``: median job latency, and the
  highest of p99, p95, p90 and p75 with at least ten jobs beyond it (the
  median when fewer than 40 jobs ran);
- ``work_per_norm_s``: median over rounds of the workload's unit of work
  delivered by correct jobs per second of job time: averaged-BER
  evaluations on the design workloads (ber-curve rows, rank-modes
  candidates, optimizer evaluations), simulated trials on mc-validate,
  crosstalk coefficients on reference-curves;
- ``peak_rss_mb``: peak resident memory of the process.

Every time above is a wall time normalised to a fixed host speed: the
seconds it would have taken on a host where a fixed calibration kernel
(``SpeedProbe``) takes ``PROBE_REF_S``. A shared host's speed drifts by
20-40% from one run to the next, more than any bound worth having, and a
run short enough to repeat does not average it out. So the probe, which
calls no oamlink code, is read after every job and every set-up, for
``PROBE_SHARE`` of its time. Each job is scaled by the median of the
``PROBE_WINDOW`` reads around it; set-up by the median of its own reads.
The probe does not depend on the program, so a change that slows the
program shows in full. The raw wall times are printed beside them.

The human-readable lines also give the three kinds of work per second
separately and the failed share of jobs; those are zero on some workloads,
so they are not metrics of their own (failures are the ``failed`` count).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same figures for a human reader, with the environment. A traced
run also writes every span to ``.bench_out/trace-<workload>-seed<n>.jsonl.gz``.

``--record`` runs a fixed number of rounds on the reference seed and
stores every deterministic output cell under ``reference/``; later runs on
that seed compare against it to 1e-9 relative.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 0
SETUP_REPEATS = 9
# A SpeedProbe time seen on the 2-core x86-64 host the benchmark was sized
# on; it sets only the scale of the normalised times.
PROBE_REF_S = 0.007
# Share of each job's (and each set-up's) wall time spent reading the probe
# right after it.
PROBE_SHARE = 0.05
# Reads whose median scales one job: the reads after about fifteen short
# jobs, or after one or two long ones.
PROBE_WINDOW = 15

sys.path.insert(0, str(BENCH_DIR))
from checks import (  # noqa: E402
    OutputError, analytic_cells, check_output, compact, compare_cells, read_csv, read_keyvalues,
)
from workloads import MC_TRIALS, WORKLOADS, Job, round_jobs  # noqa: E402


def pin_environment() -> dict[str, str]:
    """Keep the load at no more threads than cores; returns what was set.

    Must run before numpy is imported, which reads the BLAS variables.
    """
    nproc = len(os.sched_getaffinity(0))
    pinned = {"OAMLINK_WORKERS": str(min(2, nproc))}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        pinned[var] = "1"
    os.environ.update(pinned)
    return pinned


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(repeats: int, probe: "SpeedProbe") -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    ``oamlink.cli`` and built the default configuration, once per repeat,
    with a probe read after each."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from oamlink.cli import load_config; load_config(None, [], {}); "
        "print('ready', flush=True)"
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not get ready")
        times.append(elapsed)
        probe.read_for(elapsed)
    return times


class SpeedProbe:
    """A fixed kernel that calls no oamlink code, timed to read the host's
    current speed: a pure-Python loop and a few numpy array operations, the
    two kinds of work the workloads mix. It writes into buffers it owns, so
    no read pays for fresh pages. Every read is kept in ``reads``."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.random(1 << 14)
        self._b = np.empty_like(self._a)
        self.reads: list[float] = []
        self()
        self.reads.clear()

    def __call__(self) -> float:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        x = 0
        for k in range(50_000):
            x += k * k
        for _ in range(8):
            np.sin(a, out=b)
            b.sort()
            np.multiply(a, a, out=b)
            np.exp(b, out=b)
        seconds = time.perf_counter() - start
        self.reads.append(seconds)
        return seconds

    def read_for(self, seconds: float) -> int:
        """Read once, and again until the reads take ``PROBE_SHARE`` of
        ``seconds``, so a long job is followed by as many reads as its
        length warrants; returns the index of the first of these reads."""
        first = len(self.reads)
        spent = self()
        while spent < PROBE_SHARE * seconds:
            spent += self()
        return first

    def factor(self, at: Optional[int] = None) -> float:
        """Scale from this host's wall seconds to the reference host's: from
        the median of all reads, or of the ``PROBE_WINDOW`` reads centred on
        read ``at``, so a job is scaled by the host's speed around it."""
        reads = self.reads
        if at is not None:
            lo = min(max(0, at - PROBE_WINDOW // 2), max(0, len(reads) - PROBE_WINDOW))
            reads = reads[lo:lo + PROBE_WINDOW]
        return PROBE_REF_S / statistics.median(reads)


@dataclass
class JobResult:
    job: Job
    seconds: float
    problem: Optional[str]
    work: dict[str, int] = field(default_factory=dict)
    probe_read: int = 0


def job_work(job: Job, path: str) -> dict[str, int]:
    """Units of work a correct job delivered, counted from its output."""
    if job.kind == "optimize":
        return {"avg_ber": int(read_keyvalues(path)["optimize.evaluations"])}
    rows = len(read_csv(path))
    if job.kind == "crosstalk-curve":
        return {"coefficients": rows}
    if job.kind == "ber-curve-mc":
        return {"avg_ber": rows, "mc_trials": rows * MC_TRIALS}
    return {"avg_ber": rows}


def run_job(job: Job, outdir: Path, call: Callable, reference: dict) -> JobResult:
    path = outdir / f"{job.job_id}.out"
    argv = [*job.argv, "-o", str(path)]
    chatter = io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            code = call(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        problem = "traceback: " + traceback.format_exc(limit=3).strip().replace("\n", " | ")
    seconds = time.perf_counter() - start
    if problem is None and code != 0:
        problem = f"exit {code}: {chatter.getvalue().strip()[-300:]}"
    work = {}
    if problem is None:
        try:
            check_output(job, str(path))
            if job.job_id in reference:
                compare_cells(reference[job.job_id], analytic_cells(job, str(path)))
            work = job_work(job, str(path))
        except OutputError as exc:
            problem = str(exc)
    return JobResult(job, seconds, problem, work)


def load_reference(workload: str, seed: int) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if seed != REFERENCE_SEED or not path.is_file():
        return {}
    recorded = json.loads(path.read_text())
    if recorded["seed"] != REFERENCE_SEED:
        raise SystemExit(f"{path} was recorded on seed {recorded['seed']}")
    for job_id, entry in recorded["jobs"].items():
        index = int(job_id[1:].split("-")[0])
        job = {j.job_id: j for j in round_jobs(workload, seed, index)}[job_id]
        if list(job.argv) != entry["argv"]:
            raise SystemExit(f"{path}: job {job_id} no longer matches the generator")
    return {job_id: entry["cells"] for job_id, entry in recorded["jobs"].items()}


def clean(outdir: Path) -> None:
    for item in outdir.iterdir():
        item.unlink()


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest of p99, p95, p90, p75 with at least ten jobs beyond it,
    and its label; the median when no such percentile exists."""
    n = len(latencies)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return statistics.quantiles(latencies, n=100)[p - 1], f"p{p}"
    return statistics.median(latencies), "p50 (under 40 jobs)"


def time_is_up(begin: float, seconds: float, round_walls: list[float]) -> bool:
    """True once another round would more likely end past ``seconds`` than
    before it, so a run's length stays within half a round of ``seconds``."""
    return time.perf_counter() - begin + statistics.median(round_walls) / 2 >= seconds


def run_untraced(workload: str, seed: int, seconds: float, outdir: Path, reference: dict,
                 probe: SpeedProbe) -> list[JobResult]:
    from oamlink import cli

    results: list[JobResult] = []
    round_walls = []
    begin = time.perf_counter()
    index = 0
    while True:
        start = time.perf_counter()
        for job in round_jobs(workload, seed, index):
            result = run_job(job, outdir, cli.main, reference)
            result.probe_read = probe.read_for(result.seconds)
            results.append(result)
        round_walls.append(time.perf_counter() - start)
        clean(outdir)
        index += 1
        if index >= 2 and time_is_up(begin, seconds, round_walls):
            break
    return results


def end_to_end(workload: str, results: list[JobResult], setup: list[float],
               setup_probe: SpeedProbe, probe: SpeedProbe) -> tuple[dict, list[str]]:
    unit_of_work = {"mc-validate": "mc_trials", "reference-curves": "coefficients"}.get(
        workload, "avg_ber")

    def summary(seconds: list[float]) -> dict:
        walls: dict[str, float] = {}
        done: dict[str, int] = {}
        for r, s in zip(results, seconds):
            key = r.job.job_id.split("-")[0]
            walls[key] = walls.get(key, 0.0) + s
            done[key] = done.get(key, 0) + r.work.get(unit_of_work, 0)
        tail_value, tail_label = tail(seconds)
        return {"wall": statistics.median(walls.values()), "rounds": len(walls),
                "p50": statistics.median(seconds), "tail": tail_value,
                "tail_label": tail_label, "busy": sum(seconds),
                "rate": statistics.median(done[key] / walls[key] for key in walls)}

    raw = summary([r.seconds for r in results])
    norm = summary([r.seconds * probe.factor(r.probe_read) for r in results])
    raw_setup = statistics.median(setup)
    work = {key: sum(r.work.get(key, 0) for r in results)
            for key in ("avg_ber", "mc_trials", "coefficients")}
    failed = sum(1 for r in results if r.problem)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(results)
    metrics = {
        "setup_s": (raw_setup * setup_probe.factor(), "s"),
        "wall_norm_s": (norm["wall"], "s"),
        "job_p50_norm_s": (norm["p50"], "s"),
        "job_tail_norm_s": (norm["tail"], "s"),
        "work_per_norm_s": (norm["rate"], "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    q = statistics.quantiles(probe.reads, n=4)
    setup_ms = statistics.median(setup_probe.reads) * 1e3
    lines = [
        f"setup_s          {metrics['setup_s'][0]:.4f} s   median of {len(setup)} fresh interpreters (raw {raw_setup:.4f} s)",
        f"wall_norm_s      {norm['wall']:.4f} s   median of {norm['rounds']} rounds of {n // norm['rounds']} jobs (raw {raw['wall']:.4f} s)",
        f"job_p50_norm_s   {norm['p50']:.4f} s   n={n} (raw {raw['p50']:.4f} s)",
        f"job_tail_norm_s  {norm['tail']:.4f} s   {norm['tail_label']}, n={n} (raw {raw['tail']:.4f} s)",
        f"work_per_norm_s  {metrics['work_per_norm_s'][0]:.6g} 1/s  ({unit_of_work} per second, median of rounds, raw {raw['rate']:.6g})",
        f"avg_ber_per_s    {work['avg_ber'] / norm['busy']:.6g} 1/s  ({work['avg_ber']} averaged-BER evaluations)",
        f"mc_trials_per_s  {work['mc_trials'] / norm['busy']:.6g} 1/s  ({work['mc_trials']} trials)",
        f"coeff_per_s      {work['coefficients'] / norm['busy']:.6g} 1/s  ({work['coefficients']} coefficients)",
        f"fail_ratio       {failed / n:.4f}     {failed}/{n} jobs",
        f"peak_rss_mb      {peak:.1f} MB",
        f"probe            {q[1] * 1e3:.3f} ms median, {q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms quartiles "
        f"over {len(probe.reads)} reads (reference {PROBE_REF_S * 1e3:.1f} ms, scale {probe.factor():.4f}); "
        f"{setup_ms:.3f} ms median over {len(setup_probe.reads)} reads during set-up",
    ]
    return metrics, lines


def run_traced(workload: str, seed: int, seconds: float, outdir: Path, reference: dict):
    """Each round untraced, then traced; both must write the same bytes."""
    from oamlink import cli
    from spans import Tracer, attribute_workers, layer_metrics

    tracer = Tracer()

    def traced_main(argv: list[str]) -> int:
        return tracer.span("cli.main", cli.main, argv)

    plain_dir, traced_dir = outdir / "plain", outdir / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    results: list[JobResult] = []
    plain_wall = traced_wall = 0.0
    pair_walls: list[float] = []
    rounds = 0
    begin = time.perf_counter()
    while True:
        jobs = round_jobs(workload, seed, rounds)
        start = time.perf_counter()
        plain = [run_job(job, plain_dir, cli.main, reference) for job in jobs]
        middle = time.perf_counter()
        traced = []
        with tracer.installed():
            for job in jobs:
                tracer.job = job.job_id
                traced.append(run_job(job, traced_dir, traced_main, reference))
        end = time.perf_counter()
        plain_wall += middle - start
        traced_wall += end - middle
        pair_walls.append(end - start)
        for p, t in zip(plain, traced):
            problem = p.problem or t.problem
            if problem is None:
                name = f"{p.job.job_id}.out"
                if (plain_dir / name).read_bytes() != (traced_dir / name).read_bytes():
                    problem = "traced run wrote different output bytes"
            results.append(JobResult(t.job, t.seconds, problem, t.work))
        clean(plain_dir)
        clean(traced_dir)
        rounds += 1
        if time_is_up(begin, seconds, pair_walls):
            break
    attribute_workers(tracer.spans, threading.get_ident())
    metrics, busy = layer_metrics(tracer.spans, rounds)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    return results, tracer.spans, metrics, busy, rounds


def write_trace(path: Path, header: dict, spans) -> None:
    """The run's facts, then one JSON array per span, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps([s.span_id, s.name, s.start, s.end, s.parent, s.job, s.thread, s.attrs]) + "\n")


def record(workload: str, rounds: int, outdir: Path) -> None:
    from oamlink import cli

    jobs = {}
    for index in range(rounds):
        for job in round_jobs(workload, REFERENCE_SEED, index):
            result = run_job(job, outdir, cli.main, {})
            if result.problem:
                raise SystemExit(f"{job.job_id}: {result.problem}")
            jobs[job.job_id] = {
                "argv": list(job.argv),
                "cells": compact(analytic_cells(job, str(outdir / f"{job.job_id}.out"))),
            }
        clean(outdir)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": REFERENCE_SEED, "jobs": jobs}, separators=(",", ":")) + "\n")
    print(f"recorded {len(jobs)} jobs of {workload} -> {path}")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_rel", "_fraction", "_change", ".coverage", "_ratio")):
        return "ratio"
    return "count"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, metavar="ROUNDS",
                        help="record reference cells of ROUNDS rounds on the reference seed")
    args = parser.parse_args(argv)

    if not (SRC / "oamlink" / "cli.py").is_file():
        print(f"benchmark: no oamlink sources under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import oamlink

    if Path(oamlink.__file__).resolve().parent != SRC / "oamlink":
        print(f"benchmark: imported oamlink from {oamlink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(), **pinned,
    }
    out_root = ROOT / ".bench_out"
    outdir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        if args.record:
            record(args.workload, args.record, outdir)
            return 0
        reference = load_reference(args.workload, args.seed)
        print("env " + json.dumps(env))
        if args.trace:
            results, spans, metrics, busy, rounds = run_traced(
                args.workload, args.seed, args.seconds, outdir, reference)
            write_trace(out_root / f"trace-{args.workload}-seed{args.seed}.jsonl.gz", env, spans)
            print(f"traced {rounds} rounds, {len(spans)} spans")
            for name, value in sorted(busy.items()):
                print(f"  {name:52s} {value:.6f} s/round")
            report = {name: (value, unit_of(name)) for name, value in metrics.items()}
        else:
            setup_probe, probe = SpeedProbe(), SpeedProbe()
            setup = measure_setup(SETUP_REPEATS, setup_probe)
            results = run_untraced(
                args.workload, args.seed, args.seconds, outdir, reference, probe)
            report, lines = end_to_end(args.workload, results, setup, setup_probe, probe)
            print("\n".join(lines))
    finally:
        shutil.rmtree(outdir)
        with contextlib.suppress(OSError):
            out_root.rmdir()
    failures = [r for r in results if r.problem]
    for r in failures[:10]:
        print(f"FAILED {r.job.job_id} {r.job.kind}: {r.problem}")
    if reference:
        checked = sum(1 for r in results if r.job.job_id in reference)
        print(f"reference: {checked} of {len(results)} jobs compared with the recording")
    if args.trace:
        for name, value in sorted(report.items()):
            print(f"  {name:52s} {value[0]:.6g} {value[1]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
