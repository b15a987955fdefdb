"""Check that this tree writes the same bytes as another revision.

    python3 tools/compare.py --against REV

Extracts ``src/`` of REV with ``git archive`` into a temporary directory,
then runs one fixed job list through each tree's ``oamlink.cli.main``, in a
fresh interpreter per tree under the same pinned environment. Job by job it
compares the exit code, the stderr text and every file the job wrote: the
CSVs and the ``optimize`` text byte for byte, and the manifests line by
line except the lines that hold a measured time (``wall_time_s`` and the
bench timings). Every output path is relative, so the path a manifest
echoes is the same in both trees. Each difference is one line of output,
with the largest relative change of a number where the two texts differ
only in numbers; the last line counts the jobs. Exits 0 when every job
matches and 1 otherwise.

The job list is defined here, once:

- rounds 0-1 of seeds 0-1 of the four benchmark workloads, as
  ``benchmarks/workloads.py`` of this tree builds them;
- the six argument sets of acceptance criterion 12;
- ``NAMED``: runs at the edges of the input rules, grouped by exit code.

A warning goes to a job's stderr as ``Category: message``, without the
source line Python prints, so a warning raised from a moved line does not
read as a change. Standard output carries wall times and is not compared.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from run import pin_environment  # noqa: E402
from workloads import WORKLOADS, round_jobs  # noqa: E402

# Acceptance criterion 12's argument sets, on the shipped defaults.
CRITERION_12 = {
    "crosstalk-curve": ["crosstalk-curve", "--grid", "5,10"],
    "ber-curve": ["ber-curve", "--axis", "w0", "--grid", "0.02,0.025", "--candidates=-2|1",
                  "-s", "quad.order=48"],
    "monte-carlo": ["monte-carlo", "--trials", "20000"],
    "optimize": ["optimize", "--lo", "0.008", "--hi", "0.03", "--tol", "0.002",
                 "-s", "quad.order=48"],
    "rank-modes": ["rank-modes", "--candidates=-2|1;-1|1", "--method", "radial-sum",
                   "-s", "quad.order=48"],
    "bench": ["bench", "-s", "bench.grid_points=2", "-s", "bench.r_min_m=5",
              "-s", "bench.r_max_m=10", "-s", "bench.repetitions=3",
              "-s", "bench.mc_trials=1000"],
}

_WIDE = ["-s", "receiver.aperture_radius_m=1.5"]
_SMALL_BENCH = ["-s", "bench.grid_points=2", "-s", "bench.repetitions=3",
                "-s", "bench.mc_trials=1000"]

# Runs at the edges of the input rules, grouped by their exit code at this
# tree.
NAMED = {
    # Exit 0: asymptotic and exact2d evaluate no Bessel function, so they
    # are not held to the Bessel range.
    "asymptotic-curve-5e4": ["crosstalk-curve", "--grid", "5e4", "--method", "asymptotic"],
    "asymptotic-rank-wide": ["rank-modes", "--method", "asymptotic", *_WIDE],
    "asymptotic-mc-wide": ["monte-carlo", "--method", "asymptotic", "--trials", "20000", *_WIDE],
    "asymptotic-ber-wide": ["ber-curve", "--grid", "0.02", "--candidates=-2|1",
                            "--method", "asymptotic", *_WIDE],
    "asymptotic-bench-5e4": ["bench", "--method", "asymptotic", "-s", "bench.r_max_m=5e4",
                             *_SMALL_BENCH],
    "exact2d-curve-5e4": ["crosstalk-curve", "--grid", "5e4", "--method", "exact2d"],
    # Exit 0: two methods' simulations, a grouped set, the jitter axis.
    "ber-mc-two-methods": ["ber-curve", "--grid", "0.02", "--candidates=-2|1",
                           "--method", "bessel-sum,radial-sum", "--monte-carlo",
                           "--trials", "20000", "-s", "quad.order=48"],
    "mc-grouped-radial": ["monte-carlo", "--method", "radial-sum", "--trials", "20000",
                          "-s", "modes.tx=-4,-2,1,3", "-s", "modes.grouping=-4,-2|1,3"],
    "sigma-axis": ["ber-curve", "--axis", "sigma_theta", "--grid", "1e-5,3e-5",
                   "--candidates=-2|1"],
    # Exit 2: past the Bessel range with a method that has a Bessel kernel.
    "asymptotic-bessel-curve-5e4": ["crosstalk-curve", "--grid", "5e4",
                                    "--method", "asymptotic,bessel-sum"],
    "bessel-rank-wide": ["rank-modes", "--method", "bessel-integral", *_WIDE],
    "curve-1e5": ["crosstalk-curve", "--grid", "1e5"],
    "mc-jitter-1e-3": ["monte-carlo", "-s", "pointing.sigma_theta_rad=1e-3"],
    "bench-1e5": ["bench", "-s", "bench.r_max_m=1e5", *_SMALL_BENCH],
    "sigma-axis-1e-3": ["ber-curve", "--axis", "sigma_theta", "--grid", "1e-5,1e-3"],
    # Exit 2 with two faults: which one a run names depends on the order in
    # which the command reads its keys.
    "mc-exact2d-no-jitter": ["monte-carlo", "--method", "exact2d",
                             "-s", "pointing.sigma_theta_rad="],
    "rank-exact2d-wide": ["rank-modes", "--method", "exact2d", *_WIDE],
    "mc-exact2d-bad-modes": ["monte-carlo", "--method", "exact2d", "-s", "modes.tx=1,1"],
    "optimize-tol-1e-300": ["optimize", "--tol", "1e-300"],
    # Exit 3: too many draws below the approximation floor.
    "mc-degraded": ["monte-carlo", "--trials", "20000", "-s", "pointing.sigma_theta_rad=1e-6"],
    "ber-mc-degraded": ["ber-curve", "--grid", "0.02", "--candidates=-2|1", "--monte-carlo",
                        "--trials", "20000", "-s", "pointing.sigma_theta_rad=1e-6"],
}

# Manifest lines whose value is a measured time.
_TIMED = re.compile(r"manifest\.(wall_time_s|median_s\.\S+|speedup\.\S+|mc_median_s|"
                    r"analytic_median_s|mc_over_analytic) = ")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def job_list() -> list[tuple[str, list[str]]]:
    """(job id, argv without ``-o``) for every job, in run order."""
    jobs = [(f"{workload}-s{seed}-{job.job_id}", list(job.argv))
            for workload in WORKLOADS for seed in (0, 1) for index in (0, 1)
            for job in round_jobs(workload, seed, index)]
    jobs += [(f"criterion12-{name}", argv) for name, argv in CRITERION_12.items()]
    jobs += [(f"named-{name}", argv) for name, argv in NAMED.items()]
    return jobs


def run_tree(src: str, jobs_file: str, outdir: str) -> None:
    """Run every job of ``jobs_file`` through ``src``'s CLI in this
    interpreter, writing outputs and ``results.json`` into ``outdir``."""
    sys.path.insert(0, src)
    import oamlink
    from oamlink.cli import main

    if Path(oamlink.__file__).resolve().parent != Path(src, "oamlink").resolve():
        raise SystemExit(f"imported oamlink from {oamlink.__file__}, not {src}")
    jobs = json.loads(Path(jobs_file).read_text())
    os.chdir(outdir)
    results = {}
    for job_id, argv in jobs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # A fresh filter list per job: each job shows its own warnings.
            warnings.simplefilter("default")
            warnings.showwarning = lambda message, category, *_, **__: err.write(
                f"{category.__name__}: {message}\n")
            try:
                code = main([*argv, "-o", f"{job_id}.out"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an outcome to compare too
                code = f"traceback: {type(exc).__name__}: {exc}"
        results[job_id] = {"code": code, "stderr": err.getvalue()}
    Path("results.json").write_text(json.dumps(results))


def extract(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev`` under ``dest``, by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def number_change(old: str, new: str) -> str:
    """How two texts differ: the largest relative change of a number when
    they differ only in numbers, otherwise that their text differs."""
    old_nums, new_nums = _NUMBER.findall(old), _NUMBER.findall(new)
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new) or len(old_nums) != len(new_nums):
        return "text differs"
    worst = 0.0
    for a, b in zip(map(float, old_nums), map(float, new_nums)):
        if a != b:
            finite = math.isfinite(a) and math.isfinite(b)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)) if finite else math.inf)
    return f"largest relative change {worst:.3g}"


def _short(text: str) -> str:
    return repr(text if len(text) <= 160 else text[:157] + "...")


def differences(jobs, base: Path, change: Path) -> dict[str, list[str]]:
    """One line per differing exit code, stderr or output file, by job."""
    results = [json.loads((tree / "results.json").read_text()) for tree in (base, change)]
    found = {}
    for job_id, _ in jobs:
        old, new = results[0][job_id], results[1][job_id]
        lines = []
        if old["code"] != new["code"]:
            lines.append(f"exit {old['code']} -> {new['code']}")
        if old["stderr"] != new["stderr"]:
            lines.append(f"stderr {_short(old['stderr'])} -> {_short(new['stderr'])}")
        for suffix in (".out", ".out.manifest"):
            paths = [tree / f"{job_id}{suffix}" for tree in (base, change)]
            # Decoded without newline translation, so the bytes are compared.
            texts = [p.read_bytes().decode("utf-8") if p.is_file() else None for p in paths]
            if suffix.endswith("manifest"):
                texts = [t if t is None else "".join(
                    line for line in t.splitlines(True) if not _TIMED.match(line))
                    for t in texts]
            if texts[0] == texts[1]:
                continue
            if None in texts:
                lines.append(f"{suffix} written only by {'change' if texts[0] is None else 'base'}")
            else:
                lines.append(f"{suffix} {number_change(*texts)}")
        if lines:
            found[job_id] = lines
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--run-tree", nargs=3, metavar=("SRC", "JOBS", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_tree:
        run_tree(*args.run_tree)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    jobs = job_list()
    pin_environment()  # the benchmark's worker and BLAS thread counts, for both trees
    with tempfile.TemporaryDirectory(prefix="oamlink-compare-") as tmp:
        work = Path(tmp)
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps(jobs))
        trees = {"base": extract(args.against, work / "base"), "change": ROOT / "src"}
        seconds = {}
        for name, src in trees.items():
            outdir = work / f"{name}-out"
            outdir.mkdir()
            start = time.perf_counter()
            subprocess.run([sys.executable, __file__, "--run-tree", str(src), str(jobs_file),
                            str(outdir)], check=True)
            seconds[name] = time.perf_counter() - start
        found = differences(jobs, work / "base-out", work / "change-out")
    for job_id, lines in found.items():
        for line in lines:
            print(f"{job_id}: {line}")
    print(f"{len(jobs)} jobs, {len(jobs) - len(found)} identical, {len(found)} differ "
          f"(against {args.against}: {seconds['base']:.1f} s, this tree: "
          f"{seconds['change']:.1f} s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
