"""Seeded job lists for the four benchmark workloads.

A workload is a closed loop with one client: the next CLI job starts when
the previous one returns. Its job list (one *round*) has a fixed length and
a fixed mix of job kinds; the seed draws only parameter values, so every
seed does the same kind and amount of work. A run repeats rounds, each with
fresh draws from ``(workload, seed, round)``, until its time is up.

Every job pins the keys it depends on explicitly, so a change of a CLI
default does not silently change the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_CANDIDATES = ("-2|2", "-2|1", "-1|1", "-4,-2|1,3")
SIGMAS = (1e-5, 2e-5, 3e-5)
ALL_METHODS = "exact2d,radial-sum,bessel-integral,bessel-sum,asymptotic"
# asymptotic is undefined at r = 0 (the CLI exits 3), so zero-offset jobs
# run the other four methods.
ZERO_OFFSET_METHODS = "exact2d,radial-sum,bessel-integral,bessel-sum"
MC_TRIALS = 1 << 18
MC_MODE_SETS = ("-2|1", "-4,-2|1,3", "-2|2")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` goes to ``oamlink.cli.main`` after the
    runner appends ``-o PATH`` in a directory it owns."""

    job_id: str
    kind: str
    argv: tuple[str, ...]


def _num(x: float) -> str:
    return format(x, ".6g")


def _sorted_draws(rng: random.Random, n: int, lo: float, hi: float) -> list[str]:
    """n strictly increasing values in [lo, hi], one drawn uniformly in each
    of n equal sub-intervals, as CLI text. Stratifying keeps the mix of
    small and large values, and with it the cost of a job, the same for
    every seed."""
    width = (hi - lo) / n
    while True:
        values = [_num(lo + (i + rng.random()) * width) for i in range(n)]
        if all(float(a) < float(b) for a, b in zip(values, values[1:])):
            return values


def _link(sigma: float, distance: float, method: str, quad_order: int) -> list[str]:
    return [
        "--method", method,
        "-s", f"quad.order={quad_order}",
        "-s", f"pointing.sigma_theta_rad={_num(sigma)}",
        "-s", f"geometry.distance_m={_num(distance)}",
        "-s", "geometry.w0_m=0.025",
        "-s", "receiver.k_r=6",
    ]


def design_bessel(rng: random.Random, prefix: str) -> list[Job]:
    """Why: the CLI's default path. Thousands of small calls (about 200 radii
    per channel_profile batch), so per-call overhead, the degeneracy-window
    bisection through mode_envelope and small-array Bessel evaluation
    dominate. It never calls beam.lg_field.

    Per jitter level in {10, 20, 30} urad: one ber-curve (5 waists x the 4
    default candidates), one optimize and one rank-modes, each at its own
    distance drawn from [500, 1500] km. Nine jobs, 57 averages plus the
    optimizer's evaluations.
    """
    jobs = []
    candidates = ";".join(DEFAULT_CANDIDATES)
    for sigma in SIGMAS:
        def link() -> list[str]:
            return _link(sigma, rng.uniform(5e5, 1.5e6), "bessel-sum", 64)

        waists = ",".join(_sorted_draws(rng, 5, 0.01, 0.05))
        jobs.append(("ber-curve", ["ber-curve", *link(), "--axis", "w0",
                                   "--grid", waists, f"--candidates={candidates}"]))
        jobs.append(("optimize", ["optimize", *link(), "-s", "modes.tx=-2,1",
                                  "--lo", "0.005", "--hi", "0.06", "--tol", "0.0005"]))
        jobs.append(("rank-modes", ["rank-modes", *link(), f"--candidates={candidates}"]))
    return [Job(f"{prefix}-{i}", kind, tuple(argv)) for i, (kind, argv) in enumerate(jobs)]


def design_radial(rng: random.Random, prefix: str) -> list[Job]:
    """Why: the same job kinds on the radial-sum method at q = 96 (the
    acceptance settings of criteria 07-09). beam.lg_field plus the FFT is
    about 85% of a radial-sum average and numerics.bessel_j is never called,
    so a Bessel change must read unchanged here while a radial-sum change
    shows here.

    Four jobs of one or two averages each, plus one optimize of about 17
    evaluations; a round takes about 13 s on two cores, and a run holds
    at least two. The candidate sets per job are fixed; the seed draws the
    jitter level from {10, 20, 30} urad, the distance from [500, 1500] km
    and the waists from [0.012, 0.04] m. Only the asymmetric -2|1 and grouped
    -4,-2|1,3 sets are used: on radial-sum at q = 96 the symmetric sets sit
    near the 1% quadrature self-check limit in this range (-1|1 at 10 urad,
    580 km and w0 = 0.0385 m reads 1.24%, and the CLI exits 3).
    """
    def link() -> list[str]:
        return _link(rng.choice(SIGMAS), rng.uniform(5e5, 1.5e6), "radial-sum", 96)

    def curve(n_waists: int, candidates: str) -> list[str]:
        waists = ",".join(_sorted_draws(rng, n_waists, 0.012, 0.04))
        return ["ber-curve", *link(), "--axis", "w0", "--grid", waists,
                f"--candidates={candidates}"]

    grouped = "-4,-2|1,3"
    jobs = [
        ("optimize", ["optimize", *link(), "-s", "modes.tx=-2,1",
                      "--lo", "0.005", "--hi", "0.06", "--tol", "0.0005"]),
        ("ber-curve", curve(1, "-2|1")),
        ("ber-curve", curve(1, "-2|1")),
        ("ber-curve", curve(1, grouped)),
        ("rank-modes", ["rank-modes", *link(), f"--candidates=-2|1;{grouped}"]),
    ]
    return [Job(f"{prefix}-{i}", kind, tuple(argv)) for i, (kind, argv) in enumerate(jobs)]


def mc_validate(rng: random.Random, prefix: str) -> list[Job]:
    """Why: the same channel_profile -> bessel_j path as design-bessel, but as
    a few huge batches (65,536 radii per chunk) on worker threads, so a
    kernel tuned for one batch size shows its cost on the other.

    Three single-point ``ber-curve --monte-carlo`` jobs of 2^18 trials, one
    per mode set in -2|1, -4,-2|1,3, -2|2, each with a fresh mc.seed and a
    waist drawn from [0.013, 0.018] m at 20 urad jitter and 1000 km. This is
    acceptance criterion 06's regime, the only one where the four-term union
    bound matched the simulation within the 3 x CI95 budget; at 30 urad or
    w0 >= 0.03 m it overshot the budget 5-55x.
    """
    jobs = []
    for modes in MC_MODE_SETS:
        argv = [
            "ber-curve", *_link(2e-5, 1e6, "bessel-sum", 64),
            "--axis", "w0", "--grid", _num(rng.uniform(0.013, 0.018)),
            f"--candidates={modes}", "--monte-carlo",
            "--trials", str(MC_TRIALS), "--seed", str(rng.randrange(1 << 31)),
            "-s", "mc.allow_degraded=true",
        ]
        jobs.append(("ber-curve-mc", argv))
    return [Job(f"{prefix}-{i}", kind, tuple(argv)) for i, (kind, argv) in enumerate(jobs)]


def _curve_args(tx: str, methods: str, radii: list[str]) -> list[str]:
    return [
        "crosstalk-curve", "--method", methods, "--grid", ",".join(radii),
        "-s", f"modes.tx={tx}", "-s", "modes.filter=", "-s", "modes.grouping=",
        "-s", "pointing.sigma_theta_rad=", "-s", "pointing.r_ch_m=",
        "-s", "geometry.w0_m=0.025", "-s", "geometry.distance_m=1000000",
        "-s", "receiver.k_r=6",
    ]


def reference_curves(rng: random.Random, prefix: str) -> list[Job]:
    """Why: the only workload where exact2d's grid doubling and
    beam.shifted_aperture_field do the work; without it those layers go
    unmeasured, and every method's kernel is a rewrite candidate.

    One crosstalk-curve per tx set with all five methods on radii drawn from
    [1, 40] m (the 0,2,4 set from [4, 25] m, acceptance criterion 02's range),
    plus zero-offset curves of the -2,1 and 0,2,4 sets at r = 0 and one
    drawn radius (criterion 01's orthogonality check). Five jobs, so the
    median job is one kind rather than the midpoint of two.
    """
    jobs = [
        ("crosstalk-curve", _curve_args("-2,1", ALL_METHODS, _sorted_draws(rng, 3, 1.0, 40.0))),
        ("crosstalk-curve", _curve_args("0,2,4", ALL_METHODS, _sorted_draws(rng, 3, 4.0, 25.0))),
        ("crosstalk-curve", _curve_args("-4,-2,1,3", ALL_METHODS, _sorted_draws(rng, 2, 1.0, 40.0))),
        ("crosstalk-curve", _curve_args("-2,1", ZERO_OFFSET_METHODS,
                                        ["0", *_sorted_draws(rng, 1, 1.0, 40.0)])),
        ("crosstalk-curve", _curve_args("0,2,4", ZERO_OFFSET_METHODS,
                                        ["0", *_sorted_draws(rng, 1, 1.0, 40.0)])),
    ]
    return [Job(f"{prefix}-{i}", kind, tuple(argv)) for i, (kind, argv) in enumerate(jobs)]


WORKLOADS: dict[str, Callable[[random.Random, str], list[Job]]] = {
    "design-bessel": design_bessel,
    "design-radial": design_radial,
    "mc-validate": mc_validate,
    "reference-curves": reference_curves,
}


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """The job list of round ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload](rng, f"r{index}")
