"""Beam-waist optimization, mode-set ranking, and method benchmarks.

Each driver re-runs the jitter-averaged BER and takes its arguments in
``average_ber``'s order (geometry, receiver, mode set, angular jitter
sigma_theta in radians), ``rank_mode_sets`` with its candidate sets in the
mode-set slot. It searches for the BER-minimizing beam waist with a
bracketed golden-section routine, orders candidate mode sets by averaged
BER under an equal total power budget, or times the crosstalk evaluators
against the reference integral and the Monte Carlo validator. Each
refuses its inputs before any work through ``check_*`` functions, which the
CLI calls too; ``check_average`` covers every average it will run.
"""

from __future__ import annotations

import math
import re
import statistics
import time
import warnings
from dataclasses import dataclass, replace
from itertools import cycle, product
from typing import Callable, Mapping, Sequence

import numpy as np

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.ber import average_ber, check_average
from oamlink.crosstalk import (
    ApproximationWarning,
    Method,
    QuadratureConvergenceWarning,
    ReceiverConfig,
    crosstalk,
    crosstalk_matrix,  # noqa: F401  benchmarks/spans.py traces sweep.crosstalk_matrix
)
from oamlink.montecarlo import MAX_TRIALS, TrialConfig, simulate_ber
from oamlink.numerics import is_integer

GOLDEN_RATIO_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0

# Coarse scan used to seed the golden-section bracket.
PRE_GRID_POINTS = 8

# The least tol the search takes, in units in the last place of the upper
# bound. Near one ulp the golden-section points stop moving while the
# bracket is still wider than tol, and the search never ends.
TOL_ULPS = 2


# ---------------------------------------------------------------------------
# beam-waist optimization


@dataclass(frozen=True)
class OptimizeResult:
    """Minimizer with its bracketing certificate.

    ``bracket`` holds three evaluated (w0, ber) points in ascending w0 with
    the middle value no larger than the sides; when ``boundary`` is set the
    argmin sat on an edge of the search interval and the bracket shows the
    edge triple instead of an interior certificate.
    """

    w0_opt: float
    ber_opt: float
    bracket: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    boundary: bool
    evaluations: int

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.bracket]
        if not (xs[0] < xs[1] < xs[2]):
            raise ValueError(f"bracket abscissae must be ascending, got {xs}")
        if not self.boundary:
            lo, mid, hi = (p[1] for p in self.bracket)
            if not (mid <= lo and mid <= hi):
                raise ValueError(
                    f"interior bracket must have the middle value lowest, got "
                    f"{(lo, mid, hi)}"
                )


def check_waist_search(w_lo: float, w_hi: float, tol: float) -> None:
    """Refuses bounds unless 0 < w_lo < w_hi < inf, and a tol outside
    [``TOL_ULPS`` ulps of w_hi, w_hi - w_lo)."""
    if not (0 < w_lo < w_hi < math.inf):
        raise ValueError(f"need 0 < w_lo < w_hi < inf, got {w_lo}, {w_hi}")
    if not (TOL_ULPS * math.ulp(w_hi) <= tol < w_hi - w_lo):
        raise ValueError(f"tol must be in [{TOL_ULPS * math.ulp(w_hi)!r}, {w_hi - w_lo:g}), at "
                         f"least {TOL_ULPS} ulps of w_hi or the search never ends; got {tol!r}")


def optimize_w0(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    sigma_theta: float,
    bounds: tuple[float, float],
    tol: float,
    method: "Method | str" = Method.BESSEL_SUM,
    quad_order: int = 64,
) -> OptimizeResult:
    """Golden-section search for the beam waist minimizing averaged BER.

    A coarse pre-grid of PRE_GRID_POINTS equally spaced waists seeds the
    bracket; golden-section then narrows the bracketing interval below
    ``tol``; ``check_waist_search`` and ``check_average`` at both bounds run
    before any average. When the pre-grid argmin falls on an interval edge
    the result is flagged as a boundary minimum and no interior certificate
    is fabricated.
    """
    w_lo, w_hi = float(bounds[0]), float(bounds[1])
    check_waist_search(w_lo, w_hi, tol)
    for w in (w_lo, w_hi):
        check_average(replace(geom, waist=w), rx, modes, sigma_theta, method, quad_order)
    memo: dict[float, float] = {}

    def evaluate(x: float) -> float:
        if x not in memo:
            res = average_ber(replace(geom, waist=x), rx, modes, sigma_theta, method, quad_order)
            memo[x] = float(res.averaged)
        return memo[x]

    pre = np.linspace(w_lo, w_hi, PRE_GRID_POINTS)
    pre_vals = [evaluate(float(x)) for x in pre]
    k = int(np.argmin(pre_vals))

    if 0 < k < PRE_GRID_POINTS - 1:
        a, b = float(pre[k - 1]), float(pre[k + 1])
        c = b - GOLDEN_RATIO_CONJUGATE * (b - a)
        d = a + GOLDEN_RATIO_CONJUGATE * (b - a)
        while (b - a) > tol:
            if evaluate(c) <= evaluate(d):
                b, d = d, c
                c = b - GOLDEN_RATIO_CONJUGATE * (b - a)
            else:
                a, c = c, d
                d = a + GOLDEN_RATIO_CONJUGATE * (b - a)

    # Certify the best evaluated point with its nearest evaluated neighbors;
    # the memo argmin rather than the final interval midpoint keeps the
    # certificate on points that were actually computed.
    ordered = sorted(memo)
    x_star = min(ordered, key=lambda x: (memo[x], x))
    i = ordered.index(x_star)
    boundary = i == 0 or i == len(ordered) - 1
    if boundary:
        triple = ordered[:3] if i == 0 else ordered[-3:]
    else:
        triple = ordered[i - 1 : i + 2]
    certificate = tuple((x, memo[x]) for x in triple)
    return OptimizeResult(
        w0_opt=x_star,
        ber_opt=memo[x_star],
        bracket=certificate,
        boundary=boundary,
        evaluations=len(memo),
    )


# ---------------------------------------------------------------------------
# mode-set ranking


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def warning_status(fn: Callable, *args):
    """Call ``fn(*args)`` and fold its warnings into a status cell: returns
    ``(result, status)`` with status "ok", or "warning: " followed by the
    distinct warning texts in sorted order.

    Texts that differ only in their numbers fold into one: the text with
    the largest numbers, which for the warnings that repeat so (a change
    that did not settle) is the worst, followed by "(worst of N warnings)".
    A text with no such relatives is kept as it is.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    groups: dict[str, list[str]] = {}
    for w in caught:
        text = str(w.message)
        groups.setdefault(_NUMBER.sub("#", text), []).append(text)
    notes = []
    for texts in groups.values():
        worst = max(texts, key=lambda text: [float(x) for x in _NUMBER.findall(text)])
        alone = len(set(texts)) == 1
        notes.append(worst if alone else f"{worst} (worst of {len(texts)} warnings)")
    note = "; ".join(sorted(notes))
    return result, f"warning: {note}" if note else "ok"


@dataclass(frozen=True)
class RankedModeSet:
    """One candidate's position in the averaged-BER ordering; ``status``
    folds the warnings of its average (``warning_status``)."""

    rank: int
    label: str
    ber: float
    converged: bool
    status: str


def check_candidates(candidates: Sequence[ModeSet]) -> list[str]:
    """Refuses an empty list or a mode set listed twice; returns the labels."""
    labels = [m.label for m in candidates]
    if not labels or len(set(labels)) != len(labels):
        raise ValueError(f"candidates must list distinct mode sets, at least one; got {labels}")
    return labels


def rank_mode_sets(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    candidates: Sequence[ModeSet],
    sigma_theta: float,
    method: "Method | str" = Method.BESSEL_SUM,
    quad_order: int = 64,
) -> tuple[RankedModeSet, ...]:
    """Order candidate mode sets by Rayleigh-averaged BER, best first.

    Every candidate runs on the same link and the same total power
    budget: stream amplitudes carry the 1/sqrt(modes-per-stream) split and
    the coefficient normalization counts streams, so grouped and plain sets
    are directly comparable. Ties sort by label, which together with the
    deterministic evaluation makes the ranking independent of the order the
    candidates were passed in. ``check_candidates``, and ``check_average``
    on every candidate, run before any average.
    """
    labels = check_candidates(candidates)
    for modes in candidates:
        check_average(geom, rx, modes, sigma_theta, method, quad_order)
    scored = []
    for label, modes in zip(labels, candidates):
        res, status = warning_status(average_ber, geom, rx, modes, sigma_theta, method, quad_order)
        scored.append((res.averaged, label, res.quad_converged, status))
    scored.sort(key=lambda item: (item[0], item[1]))
    return tuple(
        RankedModeSet(
            rank=i + 1,
            label=label,
            ber=ber,
            converged=converged,
            status=status,
        )
        for i, (ber, label, converged, status) in enumerate(scored)
    )


# ---------------------------------------------------------------------------
# method benchmarks


@dataclass(frozen=True)
class BenchReport:
    """Median wall times per method with derived speedup ratios.

    ``method_times`` maps method name to the median seconds one full pass
    over the benchmark grid took; ``mc_time`` and ``analytic_ber_time``
    compare one Monte Carlo estimate against one quadrature average of the
    same quantity. Ratios are computed from the stored times, so they can
    not disagree with them.
    """

    method_times: Mapping[str, float]
    mc_time: float
    analytic_ber_time: float

    @property
    def speedup_vs_exact(self) -> dict[str, float]:
        """exact2d time divided by each method's time (higher is faster)."""
        reference = self.method_times[Method.EXACT2D.value]
        return {
            name: reference / t
            for name, t in self.method_times.items()
            if name != Method.EXACT2D.value
        }

    @property
    def mc_over_analytic(self) -> float:
        """Monte Carlo wall time divided by the analytic average's."""
        return self.mc_time / self.analytic_ber_time


def _median_wall_time(fn: Callable[[], object], repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check_bench_grid(r_min: float, r_max: float, n_points: int, repetitions: int,
                     mc_trials: int, seed: int) -> TrialConfig:
    """Refuses a span, grid size, repetition or trial count, seed or trial
    budget the bench cannot run; returns the bench's Monte Carlo settings."""
    if not (0 < r_min <= r_max < math.inf):
        raise ValueError(f"need 0 < r_min <= r_max < inf, got {r_min}, {r_max}")
    # At about 35 ms per exact2d point the ceilings bound a bench to ~12 minutes.
    for name, value, least, most in (("n_points", n_points, 1, 1000),
                                     ("repetitions", repetitions, 3, 20)):
        if not is_integer(value) or not least <= value <= most:
            raise ValueError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    cfg = TrialConfig(mc_trials, seed, allow_degraded=True)
    if repetitions * cfg.trials > MAX_TRIALS:
        raise ValueError(f"repetitions x mc_trials makes {repetitions * cfg.trials} Monte Carlo "
                         f"draws; a run simulates at most {MAX_TRIALS}")
    return cfg


def bench_methods(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    sigma_theta: float,
    r_min: float,
    r_max: float,
    n_points: int,
    repetitions: int = 5,
    methods: Sequence["Method | str"] = (Method.BESSEL_INTEGRAL, Method.BESSEL_SUM),
    mc_trials: int = 1_000_000,
    seed: int = 0,
    quad_order: int = 64,
) -> BenchReport:
    """Time each evaluator over one shared grid of ``n_points`` points.

    Point i sits at the i-th of ``n_points`` radii evenly spaced over
    [r_min, r_max] and takes pair i mod (n_tx * n_filter) of the set's
    (tx order, filter order) pairs, filter-major, so off-diagonal costs are
    represented. Every method, and exact2d first if ``methods`` lacks it,
    times ``crosstalk`` once per point, and the median of ``repetitions``
    passes is kept in timing order. The Monte Carlo versus
    analytic-average comparison runs the estimator at ``mc_trials`` trials
    from ``seed``, pinned to a single worker, against one quadrature
    average of order ``quad_order``, both with bessel-sum whatever
    ``methods`` lists. ``check_bench_grid``, ``check_average``,
    ``Method.parse_distinct`` and the Bessel range at ``r_max`` are checked
    before any timing. Accuracy warnings are suppressed inside the timed
    region so console I/O does not leak into the wall times; the span
    should sit inside every method's validity range regardless.
    """
    cfg = check_bench_grid(r_min, r_max, n_points, repetitions, mc_trials, seed)
    check_average(geom, rx, modes, sigma_theta, Method.BESSEL_SUM, quad_order)
    parsed = list(Method.parse_distinct(methods))
    rx.check_bessel_range(geom, r_max=r_max)
    if Method.EXACT2D not in parsed:
        parsed.insert(0, Method.EXACT2D)
    pairs = cycle(product(modes.filter_modes, modes.tx_modes))
    grid = list(zip(np.linspace(r_min, r_max, n_points).tolist(), pairs))

    method_times: dict[str, float] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        warnings.simplefilter("ignore", QuadratureConvergenceWarning)
        for method in parsed:
            def one_pass(method: Method = method) -> None:
                for r, (ell_j, ell_n) in grid:
                    crosstalk(geom, rx, modes.n_streams, ell_n, ell_j, r, method)
            method_times[method.value] = _median_wall_time(one_pass, repetitions)

        mc_time = _median_wall_time(
            lambda: simulate_ber(geom, rx, modes, sigma_theta, cfg, Method.BESSEL_SUM,
                                 max_workers=1),
            repetitions,
        )
        analytic_time = _median_wall_time(
            lambda: average_ber(geom, rx, modes, sigma_theta, Method.BESSEL_SUM, quad_order),
            repetitions,
        )

    return BenchReport(method_times, mc_time, analytic_time)
