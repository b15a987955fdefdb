"""Outside-in span tracer for the oamlink modules.

The library has no trace hooks, so the tracer rebinds each public function
in every module that imported it by name, for the duration of a ``with
tracer.installed():`` block, and restores the originals afterwards. A
traced call records one span: name, start, end, parent span, job id and
thread, plus a few counts read from its arguments or result. Spans are kept
in memory and written out when the run ends.

Parents come from a per-thread stack. ThreadPoolExecutor workers start
with an empty stack (they inherit no context), so a worker's outermost span
is attributed afterwards, by time containment, to the innermost span of
the job's main thread that encloses it (``attribute_workers``).
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

import numpy as np

from oamlink import ber, beam, cli, crosstalk, montecarlo, sweep
from oamlink.crosstalk import Method


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _method_suffix(index: int) -> Callable[[tuple, dict], str]:
    def suffix(args: tuple, kwargs: dict) -> str:
        return "." + Method.parse(_arg(args, kwargs, index, "method", Method.BESSEL_SUM)).value
    return suffix


def _points(r_index: int) -> Callable[[tuple, dict, Any], dict]:
    def count(args: tuple, kwargs: dict, result: Any) -> dict:
        return {"points": int(np.broadcast(args[r_index], args[r_index + 1]).size)}
    return count


def _bessel(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"points": int(np.size(args[1]))}


def _profile(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"radii": int(np.size(args[3]))}


def _exact(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"phi_points": result.phi_points, "rel_change": result.rel_change}


def _average(args: tuple, kwargs: dict, result: Any) -> dict:
    return {
        "self_check_rel": result.quad_self_check_rel,
        "unconverged": int(not result.quad_converged),
        "degraded_node_fraction": result.degraded_node_fraction,
    }


def _simulate(args: tuple, kwargs: dict, result: Any) -> dict:
    return {
        "trials": result.trials,
        "workers": result.workers,
        "degraded_fraction": result.degraded_fraction,
    }


def _optimize(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"evaluations": result.evaluations}


# (module, attribute the module calls it by, layer name, name suffix, counts)
_TARGETS = [
    (crosstalk, "bessel_j", "numerics.bessel_j", None, _bessel),
    (crosstalk, "laguerre", "numerics.laguerre", None, None),
    (beam, "laguerre", "numerics.laguerre", None, None),
    (crosstalk, "lg_field", "beam.lg_field", None, _points(2)),
    (crosstalk, "shifted_aperture_field", "beam.shifted_aperture_field", None, _points(2)),
    (crosstalk, "crosstalk_exact_detailed", "crosstalk.crosstalk_exact_detailed", None, _exact),
    (ber, "channel_profile", "crosstalk.channel_profile", _method_suffix(4), _profile),
    (montecarlo, "channel_profile", "crosstalk.channel_profile", _method_suffix(4), _profile),
    (ber, "mode_envelope", "crosstalk.mode_envelope", None, None),
    (sweep, "average_ber", "ber.average_ber", None, _average),
    (sweep, "simulate_ber", "montecarlo.simulate_ber", None, _simulate),
    (sweep, "crosstalk", "crosstalk.crosstalk", None, None),
    (sweep, "crosstalk_matrix", "crosstalk.crosstalk_matrix", _method_suffix(4), None),
    (cli, "average_ber", "ber.average_ber", None, _average),
    (cli, "simulate_ber", "montecarlo.simulate_ber", None, _simulate),
    (cli, "crosstalk_matrix", "crosstalk.crosstalk_matrix", _method_suffix(4), None),
    (cli, "optimize_w0", "sweep.optimize_w0", None, _optimize),
    (cli, "rank_mode_sets", "sweep.rank_mode_sets", None, None),
    (cli, "bench_methods", "sweep.bench_methods", None, None),
    (cli, "build_parser", "cli.build_parser", None, None),
    (cli, "load_config", "cli.load_config", None, None),
    (cli, "write_csv", "cli.write_csv", None, None),
    (cli, "write_manifest", "cli.write_manifest", None, None),
]


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        suffix: Optional[Callable[[tuple, dict], str]] = None,
        counts: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> Callable:
        """``fn`` recording one span per call."""
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            full = name + suffix(args, kwargs) if suffix else name
            attrs = counts(args, kwargs, result) if counts else {}
            self.spans.append(
                Span(span_id, full, start, end, parent, self.job, threading.get_ident(), attrs)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every traced function; restore the originals on exit."""
        originals = []
        try:
            for module, attr, name, suffix, counts in _TARGETS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, suffix, counts))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def attribute_workers(spans: list[Span], main_thread: int) -> None:
    """Give each parentless worker-thread span the innermost main-thread
    span of its job that contains it in time."""
    by_job: dict[Optional[str], list[Span]] = defaultdict(list)
    for s in spans:
        if s.thread == main_thread:
            by_job[s.job].append(s)
    for s in spans:
        if s.parent is not None or s.thread == main_thread:
            continue
        enclosing = [
            m for m in by_job[s.job] if m.start <= s.start and s.end <= m.end
        ]
        if enclosing:
            s.parent = min(enclosing, key=lambda m: m.duration).span_id


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the same-thread child spans (which never overlap)."""
    return span.duration - sum(c.duration for c in children if c.thread == span.thread)


def layer_metrics(spans: list[Span], rounds: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    Returns ``(metrics, seconds)``. ``metrics`` holds counts per round,
    worst-case audit values, busy and self times as shares of the traced
    job wall time (a layer a workload never calls then reads as a zero
    ratio, not as a constant zero time), and in seconds per round the three
    CLI-layer times every job has. ``seconds`` holds every busy and self
    time in seconds per round, for the human-readable report.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(_self_time(s, children[s.span_id]) for s in by_name[name])

    def total(name: str, key: str) -> float:
        return sum(s.attrs[key] for s in by_name[name])

    def worst(name: str, key: str) -> float:
        return max((s.attrs[key] for s in by_name[name]), default=0.0)

    def inside(span: Span, ancestor: str) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == ancestor:
                return True
            parent = by_id[parent].parent
        return False

    jobs = by_name["cli.main"]
    job_wall = sum(s.duration for s in jobs)
    coverage = min(
        (1.0 - _self_time(s, children[s.span_id]) / s.duration for s in jobs), default=0.0
    )
    sim = by_name["montecarlo.simulate_ber"]
    capacity = sum(s.attrs["workers"] * s.duration for s in sim)
    sim_ids = {s.span_id for s in sim}
    channel_in_sim = sum(
        s.duration for name, group in by_name.items()
        if name.startswith("crosstalk.channel_profile.") for s in group if s.parent in sim_ids
    )
    bessel_in_sim = sum(
        s.duration for s in by_name["numerics.bessel_j"] if inside(s, "montecarlo.simulate_ber")
    )
    radial = "crosstalk.channel_profile.radial-sum"
    lg_in_radial = sum(s.duration for s in by_name["beam.lg_field"] if inside(s, radial))

    def share(part: float, whole: float) -> float:
        return part / whole if whole > 0.0 else 0.0

    per_round = {
        "numerics.bessel_j.calls": len(by_name["numerics.bessel_j"]),
        "numerics.bessel_j.points": total("numerics.bessel_j", "points"),
        "crosstalk.mode_envelope.calls": len(by_name["crosstalk.mode_envelope"]),
        "ber.average_ber.calls": len(by_name["ber.average_ber"]),
        "ber.average_ber.unconverged": total("ber.average_ber", "unconverged"),
        "beam.lg_field.points": total("beam.lg_field", "points"),
        "beam.shifted_aperture_field.points": total("beam.shifted_aperture_field", "points"),
        f"{radial}.calls": len(by_name[radial]),
        f"{radial}.radii": total(radial, "radii"),
        "crosstalk.channel_profile.bessel-sum.calls": len(by_name["crosstalk.channel_profile.bessel-sum"]),
        "crosstalk.channel_profile.bessel-sum.radii": total("crosstalk.channel_profile.bessel-sum", "radii"),
        "crosstalk.crosstalk_exact_detailed.calls": len(by_name["crosstalk.crosstalk_exact_detailed"]),
        "montecarlo.simulate_ber.trials": total("montecarlo.simulate_ber", "trials"),
        "sweep.optimize_w0.calls": len(by_name["sweep.optimize_w0"]),
        "sweep.optimize_w0.evaluations": total("sweep.optimize_w0", "evaluations"),
        "trace.spans": len(spans),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    metrics.update({
        "ber.average_ber.worst_self_check_rel": worst("ber.average_ber", "self_check_rel"),
        "ber.average_ber.max_degraded_node_fraction": worst("ber.average_ber", "degraded_node_fraction"),
        "crosstalk.crosstalk_exact_detailed.max_phi_points": worst("crosstalk.crosstalk_exact_detailed", "phi_points"),
        "crosstalk.crosstalk_exact_detailed.worst_rel_change": worst("crosstalk.crosstalk_exact_detailed", "rel_change"),
        "montecarlo.simulate_ber.workers": worst("montecarlo.simulate_ber", "workers"),
        "montecarlo.simulate_ber.degraded_fraction": worst("montecarlo.simulate_ber", "degraded_fraction"),
        "montecarlo.simulate_ber.channel_share": share(channel_in_sim, capacity),
        "montecarlo.simulate_ber.bessel_share": share(bessel_in_sim, capacity),
        f"{radial}.lg_field_share": share(lg_in_radial, busy(radial)),
        "trace.coverage": coverage,
    })
    seconds = {
        "numerics.bessel_j.busy_s": busy("numerics.bessel_j"),
        "crosstalk.mode_envelope.busy_s": busy("crosstalk.mode_envelope"),
        "ber.average_ber.busy_s": busy("ber.average_ber"),
        "ber.average_ber.self_s": self_time("ber.average_ber"),
        "beam.lg_field.busy_s": busy("beam.lg_field"),
        f"{radial}.busy_s": busy(radial),
        f"{radial}.self_s": self_time(radial),
        "crosstalk.channel_profile.bessel-sum.busy_s": busy("crosstalk.channel_profile.bessel-sum"),
        "beam.shifted_aperture_field.busy_s": busy("beam.shifted_aperture_field"),
        "crosstalk.crosstalk_exact_detailed.busy_s": busy("crosstalk.crosstalk_exact_detailed"),
        "montecarlo.simulate_ber.busy_s": busy("montecarlo.simulate_ber"),
        "montecarlo.simulate_ber.channel_busy_s": channel_in_sim,
        "montecarlo.simulate_ber.other_busy_s": capacity - channel_in_sim,
        "sweep.optimize_w0.busy_s": busy("sweep.optimize_w0"),
        "sweep.rank_mode_sets.busy_s": busy("sweep.rank_mode_sets"),
        "cli.main.self_s": self_time("cli.main"),
        "cli.write_csv.busy_s": busy("cli.write_csv"),
        "cli.write_manifest.busy_s": busy("cli.write_manifest"),
    }
    for name in ("cli.main.self_s", "cli.write_csv.busy_s", "cli.write_manifest.busy_s"):
        metrics[name] = seconds[name] / rounds
    for name, value in seconds.items():
        if not name.startswith("montecarlo.simulate_ber.") or name.endswith(".busy_s"):
            metrics[name[:-2] + "_share"] = share(value, job_wall)
    return metrics, {name: value / rounds for name, value in seconds.items()}
