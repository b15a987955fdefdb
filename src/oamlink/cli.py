"""Command-line interface: config handling, CSV emission, and run manifests.

Six subcommands (crosstalk-curve, ber-curve, monte-carlo, optimize,
rank-modes, bench) share one flat key-value configuration format with
dotted section names and SI units. Every output file gets a manifest
sidecar that echoes the merged configuration; feeding that manifest back
as the config file reproduces the output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical non-convergence
or failed evaluation, 4 boundary optimum.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from oamlink import __version__
from oamlink.beam import LinkGeometry, ModeSet, PointingState
from oamlink.ber import average_ber
from oamlink.crosstalk import Method, ReceiverConfig, crosstalk_matrix
from oamlink.montecarlo import (
    DegradedChannelError,
    TrialConfig,
    simulate_ber,
    worker_count,
)
from oamlink.sweep import (
    Scenario,
    SweepAxis,
    bench_methods,
    mode_set_label,
    optimize_w0,
    rank_mode_sets,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_BOUNDARY = 4

# Every known configuration key with its default value, as written in the
# flat config format. Empty string means unset.
DEFAULTS: dict[str, str] = {
    "geometry.wavelength_m": "1.55e-06",
    "geometry.w0_m": "0.025",
    "geometry.radial_index": "0",
    "geometry.distance_m": "1000000.0",
    "receiver.aperture_radius_m": "0.05",
    "receiver.responsivity_a_per_w": "1.0",
    "receiver.apd_gain": "1.0",
    "receiver.noise_level": "6.35e-16",
    "receiver.k_r": "6",
    "receiver.tx_power_w": "1.0",
    "modes.tx": "-2,1",
    "modes.filter": "",
    "modes.grouping": "",
    "modes.candidates": "-2|2;-2|1;-1|1;-4,-2|1,3",
    "pointing.sigma_theta_rad": "3e-05",
    "pointing.r_ch_m": "",
    "method": "bessel-sum",
    "quad.order": "64",
    "mc.trials": "1000000",
    "mc.seed": "12345",
    "mc.allow_degraded": "false",
    "ber.with_mc": "false",
    "sweep.axis": "w0",
    "sweep.grid": "",
    "optimize.lo_m": "0.005",
    "optimize.hi_m": "0.06",
    "optimize.tol_m": "0.0005",
    "bench.r_min_m": "2.0",
    "bench.r_max_m": "20.0",
    "bench.grid_points": "50",
    "bench.repetitions": "5",
    "bench.mc_trials": "1000000",
    "output.path": "",
}


class ConfigError(ValueError):
    """Configuration problem the user must fix; maps to exit code 2."""


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a dict of raw string values.

    Blank lines and lines starting with '#' are skipped. Keys prefixed
    ``config.`` are accepted with the prefix stripped and ``manifest.``
    keys are ignored, so a run manifest doubles as a config file. Unknown
    and duplicated keys are errors.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("manifest."):
            continue
        if key.startswith("config."):
            key = key[len("config."):]
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_set_items(items: Sequence[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"--set: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"--set: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_mode_set_spec(spec: str) -> ModeSet:
    """Mode set from its label syntax: streams split by '|', modes by ','.

    ``-2|1`` is two single-mode streams; ``-4,-2|1,3`` groups two modes
    per stream.
    """
    try:
        groups = [
            [int(tok) for tok in part.split(",")] for part in spec.strip().split("|")
        ]
        tx = [m for g in groups for m in g]
        return ModeSet(tx, stream_grouping=groups)
    except ValueError as exc:
        raise ConfigError(f"bad mode set spec {spec!r}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """Merged flat configuration with typed accessors.

    Precedence at build time: defaults, then config file, then --set
    pairs, then dedicated flags. ``raw`` holds the merged string values
    and is what the manifest echoes.
    """

    raw: Mapping[str, str]

    def text(self, key: str) -> str:
        return self.raw[key]

    def is_set(self, key: str) -> bool:
        return self.raw[key] != ""

    def number(self, key: str) -> float:
        try:
            return float(self.raw[key])
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {self.raw[key]!r}") from None

    def integer(self, key: str) -> int:
        try:
            return int(self.raw[key])
        except ValueError:
            raise ConfigError(
                f"{key} must be an integer, got {self.raw[key]!r}"
            ) from None

    def flag(self, key: str) -> bool:
        value = self.raw[key].lower()
        if value not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false, got {self.raw[key]!r}")
        return value == "true"

    def numbers(self, key: str) -> tuple[float, ...]:
        raw = self.raw[key]
        if not raw:
            return ()
        try:
            return tuple(float(tok) for tok in raw.split(","))
        except ValueError:
            raise ConfigError(
                f"{key} must be comma-separated numbers, got {raw!r}"
            ) from None

    def geometry(self) -> LinkGeometry:
        try:
            return LinkGeometry(
                wavelength=self.number("geometry.wavelength_m"),
                waist=self.number("geometry.w0_m"),
                radial_index=self.integer("geometry.radial_index"),
                distance=self.number("geometry.distance_m"),
            )
        except ValueError as exc:
            raise ConfigError(f"geometry: {exc}") from None

    def receiver(self) -> ReceiverConfig:
        try:
            return ReceiverConfig(
                aperture_radius=self.number("receiver.aperture_radius_m"),
                responsivity=self.number("receiver.responsivity_a_per_w"),
                apd_gain=self.number("receiver.apd_gain"),
                noise_level=self.number("receiver.noise_level"),
                k_r=self.integer("receiver.k_r"),
            )
        except ValueError as exc:
            raise ConfigError(f"receiver: {exc}") from None

    def mode_set(self) -> ModeSet:
        try:
            tx = [int(tok) for tok in self.text("modes.tx").split(",")]
        except ValueError:
            raise ConfigError(
                f"modes.tx must be comma-separated integers, got "
                f"{self.text('modes.tx')!r}"
            ) from None
        flt = None
        if self.is_set("modes.filter"):
            try:
                flt = [int(tok) for tok in self.text("modes.filter").split(",")]
            except ValueError:
                raise ConfigError(
                    f"modes.filter must be comma-separated integers, got "
                    f"{self.text('modes.filter')!r}"
                ) from None
        grouping = None
        if self.is_set("modes.grouping"):
            try:
                grouping = [
                    [int(tok) for tok in part.split(",")]
                    for part in self.text("modes.grouping").split("|")
                ]
            except ValueError:
                raise ConfigError(
                    f"modes.grouping must look like '-4,-2|1,3', got "
                    f"{self.text('modes.grouping')!r}"
                ) from None
        try:
            return ModeSet(tx, flt, grouping)
        except ValueError as exc:
            raise ConfigError(f"modes: {exc}") from None

    def candidates(self) -> tuple[ModeSet, ...]:
        raw = self.text("modes.candidates")
        if not raw:
            return ()
        return tuple(parse_mode_set_spec(part) for part in raw.split(";"))

    def methods(self) -> tuple[Method, ...]:
        try:
            parsed = tuple(Method.parse(tok) for tok in self.text("method").split(","))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if len(set(parsed)) != len(parsed):
            raise ConfigError(f"duplicate methods in {self.text('method')!r}")
        return parsed

    def single_method(self) -> Method:
        parsed = self.methods()
        if len(parsed) != 1:
            raise ConfigError(
                f"this command needs exactly one method, got {self.text('method')!r}"
            )
        return parsed[0]

    def validate_pointing(self) -> None:
        if self.is_set("pointing.sigma_theta_rad") and self.is_set("pointing.r_ch_m"):
            raise ConfigError(
                "exactly one of pointing.sigma_theta_rad and pointing.r_ch_m "
                "may be set; clear the other (e.g. --set pointing.r_ch_m=)"
            )

    def scenario(self) -> Scenario:
        """Scenario for the jitter-averaged commands; needs sigma_theta."""
        self.validate_pointing()
        if not self.is_set("pointing.sigma_theta_rad"):
            raise ConfigError(
                "this command averages over pointing jitter; set "
                "pointing.sigma_theta_rad"
            )
        quad_order = self.integer("quad.order")
        if not (16 <= quad_order <= 256):
            raise ConfigError(f"quad.order must be in [16, 256], got {quad_order}")
        try:
            return Scenario(
                geom=self.geometry(),
                rx=self.receiver(),
                modes=self.mode_set(),
                sigma_theta=self.number("pointing.sigma_theta_rad"),
                quad_order=quad_order,
                seed=self.integer("mc.seed"),
            )
        except ValueError as exc:
            raise ConfigError(f"pointing: {exc}") from None

    def trial_config(self, method: Method) -> TrialConfig:
        """Monte Carlo settings for runs with one crosstalk method."""
        trials = self.integer("mc.trials")
        seed = self.integer("mc.seed")
        allow_degraded = self.flag("mc.allow_degraded")
        try:
            return TrialConfig(trials, seed, method, allow_degraded=allow_degraded)
        except ValueError as exc:
            raise ConfigError(f"mc: {exc}") from None

    def output_path(self, command: str) -> str:
        if not self.is_set("output.path"):
            raise ConfigError(
                f"{command} writes a file; set output.path or pass -o PATH"
            )
        return self.text("output.path")


def load_config(
    config_path: Optional[str],
    set_items: Sequence[str],
    flag_overrides: Mapping[str, str],
) -> RunConfig:
    merged = dict(DEFAULTS)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        merged.update(parse_config_text(text, config_path))
    merged.update(_parse_set_items(set_items))
    merged.update(flag_overrides)
    return RunConfig(raw=merged)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: object) -> str:
    """Deterministic cell text: shortest round-trip form for floats."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, schema: str, header: Sequence[str], rows) -> None:
    """RFC-4180 CSV with a leading '#' schema comment line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {schema}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def write_manifest(
    path: str, command: str, cfg: RunConfig, extra: Mapping[str, str]
) -> None:
    """Key-value sidecar: run facts plus the full merged config echo."""
    lines = [
        "manifest.tool = oamlink",
        f"manifest.version = {__version__}",
        f"manifest.command = {command}",
    ]
    lines.extend(f"manifest.{key} = {value}" for key, value in extra.items())
    lines.extend(f"config.{key} = {cfg.raw[key]}" for key in sorted(cfg.raw))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _dbm(c_watts: float, tx_power_w: float) -> float:
    received = c_watts * tx_power_w
    if received <= 0.0:
        return -math.inf
    return 10.0 * math.log10(received * 1000.0)


def _capture(fn, *args):
    """Call ``fn(*args)``, folding its warnings or its error into a status cell.

    Returns ``(result, status)``: status is "ok", "warning: " followed by the
    distinct warning texts in sorted order, or "error: Type: message" with a
    None result (warnings raised before the error are dropped).
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:
            return None, f"error: {type(exc).__name__}: {exc}"
    note = "; ".join(sorted({str(w.message) for w in caught}))
    return result, f"warning: {note}" if note else "ok"


# ---------------------------------------------------------------------------
# subcommands


def cmd_crosstalk_curve(cfg: RunConfig) -> int:
    cfg.validate_pointing()
    geom = cfg.geometry()
    rx = cfg.receiver()
    modes = cfg.mode_set()
    methods = cfg.methods()
    tx_power = cfg.number("receiver.tx_power_w")
    radii = cfg.numbers("sweep.grid")
    if not radii and cfg.is_set("pointing.r_ch_m"):
        radii = (cfg.number("pointing.r_ch_m"),)
    if not radii:
        raise ConfigError(
            "crosstalk-curve needs offset radii: set sweep.grid (meters) or "
            "pointing.r_ch_m for a single point"
        )
    if not all(0.0 <= r < math.inf for r in radii):
        raise ConfigError(f"offset radii must be finite and >= 0, got {radii}")
    out_path = cfg.output_path("crosstalk-curve")

    t0 = time.perf_counter()
    # Evaluate one matrix per (radius, method), then emit rows with the
    # method innermost so the per-pair method comparison sits on adjacent
    # lines.
    evaluated: dict[tuple[float, Method], tuple] = {}
    for r in radii:
        point = PointingState.from_radius(r)
        for method in methods:
            matrix, status = _capture(crosstalk_matrix, geom, rx, modes, point, method)
            evaluated[(r, method)] = (None if matrix is None else matrix.values, status)

    rows = []
    errors = 0
    for r in radii:
        for j, ell_j in enumerate(modes.filter_modes):
            for i, ell_n in enumerate(modes.tx_modes):
                for method in methods:
                    values, status = evaluated[(r, method)]
                    if values is None:
                        rows.append(
                            (r, ell_n, ell_j, method.value, math.nan, math.nan, status)
                        )
                        errors += 1
                        continue
                    c = float(values[j, i])
                    rows.append(
                        (r, ell_n, ell_j, method.value, c, _dbm(c, tx_power), status)
                    )
    write_csv(
        out_path,
        "oamlink/crosstalk-curve v1; units: r_ch_m=m, C_watts=W, C_dBm=dBm(P_tx)",
        ("r_ch_m", "ell_n", "ell_j", "method", "C_watts", "C_dBm", "status"),
        rows,
    )
    wall = time.perf_counter() - t0
    write_manifest(
        out_path + ".manifest",
        "crosstalk-curve",
        cfg,
        {
            "rows": str(len(rows)),
            "error_rows": str(errors),
            "k_r": str(rx.k_r),
            "wall_time_s": f"{wall:.3f}",
        },
    )
    print(f"crosstalk-curve: {len(rows)} rows -> {out_path} ({wall:.2f}s)")
    return EXIT_NONCONVERGED if errors else EXIT_OK


def cmd_ber_curve(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    methods = cfg.methods()
    try:
        axis = SweepAxis.parse(cfg.text("sweep.axis"))
    except ValueError as exc:
        raise ConfigError(f"sweep.axis: {exc}") from None
    grid = cfg.numbers("sweep.grid")
    if not grid:
        raise ConfigError("ber-curve needs sweep.grid values for the chosen axis")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"sweep.grid must be strictly increasing, got {grid}")
    try:
        points = [scen.with_axis(axis, value) for value in grid]
    except ValueError as exc:
        raise ConfigError(f"sweep.grid: {exc}") from None
    candidates = cfg.candidates() or (scen.modes,)
    with_mc = cfg.flag("ber.with_mc")
    trial_cfgs = {method: cfg.trial_config(method) for method in methods} if with_mc else {}
    out_path = cfg.output_path("ber-curve")

    t0 = time.perf_counter()
    rows = []
    errors = 0
    unconverged = 0
    for value, point in zip(grid, points):
        stats = point.pointing_stats()
        for modes in candidates:
            label = mode_set_label(modes)
            for method in methods:
                res, status = _capture(
                    average_ber, point.geom, point.rx, modes, stats, method, point.quad_order
                )
                if res is None:
                    raw = clamped = math.nan
                    errors += 1
                else:
                    raw, clamped = res.averaged, res.averaged_clamped
                    if not res.quad_converged:
                        unconverged += 1
                row = [value, label, method.value, raw, clamped]
                if with_mc:
                    try:
                        outcome = simulate_ber(
                            point.geom, point.rx, modes, stats, trial_cfgs[method]
                        )
                        row.extend([outcome.ber_hat, outcome.ci95_halfwidth])
                    except DegradedChannelError as exc:
                        row.extend([math.nan, math.nan])
                        status = f"error: {type(exc).__name__}: {exc}"
                        errors += 1
                row.append(status)
                rows.append(tuple(row))
    header = ["axis_value", "mode_set_id", "method", "ber_avg_raw", "ber_avg_clamped"]
    if with_mc:
        header.extend(["ber_mc", "ci95"])
    header.append("status")
    write_csv(
        out_path,
        f"oamlink/ber-curve v1; axis={axis.value} (SI units); ber columns are "
        "probabilities",
        header,
        rows,
    )
    wall = time.perf_counter() - t0
    write_manifest(
        out_path + ".manifest",
        "ber-curve",
        cfg,
        {
            "rows": str(len(rows)),
            "error_rows": str(errors),
            "unconverged_rows": str(unconverged),
            "quad_order": str(scen.quad_order),
            "wall_time_s": f"{wall:.3f}",
        },
    )
    print(f"ber-curve: {len(rows)} rows -> {out_path} ({wall:.2f}s)")
    return EXIT_NONCONVERGED if (errors or unconverged) else EXIT_OK


def cmd_montecarlo(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    method = cfg.single_method()
    trial_cfg = cfg.trial_config(method)
    out_path = cfg.output_path("monte-carlo")
    t0 = time.perf_counter()
    try:
        outcome = simulate_ber(
            scen.geom, scen.rx, scen.modes, scen.pointing_stats(), trial_cfg
        )
    except DegradedChannelError as exc:
        print(f"monte-carlo: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    wall = time.perf_counter() - t0
    write_csv(
        out_path,
        "oamlink/monte-carlo v1; ber_mc and ci95 are probabilities",
        (
            "trials",
            "errors",
            "bit_errors",
            "ber_mc",
            "ci95",
            "degraded_fraction",
            "method",
            "seed",
            "status",
        ),
        [
            (
                outcome.trials,
                outcome.errors,
                outcome.bit_errors,
                outcome.ber_hat,
                outcome.ci95_halfwidth,
                outcome.degraded_fraction,
                method.value,
                trial_cfg.seed,
                "ok",
            )
        ],
    )
    write_manifest(
        out_path + ".manifest",
        "monte-carlo",
        cfg,
        {
            "workers": str(outcome.workers),
            "seed": str(trial_cfg.seed),
            "degraded_fraction": repr(outcome.degraded_fraction),
            "wall_time_s": f"{wall:.3f}",
        },
    )
    print(
        f"monte-carlo: ber={outcome.ber_hat:.6g} +/- {outcome.ci95_halfwidth:.2g} "
        f"({outcome.trials} trials, {outcome.workers} workers, {wall:.2f}s) "
        f"-> {out_path}"
    )
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    method = cfg.single_method()
    lo = cfg.number("optimize.lo_m")
    hi = cfg.number("optimize.hi_m")
    tol = cfg.number("optimize.tol_m")
    out_path = cfg.output_path("optimize")
    t0 = time.perf_counter()
    try:
        result = optimize_w0(scen, (lo, hi), tol, method)
    except ValueError as exc:
        raise ConfigError(f"optimize: {exc}") from None
    wall = time.perf_counter() - t0
    (b_lo, b_mid, b_hi) = result.bracket
    lines = [
        f"optimize.w0_opt_m = {result.w0_opt!r}",
        f"optimize.ber_opt = {result.ber_opt!r}",
        f"optimize.boundary = {str(result.boundary).lower()}",
        f"optimize.evaluations = {result.evaluations}",
        f"optimize.method = {result.method.value}",
        f"optimize.tol_m = {result.tol!r}",
        f"optimize.bracket_lo_m = {b_lo[0]!r}",
        f"optimize.bracket_lo_ber = {b_lo[1]!r}",
        f"optimize.bracket_mid_m = {b_mid[0]!r}",
        f"optimize.bracket_mid_ber = {b_mid[1]!r}",
        f"optimize.bracket_hi_m = {b_hi[0]!r}",
        f"optimize.bracket_hi_ber = {b_hi[1]!r}",
    ]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    write_manifest(
        out_path + ".manifest",
        "optimize",
        cfg,
        {
            "boundary": str(result.boundary).lower(),
            "evaluations": str(result.evaluations),
            "quad_order": str(scen.quad_order),
            "wall_time_s": f"{wall:.3f}",
        },
    )
    flag = " (boundary)" if result.boundary else ""
    print(
        f"optimize: w0*={result.w0_opt:.6g} m, ber*={result.ber_opt:.6g}{flag} "
        f"[{result.evaluations} evaluations, {wall:.2f}s] -> {out_path}"
    )
    return EXIT_BOUNDARY if result.boundary else EXIT_OK


def cmd_rank_modes(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    method = cfg.single_method()
    candidates = cfg.candidates()
    if not candidates:
        raise ConfigError("rank-modes needs modes.candidates, e.g. '-2|1;-2|2'")
    out_path = cfg.output_path("rank-modes")
    t0 = time.perf_counter()
    try:
        ranking = rank_mode_sets(candidates, scen, method)
    except ValueError as exc:
        raise ConfigError(f"rank-modes: {exc}") from None
    wall = time.perf_counter() - t0
    rows = [
        (
            r.rank,
            r.label,
            r.ber,
            r.method.value,
            str(r.converged).lower(),
            "ok" if r.converged else "warning: quadrature self-check failed",
        )
        for r in ranking
    ]
    write_csv(
        out_path,
        "oamlink/rank-modes v1; ber_avg is a probability",
        ("rank", "mode_set_id", "ber_avg", "method", "converged", "status"),
        rows,
    )
    unconverged = sum(0 if r.converged else 1 for r in ranking)
    write_manifest(
        out_path + ".manifest",
        "rank-modes",
        cfg,
        {
            "candidates": str(len(candidates)),
            "unconverged": str(unconverged),
            "quad_order": str(scen.quad_order),
            "wall_time_s": f"{wall:.3f}",
        },
    )
    best = ranking[0]
    print(
        f"rank-modes: best {best.label} at ber={best.ber:.6g} "
        f"({len(ranking)} candidates, {wall:.2f}s) -> {out_path}"
    )
    return EXIT_NONCONVERGED if unconverged else EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    scen = cfg.scenario()
    methods = list(cfg.methods())
    if Method.EXACT2D not in methods:
        methods.insert(0, Method.EXACT2D)
    r_min = cfg.number("bench.r_min_m")
    r_max = cfg.number("bench.r_max_m")
    n_points = cfg.integer("bench.grid_points")
    repetitions = cfg.integer("bench.repetitions")
    mc_trials = cfg.integer("bench.mc_trials")
    if not (0 < r_min < r_max):
        raise ConfigError(f"need 0 < bench.r_min_m < bench.r_max_m, got {r_min}, {r_max}")
    if n_points < 1:
        raise ConfigError(f"bench.grid_points must be >= 1, got {n_points}")
    out_path = cfg.output_path("bench")

    # Shared grid: radii evenly spaced, mode pairs cycling through the
    # full tx-by-filter product so off-diagonal costs are represented.
    pairs = [
        (ell_n, ell_j)
        for ell_j in scen.modes.filter_modes
        for ell_n in scen.modes.tx_modes
    ]
    step = (r_max - r_min) / (n_points - 1) if n_points > 1 else 0.0
    grid = [
        (r_min + i * step, pairs[i % len(pairs)]) for i in range(n_points)
    ]
    t0 = time.perf_counter()
    try:
        report = bench_methods(scen, grid, repetitions, methods, mc_trials)
    except ValueError as exc:
        raise ConfigError(f"bench: {exc}") from None
    wall = time.perf_counter() - t0

    # Wall times vary run to run, so they go to stdout and the manifest;
    # the CSV records only what was benchmarked, keeping reruns
    # byte-identical.
    rows = [
        (
            method.value,
            "reference" if method is Method.EXACT2D else "candidate",
            len(grid),
            repetitions,
            mc_trials,
        )
        for method in methods
    ]
    rows.append(("monte-carlo", "estimator", len(grid), repetitions, mc_trials))
    rows.append(("quadrature-average", "estimator", len(grid), repetitions, mc_trials))
    write_csv(
        out_path,
        "oamlink/bench v1; measured seconds live in the manifest and stdout",
        ("method", "role", "grid_size", "repetitions", "mc_trials"),
        rows,
    )
    extra = {
        "workers": "1",
        "wall_time_s": f"{wall:.3f}",
    }
    for name, seconds in report.method_times.items():
        extra[f"median_s.{name}"] = f"{seconds:.6f}"
    for name, ratio in report.speedup_vs_exact.items():
        extra[f"speedup.{name}"] = f"{ratio:.2f}"
    extra["mc_median_s"] = f"{report.mc_time:.6f}"
    extra["analytic_median_s"] = f"{report.analytic_ber_time:.6f}"
    extra["mc_over_analytic"] = f"{report.mc_over_analytic:.2f}"
    write_manifest(out_path + ".manifest", "bench", cfg, extra)
    print(f"bench: grid of {len(grid)} points, {repetitions} repetitions -> {out_path}")
    for name, seconds in report.method_times.items():
        line = f"  {name}: {seconds * 1e3:.3f} ms/pass"
        if name in report.speedup_vs_exact:
            line += f" ({report.speedup_vs_exact[name]:.0f}x vs exact2d)"
        print(line)
    print(
        f"  monte-carlo {report.mc_time:.3f} s vs quadrature "
        f"{report.analytic_ber_time * 1e3:.3f} ms "
        f"({report.mc_over_analytic:.0f}x)"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


_HANDLERS = {
    "crosstalk-curve": cmd_crosstalk_curve,
    "ber-curve": cmd_ber_curve,
    "monte-carlo": cmd_montecarlo,
    "optimize": cmd_optimize,
    "rank-modes": cmd_rank_modes,
    "bench": cmd_bench,
}

# Dedicated flags and the config key each one overrides. Boolean flags
# store "true"; valued flags store their argument text.
_FLAG_KEYS = {
    "output": "output.path",
    "method": "method",
    "grid": "sweep.grid",
    "axis": "sweep.axis",
    "trials": "mc.trials",
    "seed": "mc.seed",
    "allow_degraded": "mc.allow_degraded",
    "monte_carlo": "ber.with_mc",
    "candidates": "modes.candidates",
    "lo": "optimize.lo_m",
    "hi": "optimize.hi_m",
    "tol": "optimize.tol_m",
    "repetitions": "bench.repetitions",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamlink",
        description="Crosstalk and BER evaluation for OAM optical links "
        "under pointing errors.",
    )
    parser.add_argument(
        "--version", action="version", version=f"oamlink {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", metavar="FILE", help="flat key=value config file (a run manifest also works)")
    common.add_argument(
        "-s",
        "--set",
        dest="set_items",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key; repeatable",
    )
    common.add_argument("-o", "--output", metavar="PATH", help="output file path")
    common.add_argument("--method", help="crosstalk method(s), comma-separated")
    common.add_argument("--seed", help="Monte Carlo seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "crosstalk-curve",
        parents=[common],
        help="crosstalk coefficients versus offset radius",
    )
    p.add_argument("--grid", help="comma-separated offset radii in meters")

    p = sub.add_parser(
        "ber-curve", parents=[common], help="averaged BER along one swept axis"
    )
    p.add_argument("--axis", help="sweep axis: w0, sigma_theta, or Z")
    p.add_argument("--grid", help="comma-separated axis values (SI units)")
    p.add_argument(
        "--candidates", help="mode sets to draw, e.g. '-2|1;-4,-2|1,3'"
    )
    p.add_argument(
        "--monte-carlo",
        dest="monte_carlo",
        action="store_true",
        default=None,
        help="add ber_mc and ci95 columns",
    )
    p.add_argument("--trials", help="Monte Carlo trials per point")

    p = sub.add_parser(
        "monte-carlo", parents=[common], help="simulated BER estimate"
    )
    p.add_argument("--trials", help="number of trials")
    p.add_argument(
        "--allow-degraded",
        dest="allow_degraded",
        action="store_true",
        default=None,
        help="accept draws below the approximation validity floor",
    )

    p = sub.add_parser(
        "optimize", parents=[common], help="search the BER-minimizing beam waist"
    )
    p.add_argument("--lo", help="lower waist bound, meters")
    p.add_argument("--hi", help="upper waist bound, meters")
    p.add_argument("--tol", help="bracket tolerance, meters")

    p = sub.add_parser(
        "rank-modes", parents=[common], help="order mode sets by averaged BER"
    )
    p.add_argument(
        "--candidates", help="semicolon-separated mode set specs, e.g. '-2|1;-2|2'"
    )

    p = sub.add_parser(
        "bench", parents=[common], help="time the evaluators on a shared grid"
    )
    p.add_argument("--repetitions", help="timing repetitions (median kept)")

    return parser


def _flag_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for attr, key in _FLAG_KEYS.items():
        value = getattr(args, attr, None)
        if value is None:
            continue
        overrides[key] = "true" if value is True else str(value)
    return overrides


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set_items, _flag_overrides(args))
        try:
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"oamlink: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
