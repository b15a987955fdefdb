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
import contextlib
import csv
import math
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from oamlink import __version__
from oamlink.beam import LinkGeometry, ModeSet, check_offset_radius
from oamlink.ber import average_ber, check_quad_order, check_two_streams
from oamlink.crosstalk import Method, ReceiverConfig, check_averaged_method, crosstalk_matrix
from oamlink.montecarlo import (
    MAX_TRIALS,
    DegradedChannelError,
    TrialConfig,
    check_chunk_memory,
    simulate_ber,
)
from oamlink.numerics import worker_count
from oamlink.sweep import (
    bench_methods,
    check_bench_grid,
    check_candidates,
    check_waist_search,
    optimize_w0,
    rank_mode_sets,
    warning_status,
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


@contextlib.contextmanager
def _config_errors(prefix: str = "", keys: Optional[Mapping[str, str]] = None) -> Iterator[None]:
    """Re-raise a ValueError from the block as a ConfigError.

    The new message is the error's own text after ``prefix``, which names
    the key or section at fault. ``keys`` maps the fields of a typed object
    built in the block to their config keys: an error text that names such
    fields names their keys instead.
    """
    try:
        yield
    except ValueError as exc:
        named = str(exc)
        if keys:
            named = re.sub(r"\b(" + "|".join(keys) + r")\b", lambda m: keys[m[0]], named)
        if named != str(exc):
            raise ConfigError(named) from None
        raise ConfigError(f"{prefix}{exc}") from None


# The keys of the link fields a ``ReceiverConfig.check_bessel_range``
# refusal names beside the argument that set the reach.
_LINK_KEYS = {"aperture_radius": "receiver.aperture_radius_m", "distance": "geometry.distance_m",
              "waist": "geometry.w0_m", "wavelength": "geometry.wavelength_m"}


def _key_values(entries, missing_equals: str, from_file: bool = False) -> dict[str, str]:
    """Raw values from ``key = value`` entries, each paired with its source.

    Unknown and duplicated keys are errors. In a file, ``config.`` prefixes
    are stripped and ``manifest.`` keys skipped, so a run manifest doubles
    as a config file.
    """
    out: dict[str, str] = {}
    for where, entry in entries:
        key, equals, value = entry.partition("=")
        key = key.strip()
        if not equals:
            raise ConfigError(missing_equals.format(where, entry))
        if from_file:
            if key.startswith("manifest."):
                continue
            key = key.removeprefix("config.")
        if key not in DEFAULTS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a dict of raw string values.

    Blank lines and lines starting with '#' are skipped. Keys prefixed
    ``config.`` are accepted with the prefix stripped and ``manifest.``
    keys are ignored, so a run manifest doubles as a config file. Unknown
    and duplicated keys are errors.
    """
    lines = [
        (f"{source}:{lineno}", raw)
        for lineno, raw in enumerate(text.splitlines(), 1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    return _key_values(lines, "{}: expected 'key = value', got {!r}", from_file=True)


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

    def _parsed(self, key: str, parse, must: str):
        try:
            return parse(self.raw[key])
        except ValueError:
            raise ConfigError(f"{key} must {must}, got {self.raw[key]!r}") from None

    def number(self, key: str) -> float:
        return self._parsed(key, float, "be a number")

    def integer(self, key: str) -> int:
        return self._parsed(key, int, "be an integer")

    def flag(self, key: str) -> bool:
        # tuple.index raises ValueError for anything but the two words.
        return self._parsed(
            key, lambda s: ("false", "true").index(s.lower()) == 1, "be true or false"
        )

    def numbers(self, key: str) -> tuple[float, ...]:
        return self._parsed(
            key,
            lambda s: tuple(float(tok) for tok in s.split(",")) if s else (),
            "be comma-separated numbers",
        )

    def with_value(self, key: str, value: float) -> "RunConfig":
        """This config with ``key`` set to ``value``, which reads back exactly."""
        return replace(self, raw={**self.raw, key: repr(value)})

    def _build(self, cls, **fields):
        """``cls`` from one ``(key, parse)`` pair per field; an error the
        object raises about a field names that field's config key."""
        values = {name: parse(key) for name, (key, parse) in fields.items()}
        with _config_errors(keys={name: key for name, (key, _) in fields.items()}):
            return cls(**values)

    def geometry(self) -> LinkGeometry:
        return self._build(
            LinkGeometry,
            wavelength=("geometry.wavelength_m", self.number),
            waist=("geometry.w0_m", self.number),
            radial_index=("geometry.radial_index", self.integer),
            distance=("geometry.distance_m", self.number),
        )

    def receiver(self) -> ReceiverConfig:
        return self._build(
            ReceiverConfig,
            aperture_radius=("receiver.aperture_radius_m", self.number),
            responsivity=("receiver.responsivity_a_per_w", self.number),
            apd_gain=("receiver.apd_gain", self.number),
            noise_level=("receiver.noise_level", self.number),
            k_r=("receiver.k_r", self.integer),
        )

    def mode_set(self) -> ModeSet:
        def orders(key: str) -> list[int]:
            return self._parsed(key, lambda s: [int(tok) for tok in s.split(",")],
                                "be comma-separated integers")

        tx = orders("modes.tx")
        flt = orders("modes.filter") if self.is_set("modes.filter") else None
        grouping = None
        if self.is_set("modes.grouping"):
            with _config_errors("modes.grouping: "):
                grouping = ModeSet.parse(self.text("modes.grouping")).streams
        # Each key's value is checked on top of the ones before it; an
        # unset key adds nothing to check.
        for key, args in (("modes.tx", (tx,)), ("modes.filter", (tx, flt)),
                          ("modes.grouping", (tx, flt, grouping))):
            if args[-1] is not None:
                with _config_errors(f"{key}: "):
                    modes = ModeSet(*args)
        return modes

    def streams_key(self) -> str:
        """The key that sets the streams of ``mode_set()``."""
        return "modes.grouping" if self.is_set("modes.grouping") else "modes.tx"

    def candidates(self) -> tuple[ModeSet, ...]:
        raw = self.text("modes.candidates")
        if not raw:
            return ()
        with _config_errors("modes.candidates: ", keys={"candidates": "modes.candidates"}):
            sets = tuple(ModeSet.parse(part) for part in raw.split(";"))
            check_candidates(sets)
        return sets

    def two_stream_sets(self, candidates: Sequence[ModeSet] = ()) -> tuple[ModeSet, ...]:
        """``candidates``, or else the one set of ``modes.tx``; refused before
        any work, naming the key, unless each has the averaged BER's 2 streams."""
        sets, key = tuple(candidates), "modes.candidates"
        if not sets:
            sets, key = (self.mode_set(),), self.streams_key()
        with _config_errors(f"{key}: "):
            for modes in sets:
                check_two_streams(modes)
        return sets

    def methods(self) -> tuple[Method, ...]:
        with _config_errors():
            return Method.parse_distinct(self.text("method").split(","))

    def averaged_methods(self) -> tuple[Method, ...]:
        """Methods for a jitter-averaged command, which refuses exact2d
        (``check_averaged_method``)."""
        with _config_errors():
            return tuple(check_averaged_method(m) for m in self.methods())

    def single_method(self) -> Method:
        """The one method of a Monte Carlo, optimize or rank-modes run; like
        every jitter-averaged command, these refuse exact2d."""
        if len(self.methods()) != 1:
            raise ConfigError(
                f"this command needs exactly one method, got {self.text('method')!r}"
            )
        return self.averaged_methods()[0]

    def link(self, methods: Sequence[Method]) -> tuple[LinkGeometry, ReceiverConfig, float]:
        """Link and angular jitter sigma_theta of the commands that draw or
        average over the pointing jitter with ``methods``; refuses Bessel
        arguments past their range at the offsets the jitter reaches."""
        if not self.is_set("pointing.sigma_theta_rad"):
            raise ConfigError(
                "this command averages over pointing jitter; set "
                "pointing.sigma_theta_rad"
            )
        geom, rx = self.geometry(), self.receiver()
        sigma_theta = self.number("pointing.sigma_theta_rad")
        with _config_errors(keys={**_LINK_KEYS, "sigma_theta": "pointing.sigma_theta_rad"}):
            rx.check_bessel_range(geom, methods, sigma_theta=sigma_theta)
        return geom, rx, sigma_theta

    def quad_order(self) -> int:
        """Gauss-Legendre order of the jitter average."""
        quad_order = self.integer("quad.order")
        with _config_errors(keys={"quad_order": "quad.order"}):
            check_quad_order(quad_order)
        return quad_order

    def trial_config(self) -> TrialConfig:
        """Monte Carlo run settings."""
        trials = self.integer("mc.trials")
        seed = self.integer("mc.seed")
        allow_degraded = self.flag("mc.allow_degraded")
        with _config_errors(keys={"trials": "mc.trials", "seed": "mc.seed"}):
            return TrialConfig(trials, seed, allow_degraded=allow_degraded)

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
    set_entries = [("--set", item) for item in set_items]
    merged.update(_key_values(set_entries, "{} expects KEY=VALUE, got {!r}"))
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
    path: str, command: str, cfg: RunConfig, extra: Mapping[str, object]
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
    """``warning_status(fn, *args)``, with an error folded into the status
    cell too: "error: Type: message" with a None result (warnings raised
    before the error are dropped)."""
    try:
        return warning_status(fn, *args)
    except Exception as exc:
        return None, f"error: {type(exc).__name__}: {exc}"


class _Output(NamedTuple):
    """What a command hands to ``run_command``.

    ``body`` is either ``(schema, header, rows)`` for a CSV file or the
    text of the file; ``facts`` go into the manifest and ``summary`` into
    the one stdout line.
    """

    body: tuple | str
    facts: dict[str, object]
    summary: str
    code: int = EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_crosstalk_curve(cfg: RunConfig) -> _Output:
    geom = cfg.geometry()
    rx = cfg.receiver()
    modes = cfg.mode_set()
    methods = cfg.methods()
    tx_power = cfg.number("receiver.tx_power_w")
    if not (0.0 < tx_power < math.inf):
        raise ConfigError(f"receiver.tx_power_w must be finite and > 0, got {tx_power!r}")
    radii = cfg.numbers("sweep.grid")
    key = "sweep.grid value"
    if cfg.is_set("pointing.r_ch_m"):
        if radii:
            raise ConfigError(
                "sweep.grid and pointing.r_ch_m both give offset radii; clear one "
                "(e.g. --set pointing.r_ch_m=)"
            )
        radii = (cfg.number("pointing.r_ch_m"),)
        key = "pointing.r_ch_m"
    if not radii:
        raise ConfigError(
            "crosstalk-curve needs offset radii: set sweep.grid (meters) or "
            "pointing.r_ch_m for a single point"
        )
    with _config_errors(keys={**_LINK_KEYS, "r_ch": key, "r_max": key}):
        check_offset_radius(radii)
        rx.check_bessel_range(geom, methods, r_max=max(radii))

    # Evaluate one matrix per (radius, method), then emit rows with the
    # method innermost so the per-pair method comparison sits on adjacent
    # lines. A failed matrix leaves nan cells and its error as the status.
    evaluated = {}
    for r in radii:
        for method in methods:
            evaluated[(r, method)] = _capture(crosstalk_matrix, geom, rx, modes, r, method)

    rows = []
    errors = 0
    for r in radii:
        for j, ell_j in enumerate(modes.filter_modes):
            for i, ell_n in enumerate(modes.tx_modes):
                for method in methods:
                    values, status = evaluated[(r, method)]
                    c = math.nan if values is None else float(values[j, i])
                    errors += values is None
                    rows.append((r, ell_n, ell_j, method.value, c, _dbm(c, tx_power), status))
    return _Output(
        (
            "oamlink/crosstalk-curve v1; units: r_ch_m=m, C_watts=W, C_dBm=dBm(P_tx)",
            ("r_ch_m", "ell_n", "ell_j", "method", "C_watts", "C_dBm", "status"),
            rows,
        ),
        {"rows": len(rows), "error_rows": errors, "k_r": rx.k_r},
        f"{len(rows)} rows",
        EXIT_NONCONVERGED if errors else EXIT_OK,
    )


# The config key each sweep axis sets, by the axis name the schema line spells.
_AXIS_KEYS = {"w0": "geometry.w0_m", "sigma_theta": "pointing.sigma_theta_rad",
              "Z": "geometry.distance_m"}


def cmd_ber_curve(cfg: RunConfig) -> _Output:
    methods = cfg.averaged_methods()
    axes = {name.lower(): name for name in _AXIS_KEYS}
    axis = axes.get(cfg.text("sweep.axis").strip().lower())
    if axis is None:
        raise ConfigError(f"sweep.axis: unknown sweep axis {cfg.text('sweep.axis')!r}; "
                          f"expected one of: {', '.join(_AXIS_KEYS)}")
    grid = cfg.numbers("sweep.grid")
    if not grid:
        raise ConfigError("ber-curve needs sweep.grid values for the chosen axis")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"sweep.grid must be strictly increasing, got {grid}")
    quad_order = cfg.quad_order()
    # Each point's link is the config with the axis key set to the grid
    # value, so a base value that the sweep replaces is never checked, and a
    # refusal that names the axis key names it as the sweep.grid value.
    key = _AXIS_KEYS[axis]
    with _config_errors(keys={key: f"sweep.grid value for {key}"}):
        points = [cfg.with_value(key, value).link(methods) for value in grid]
    candidates = cfg.two_stream_sets(cfg.candidates())
    with_mc = cfg.flag("ber.with_mc")
    trial_cfg = None
    if with_mc:
        trial_cfg = cfg.trial_config()
        total = trial_cfg.trials * len(grid) * len(candidates) * len(methods)
        if total > MAX_TRIALS:
            raise ConfigError(f"mc.trials x sweep.grid values x modes.candidates x method makes "
                              f"{total} simulated trials; a command runs at most {MAX_TRIALS}")

    rows = []
    errors = 0
    unconverged = 0
    # Every simulation here runs mc.trials under one worker setting, so
    # each has the same thread and chunk layout.
    layout = {}
    for value, (geom, rx, sigma_theta) in zip(grid, points):
        for modes in candidates:
            label = modes.label
            for method in methods:
                res, status = _capture(average_ber, geom, rx, modes, sigma_theta, method, quad_order)
                if res is None:
                    raw = clamped = math.nan
                    errors += 1
                else:
                    raw, clamped = res.averaged, res.averaged_clamped
                    unconverged += not res.quad_converged
                row = [value, label, method.value, raw, clamped]
                if with_mc:
                    try:
                        outcome = simulate_ber(geom, rx, modes, sigma_theta, trial_cfg, method)
                        row.extend([outcome.ber_hat, outcome.ci95_halfwidth])
                        layout = {"workers": outcome.workers, "chunks": outcome.chunks}
                    except DegradedChannelError as exc:
                        row.extend([math.nan, math.nan])
                        status = f"error: {type(exc).__name__}: {exc}"
                        errors += 1
                row.append(status)
                rows.append(row)
    mc_columns = ["ber_mc", "ci95"] if with_mc else []
    return _Output(
        (
            f"oamlink/ber-curve v1; axis={axis} (SI units); ber columns are "
            "probabilities",
            ["axis_value", "mode_set_id", "method", "ber_avg_raw", "ber_avg_clamped",
             *mc_columns, "status"],
            rows,
        ),
        {
            "rows": len(rows),
            "error_rows": errors,
            "unconverged_rows": unconverged,
            "quad_order": quad_order,
            **layout,
        },
        f"{len(rows)} rows",
        EXIT_NONCONVERGED if (errors or unconverged) else EXIT_OK,
    )


def cmd_montecarlo(cfg: RunConfig) -> _Output:
    method = cfg.single_method()
    geom, rx, sigma_theta = cfg.link((method,))
    modes = cfg.mode_set()
    with _config_errors(f"{cfg.streams_key()}: "):
        check_chunk_memory(modes)
    trial_cfg = cfg.trial_config()
    outcome = simulate_ber(geom, rx, modes, sigma_theta, trial_cfg, method)
    return _Output(
        (
            "oamlink/monte-carlo v1; ber_mc and ci95 are probabilities",
            ("trials", "errors", "bit_errors", "ber_mc", "ci95", "degraded_fraction",
             "method", "seed", "status"),
            [(outcome.trials, outcome.errors, outcome.bit_errors, outcome.ber_hat,
              outcome.ci95_halfwidth, outcome.degraded_fraction, method.value,
              trial_cfg.seed, "ok")],
        ),
        {
            "workers": outcome.workers,
            "chunks": outcome.chunks,
            "seed": trial_cfg.seed,
            "degraded_fraction": repr(outcome.degraded_fraction),
        },
        f"ber={outcome.ber_hat:.6g} +/- {outcome.ci95_halfwidth:.2g} "
        f"({outcome.trials} trials, {outcome.workers} workers)",
    )


def cmd_optimize(cfg: RunConfig) -> _Output:
    method = cfg.single_method()
    lo, hi = cfg.number("optimize.lo_m"), cfg.number("optimize.hi_m")
    tol = cfg.number("optimize.tol_m")
    with _config_errors(keys={"w_lo": "optimize.lo_m", "w_hi": "optimize.hi_m",
                              "tol": "optimize.tol_m"}):
        check_waist_search(lo, hi, tol)
    quad_order = cfg.quad_order()
    # The search replaces the waist, so its link is the config with each
    # bound, which it evaluates, as the waist; geometry.w0_m is never checked.
    for key, bound in (("optimize.lo_m", lo), ("optimize.hi_m", hi)):
        with _config_errors(keys={"geometry.w0_m": key}):
            geom, rx, sigma_theta = cfg.with_value("geometry.w0_m", bound).link((method,))
    (modes,) = cfg.two_stream_sets()
    result, status = warning_status(
        optimize_w0, geom, rx, modes, sigma_theta, (lo, hi), tol, method, quad_order
    )
    (b_lo, b_mid, b_hi) = result.bracket
    boundary = str(result.boundary).lower()
    # Floats print in their shortest round-trip form, as in the CSVs.
    report = {
        "w0_opt_m": result.w0_opt,
        "ber_opt": result.ber_opt,
        "boundary": boundary,
        "evaluations": result.evaluations,
        "method": method.value,
        "tol_m": tol,
        "bracket_lo_m": b_lo[0],
        "bracket_lo_ber": b_lo[1],
        "bracket_mid_m": b_mid[0],
        "bracket_mid_ber": b_mid[1],
        "bracket_hi_m": b_hi[0],
        "bracket_hi_ber": b_hi[1],
    }
    flag = " (boundary)" if result.boundary else ""
    return _Output(
        "".join(f"optimize.{key} = {_fmt(value)}\n" for key, value in report.items()),
        {"boundary": boundary, "evaluations": result.evaluations, "quad_order": quad_order,
         "status": status},
        f"w0*={result.w0_opt:.6g} m, ber*={result.ber_opt:.6g}{flag} "
        f"[{result.evaluations} evaluations]",
        EXIT_BOUNDARY if result.boundary else EXIT_OK,
    )


def cmd_rank_modes(cfg: RunConfig) -> _Output:
    quad_order = cfg.quad_order()
    method = cfg.single_method()
    geom, rx, sigma_theta = cfg.link((method,))
    candidates = cfg.candidates()
    if not candidates:
        raise ConfigError("rank-modes needs modes.candidates, e.g. '-2|1;-2|2'")
    cfg.two_stream_sets(candidates)
    ranking = rank_mode_sets(geom, rx, candidates, sigma_theta, method, quad_order)
    rows = [
        (
            r.rank,
            r.label,
            r.ber,
            method.value,
            str(r.converged).lower(),
            r.status,
        )
        for r in ranking
    ]
    unconverged = sum(not r.converged for r in ranking)
    best = ranking[0]
    return _Output(
        (
            "oamlink/rank-modes v1; ber_avg is a probability",
            ("rank", "mode_set_id", "ber_avg", "method", "converged", "status"),
            rows,
        ),
        {"candidates": len(candidates), "unconverged": unconverged, "quad_order": quad_order},
        f"best {best.label} at ber={best.ber:.6g} ({len(ranking)} candidates)",
        EXIT_NONCONVERGED if unconverged else EXIT_OK,
    )


def cmd_bench(cfg: RunConfig) -> _Output:
    quad_order = cfg.quad_order()
    # The bench's average and simulation run bessel-sum whatever it times.
    geom, rx, sigma_theta = cfg.link((Method.BESSEL_SUM,))
    (modes,) = cfg.two_stream_sets()
    methods = cfg.methods()
    r_min = cfg.number("bench.r_min_m")
    r_max = cfg.number("bench.r_max_m")
    n_points = cfg.integer("bench.grid_points")
    repetitions = cfg.integer("bench.repetitions")
    mc_trials = cfg.integer("bench.mc_trials")
    seed = cfg.integer("mc.seed")
    # TrialConfig names the count "trials"; the budget message never does.
    with _config_errors(keys={**_LINK_KEYS, "r_min": "bench.r_min_m", "r_max": "bench.r_max_m",
                              "n_points": "bench.grid_points", "repetitions": "bench.repetitions",
                              "mc_trials": "bench.mc_trials", "trials": "bench.mc_trials",
                              "seed": "mc.seed"}):
        check_bench_grid(r_min, r_max, n_points, repetitions, mc_trials, seed)
        rx.check_bessel_range(geom, methods, r_max=r_max)
    report = bench_methods(geom, rx, modes, sigma_theta, r_min, r_max, n_points,
                           repetitions, methods, mc_trials, seed, quad_order)

    # Wall times vary run to run, so they go to the manifest and stdout;
    # the CSV records only what was benchmarked, keeping reruns
    # byte-identical. The bench times exact2d first unless methods lists it.
    roles = [(name, "reference" if name == Method.EXACT2D.value else "candidate")
             for name in report.method_times]
    roles += [("monte-carlo", "estimator"), ("quadrature-average", "estimator")]
    rows = [(*role, n_points, repetitions, mc_trials) for role in roles]
    speedups = report.speedup_vs_exact.items()
    return _Output(
        (
            "oamlink/bench v1; measured seconds live in the manifest and stdout",
            ("method", "role", "grid_size", "repetitions", "mc_trials"),
            rows,
        ),
        {
            "workers": worker_count(),
            **{f"median_s.{name}": f"{s:.6f}" for name, s in report.method_times.items()},
            **{f"speedup.{name}": f"{ratio:.2f}" for name, ratio in speedups},
            "mc_median_s": f"{report.mc_time:.6f}",
            "analytic_median_s": f"{report.analytic_ber_time:.6f}",
            "mc_over_analytic": f"{report.mc_over_analytic:.2f}",
        },
        f"grid of {n_points} points, {repetitions} repetitions"
        + "".join(f", {name} {ratio:.0f}x" for name, ratio in speedups)
        + f" vs exact2d, monte-carlo {report.mc_over_analytic:.0f}x quadrature",
    )


# ---------------------------------------------------------------------------
# command table, argument parsing and the one output path


# Dedicated flags as (flag, config key it overrides, help). The parser
# stores each under its key; a key whose default is true/false makes the
# flag a switch that stores "true".
_COMMON_FLAGS = [("--method", "method", "crosstalk method(s), comma-separated")]
# Only the commands that read mc.seed offer it.
_SEED = ("--seed", "mc.seed", "Monte Carlo seed")

# command: (handler, help, dedicated flags)
_COMMANDS = {
    "crosstalk-curve": (
        cmd_crosstalk_curve,
        "crosstalk coefficients versus offset radius",
        [("--grid", "sweep.grid", "comma-separated offset radii in meters")],
    ),
    "ber-curve": (
        cmd_ber_curve,
        "averaged BER along one swept axis",
        [
            ("--axis", "sweep.axis", "sweep axis: w0, sigma_theta, or Z"),
            ("--grid", "sweep.grid", "comma-separated axis values (SI units)"),
            ("--candidates", "modes.candidates", "mode sets to draw, e.g. '-2|1;-4,-2|1,3'"),
            ("--monte-carlo", "ber.with_mc", "add ber_mc and ci95 columns"),
            ("--trials", "mc.trials", "Monte Carlo trials per point"),
            _SEED,
        ],
    ),
    "monte-carlo": (
        cmd_montecarlo,
        "simulated BER estimate",
        [
            ("--trials", "mc.trials", "number of trials"),
            ("--allow-degraded", "mc.allow_degraded",
             "accept draws below the approximation validity floor"),
            _SEED,
        ],
    ),
    "optimize": (
        cmd_optimize,
        "search the BER-minimizing beam waist",
        [
            ("--lo", "optimize.lo_m", "lower waist bound, meters"),
            ("--hi", "optimize.hi_m", "upper waist bound, meters"),
            ("--tol", "optimize.tol_m", "bracket tolerance, meters"),
        ],
    ),
    "rank-modes": (
        cmd_rank_modes,
        "order mode sets by averaged BER",
        [("--candidates", "modes.candidates",
          "semicolon-separated mode set specs, e.g. '-2|1;-2|2'")],
    ),
    "bench": (
        cmd_bench,
        "time the evaluators on a shared grid",
        [("--repetitions", "bench.repetitions", "timing repetitions (median kept)"), _SEED],
    ),
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
    common.add_argument("-o", "--output", dest="output.path", metavar="PATH", help="output file path")

    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for flag, key, flag_help in _COMMON_FLAGS + flags:
            if DEFAULTS[key] in ("true", "false"):
                p.add_argument(flag, dest=key, action="store_const", const="true", help=flag_help)
            else:
                p.add_argument(flag, dest=key, metavar=flag[2:].upper(), help=flag_help)
    # For _parse_args, which reads it with get_default; no flag sets it.
    parser.set_defaults(command_parsers=sub.choices)
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, with a known command's arguments parsed
    by that command's parser alone.

    The top-level parser would first scan and convert every argument only
    to hand them all to the command's parser, about two fifths of the
    parse. Anything else (a top-level flag, an unknown command, an
    argument the command does not take) goes the top-level way, so its
    messages are unchanged.
    """
    command = parser.get_default("command_parsers").get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run_command(command: str, cfg: RunConfig) -> int:
    """Run one command and write what it returns: the output file, its
    manifest sidecar and one summary line on stdout.

    A failed evaluation exits 3 with no file: a Monte Carlo run with too
    many degraded draws, or numbers out of range for the numerics (a
    configuration error is not one of these).
    """
    path = cfg.output_path(command)
    start = time.perf_counter()
    try:
        out = _COMMANDS[command][0](cfg)
    except ConfigError:
        raise
    except (DegradedChannelError, ValueError, ArithmeticError) as exc:
        print(f"{command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    wall = time.perf_counter() - start
    if isinstance(out.body, str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out.body)
    else:
        write_csv(path, *out.body)
    write_manifest(path + ".manifest", command, cfg, {**out.facts, "wall_time_s": f"{wall:.3f}"})
    print(f"{command}: {out.summary} -> {path} ({wall:.2f}s)")
    return out.code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(build_parser(), sys.argv[1:] if argv is None else list(argv))
    flags = {
        key: value
        for key, value in vars(args).items()
        if key in DEFAULTS and value is not None
    }
    try:
        cfg = load_config(args.config, args.set_items, flags)
        with _config_errors():
            worker_count()
        return run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"oamlink: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
