"""Output checks for benchmark jobs.

A job fails on a non-zero exit, an exception escaping the CLI, or any
problem ``check_output`` finds in the file it wrote. The physics checks
mirror the acceptance criteria: BER in [0, 1.5], every candidate ranked,
the simulation within 3 x CI95 of the analytic average (criterion 06),
zero-offset orthogonality of the reference (criterion 01) and agreement of
the reduced methods with it (criterion 02).

On the seed the reference values were recorded with, ``analytic_cells``
lists every deterministic output cell so the runner can compare it with
the recording to 1e-9 relative. Monte Carlo columns are left out: a
last-ulp change upstream may flip a simulated decision.
"""

from __future__ import annotations

import contextlib
import csv
import math
from typing import Sequence

from workloads import Job

REL_TOL = 1e-9
MC_COLUMNS = ("ber_mc", "ci95")


class OutputError(ValueError):
    """The job's output is missing, malformed or physically wrong."""


def flag_value(argv: Sequence[str], flag: str) -> str:
    """Value of ``--flag VALUE`` or ``--flag=VALUE`` (the last one wins)."""
    found = None
    for i, tok in enumerate(argv):
        if tok == flag and i + 1 < len(argv):
            found = argv[i + 1]
        elif tok.startswith(flag + "="):
            found = tok[len(flag) + 1:]
    if found is None:
        raise OutputError(f"job has no {flag}")
    return found


def set_value(argv: Sequence[str], key: str) -> str:
    """Value of the last ``-s key=VALUE`` in ``argv``."""
    found = None
    for i, tok in enumerate(argv[:-1]):
        if tok == "-s" and argv[i + 1].startswith(key + "="):
            found = argv[i + 1][len(key) + 1:]
    if found is None:
        raise OutputError(f"job does not set {key}")
    return found


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise OutputError("CSV lacks its schema comment line")
    return list(csv.DictReader(lines[1:]))


def read_keyvalues(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if not sep:
                raise OutputError(f"malformed line {line!r}")
            out[key] = value.strip()
    return out


def _finite(row: dict[str, str], column: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, ValueError):
        raise OutputError(f"column {column} is not a number: {row.get(column)!r}") from None
    if not math.isfinite(value):
        raise OutputError(f"column {column} is not finite: {value!r}")
    return value


def _ber(row: dict[str, str], column: str) -> float:
    value = _finite(row, column)
    if not 0.0 <= value <= 1.5:
        raise OutputError(f"{column} = {value!r} outside [0, 1.5]")
    return value


def _check_ber_curve(job: Job, path: str) -> None:
    rows = read_csv(path)
    grid = flag_value(job.argv, "--grid").split(",")
    candidates = flag_value(job.argv, "--candidates").split(";")
    if len(rows) != len(grid) * len(candidates):
        raise OutputError(f"{len(rows)} rows for {len(grid)} points x {len(candidates)} candidates")
    labels = {row["mode_set_id"] for row in rows}
    if labels != set(candidates):
        raise OutputError(f"candidates {sorted(labels)} written, {sorted(candidates)} asked")
    for row in rows:
        if row["status"] != "ok":
            raise OutputError(f"status {row['status']!r}")
        raw = _ber(row, "ber_avg_raw")
        if _ber(row, "ber_avg_clamped") != min(raw, 0.5):
            raise OutputError("ber_avg_clamped is not min(ber_avg_raw, 0.5)")
        if job.kind == "ber-curve-mc":
            ber_mc = _ber(row, "ber_mc")
            ci95 = _finite(row, "ci95")
            if not ci95 > 0.0:
                raise OutputError(f"ci95 = {ci95!r} is not positive")
            if abs(raw - ber_mc) > 3.0 * ci95:
                raise OutputError(
                    f"analytic {raw:.4g} and simulated {ber_mc:.4g} differ by more "
                    f"than 3 x CI95 = {3.0 * ci95:.3g}"
                )


def _check_rank_modes(job: Job, path: str) -> None:
    rows = read_csv(path)
    candidates = flag_value(job.argv, "--candidates").split(";")
    if sorted(row["mode_set_id"] for row in rows) != sorted(candidates):
        raise OutputError(f"ranking lists {[r['mode_set_id'] for r in rows]}, asked {candidates}")
    bers = [_ber(row, "ber_avg") for row in rows]
    if [row["rank"] for row in rows] != [str(i + 1) for i in range(len(rows))]:
        raise OutputError("ranks are not 1..n in order")
    if bers != sorted(bers):
        raise OutputError("ranking is not in increasing BER order")
    if any(row["converged"] != "true" or row["status"] != "ok" for row in rows):
        raise OutputError("a candidate's average did not converge")


def _check_optimize(job: Job, path: str) -> None:
    values = read_keyvalues(path)
    lo, hi = float(flag_value(job.argv, "--lo")), float(flag_value(job.argv, "--hi"))
    try:
        w0 = float(values["optimize.w0_opt_m"])
        ber = float(values["optimize.ber_opt"])
        evaluations = int(values["optimize.evaluations"])
        bracket = [
            (float(values[f"optimize.bracket_{p}_m"]), float(values[f"optimize.bracket_{p}_ber"]))
            for p in ("lo", "mid", "hi")
        ]
    except (KeyError, ValueError) as exc:
        raise OutputError(f"optimize output incomplete: {exc}") from None
    if values.get("optimize.boundary") != "false":
        raise OutputError("optimum on the search boundary")
    if not (lo < w0 < hi and 0.0 <= ber <= 1.5 and evaluations >= 8):
        raise OutputError(f"w0 {w0!r}, ber {ber!r}, {evaluations} evaluations out of range")
    (x0, y0), (x1, y1), (x2, y2) = bracket
    if not (x0 < x1 < x2 and (x1, y1) == (w0, ber) and y1 <= min(y0, y2)):
        raise OutputError(f"bracket {bracket} does not certify the optimum")


def _check_crosstalk_curve(job: Job, path: str) -> None:
    rows = read_csv(path)
    radii = [float(r) for r in flag_value(job.argv, "--grid").split(",")]
    methods = flag_value(job.argv, "--method").split(",")
    tx = set_value(job.argv, "modes.tx").split(",")
    if len(rows) != len(radii) * len(tx) ** 2 * len(methods):
        raise OutputError(f"{len(rows)} rows for {len(radii)} radii x {len(tx)}^2 pairs x {len(methods)} methods")
    c = {}
    for row in rows:
        value = _finite(row, "C_watts")
        if value < 0.0:
            raise OutputError(f"negative coefficient {value!r}")
        dbm = float(row["C_dBm"])
        if not (math.isfinite(dbm) or (dbm == -math.inf and value == 0.0)):
            raise OutputError(f"C_dBm {row['C_dBm']!r} for C_watts {value!r}")
        r, method = float(row["r_ch_m"]), row["method"]
        status = row["status"]
        if r > 0.0 and status != "ok":
            raise OutputError(f"{method} at r = {r} m: status {status!r}")
        # At r = 0 the reference's off-diagonals are numerical zeros, so its
        # grid doubling cannot settle them, and the Bessel forms are outside
        # their validity range; both say so in the status.
        if r == 0.0 and status != "ok":
            settle = method == "exact2d" and "crosstalk integral did not settle" in status
            floor = method.startswith("bessel-") and "below the 1 m validity floor" in status
            if not (settle or floor):
                raise OutputError(f"{method} at r = 0: status {status!r}")
        c[(r, int(row["ell_n"]), int(row["ell_j"]), method)] = value

    orders = [int(t) for t in tx]
    if 0.0 in radii:
        for n in orders:
            for j in orders:
                diag = min(c[(0.0, n, n, "exact2d")], c[(0.0, j, j, "exact2d")])
                if n != j and c[(0.0, n, j, "exact2d")] > 1e-10 * diag:
                    raise OutputError(f"exact2d leaks {n}->{j} at r = 0 (criterion 01)")
    if sorted(orders) == [0, 2, 4]:
        for r in (r for r in radii if 4.0 <= r <= 25.0):
            for n in orders:
                for j in orders:
                    ex = c[(r, n, j, "exact2d")]
                    if abs(c[(r, n, j, "radial-sum")] - ex) > 0.05 * ex:
                        raise OutputError(f"radial-sum off exact2d by > 5% at r = {r} (criterion 02)")
                    if abs(10.0 * math.log10(c[(r, n, j, "bessel-sum")] / ex)) > 1.0:
                        raise OutputError(f"bessel-sum off exact2d by > 1 dB at r = {r} (criterion 02)")


_CHECKS = {
    "ber-curve": _check_ber_curve,
    "ber-curve-mc": _check_ber_curve,
    "rank-modes": _check_rank_modes,
    "optimize": _check_optimize,
    "crosstalk-curve": _check_crosstalk_curve,
}


def check_output(job: Job, path: str) -> None:
    """Raise ``OutputError`` if the file ``job`` wrote is not correct."""
    try:
        _CHECKS[job.kind](job, path)
    except OSError as exc:
        raise OutputError(f"cannot read output: {exc}") from None
    except KeyError as exc:
        raise OutputError(f"output lacks {exc}") from None


def analytic_cells(job: Job, path: str) -> list[list[str]]:
    """Every deterministic cell of the output: a header row of column names,
    then one row of values per output row.

    Left out: Monte Carlo columns, status text, C_dBm (a function of
    C_watts), and the zero-offset off-diagonal coefficients, which are
    numerical zeros checked by criterion 01 instead.
    """
    if job.kind == "optimize":
        values = read_keyvalues(path)
        return [list(values), list(values.values())]
    rows = read_csv(path)
    if not rows:
        return []
    columns = [k for k in rows[0] if k not in MC_COLUMNS and k not in ("status", "C_dBm")]
    table = [columns]
    for row in rows:
        if job.kind == "crosstalk-curve" and float(row["r_ch_m"]) == 0.0 and row["ell_n"] != row["ell_j"]:
            row = dict(row, C_watts="zero-offset off-diagonal")
        table.append([row[k] for k in columns])
    return table


def compact(table: list[list[str]]) -> list[list]:
    """``table`` for storage: finite numbers as floats rounded to 12
    significant digits, well inside the comparison tolerance."""
    def cell(text: str):
        with contextlib.suppress(ValueError):
            return int(text)
        try:
            value = float(text)
        except ValueError:
            return text
        return float(f"{value:.12g}") if math.isfinite(value) else text
    return [table[0], *([cell(c) for c in row] for row in table[1:])] if table else []


def _same(want, got: str) -> bool:
    if isinstance(want, str):
        return want == got
    try:
        value = float(got)
    except ValueError:
        return False
    return value == want or abs(value - want) <= REL_TOL * max(abs(value), abs(want))


def compare_cells(recorded: list[list], measured: list[list[str]]) -> None:
    """Raise ``OutputError`` unless ``measured`` matches the ``compact``
    recording to ``REL_TOL`` relative."""
    if len(recorded) != len(measured) or (recorded and recorded[0] != measured[0]):
        raise OutputError("output rows or columns differ from the recording")
    for want_row, got_row in zip(recorded[1:], measured[1:]):
        for column, want, got in zip(recorded[0], want_row, got_row):
            if not _same(want, got):
                raise OutputError(f"{column}: recorded {want}, got {got}")
