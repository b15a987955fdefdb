"""Analytical bit error rate for two-stream OOK under joint ML detection.

The receiver observes y = H sqrt(A) + n with a real Gaussian noise vector,
where H is the element-wise square root of the crosstalk coefficient grid
and A is the on/off symbol vector. For two streams the average error
probability conditioned on the pointing offset is a four-term sum of
Q-functions over the stream amplitude vectors h1 and h2 (a union-style
bound, so it ranges up to 1.5 rather than 0.5). The pointing error is one
number, the per-axis angular jitter sigma_theta: the offset radius at the
receiver is Rayleigh with scale sigma_theta Z, Z the geometry's link
distance, and averaging over it gives the link-level figure of merit.

The conditional expression counts symbol-vector errors, one term per wrong
hypothesis, and is not divided by the two bits per symbol interval; the
Monte Carlo module counts errors the same way so the two are directly
comparable.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from oamlink.beam import REACH_SIGMAS, LinkGeometry, ModeSet, lg_radial_norm
from oamlink.crosstalk import (
    ApproximationWarning,
    Method,
    QuadratureConvergenceWarning,
    ReceiverConfig,
    channel_profile,
    check_averaged_method,
    mode_envelope,  # noqa: F401  benchmarks/spans.py traces ber.mode_envelope
)
from oamlink.numerics import _legendre_rule, is_integer, laguerre_coefficients, q_function

__all__ = [
    "rayleigh_pdf",
    "BerResult",
    "conditional_ber",
    "check_quad_order",
    "check_two_streams",
    "check_average",
    "average_ber",
]

# Per-window quadrature order used on each degeneracy ridge (doubled along
# with the base order by the convergence self-check).
_WINDOW_ORDER = 48

# Points of the cached crossing search's scan of (0, cap]; cap is at most
# twice the call's range, so the steps are no wider than a 4,096-point scan
# of that range.
_SCAN_POINTS = 8192


def rayleigh_pdf(r, scale: float) -> np.ndarray:
    """Rayleigh density (r/sigma_r^2) exp(-r^2 / (2 sigma_r^2)) of the offset
    radius, with the scale sigma_r = ``LinkGeometry.rayleigh_scale``."""
    r_arr = np.asarray(r, dtype=float)
    s2 = scale**2
    return r_arr / s2 * np.exp(-(r_arr**2) / (2.0 * s2))


@dataclass(frozen=True)
class BerResult:
    """Averaged BER with the quadrature audit trail.

    ``averaged`` is the Rayleigh-weighted mean of the conditional error
    probability and lives in [0, 1.5]; ``averaged_clamped`` caps it at 0.5
    for plotting against conventional BER axes.
    """

    averaged: float
    quad_self_check_rel: float = 0.0
    quad_converged: bool = True
    degraded_node_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.averaged <= 1.5):
            raise ValueError(f"averaged BER {self.averaged!r} outside [0, 1.5]")

    @property
    def averaged_clamped(self) -> float:
        return min(self.averaged, 0.5)


def conditional_ber(h1: np.ndarray, h2: np.ndarray, n0: float):
    """Error probability at a fixed pointing offset.

    Q(|h1|/2sqrt(N0)) + Q(|h2|/2sqrt(N0)) + Q(|h1+h2|/2sqrt(N0))/2
    + Q(|h1-h2|/2sqrt(N0))/2 for the stream amplitude vectors h1 and h2.
    The last term floors at 0.25 when the two stream signatures coincide,
    which is what penalizes symmetric mode pairs. The last axis of h1 and
    h2 is the filter bank; any leading axes broadcast, and the four norms
    go through one ``q_function`` call.
    """
    if not (n0 > 0):
        raise ValueError(f"noise level must be positive, got {n0!r}")
    scale = 1.0 / math.sqrt(4.0 * n0)
    stacked = np.stack([h1, h2, h1 + h2, h1 - h2])
    q = q_function(np.sqrt(_squared_norm(stacked)) * scale)
    return q[0] + q[1] + 0.5 * q[2] + 0.5 * q[3]


def _squared_norm(v: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis by whole-column adds, bit for bit
    ``np.add.reduce(v * v, axis=-1)`` up to 128 columns (a filter bank has
    at most 33).

    ``np.add.reduce`` runs its inner loop once per output element, which on
    a 2-4 wide filter bank costs several times the adds themselves. This
    spells out its order for a contiguous axis (numpy's pairwise summation):
    under eight terms, left to right; from eight on, terms k and k + 8i
    share one of eight partial sums, which add as the tree ((0+1)+(2+3)) +
    ((4+5)+(6+7)), and the terms past the last full eight follow in order.
    """
    terms = v * v
    columns = [terms[..., k] for k in range(terms.shape[-1])]
    lanes = 8 if len(columns) >= 8 else 1
    full = len(columns) - len(columns) % lanes
    partial = columns[:lanes]
    for start in range(lanes, full, lanes):
        partial = [a + b for a, b in zip(partial, columns[start : start + lanes])]
    while len(partial) > 1:
        partial = [a + b for a, b in zip(partial[0::2], partial[1::2])]
    total = partial[0]
    for column in columns[full:]:
        total = total + column
    return total


def _vectors_from_profile(profile: np.ndarray, modes: ModeSet) -> tuple[np.ndarray, np.ndarray]:
    """Stream amplitude vectors for a batch of coefficient grids.

    ``profile`` has shape (n_points, n_filter, n_tx); returns two arrays of
    shape (n_points, n_filter): sqrt(C) mixed by the mode set's stream matrix.
    """
    # einsum, not matmul: BLAS reorders the sum and moves grouped-set BERs.
    h = np.einsum("nft,tk->knf", np.sqrt(profile), modes.stream_matrix)
    return h[0], h[1]


def _gap(terms, s):
    """g(s) = sum_l d_l |s^|l| L_p^|l|(s^2)| from ``terms``, one (d_l, |l|,
    L_p^|l| coefficients highest power first) per tx mode: a float in the
    bisection, an array in the scan."""
    total = 0.0
    for d, n, lag in terms:
        poly = 0.0
        for c in lag:
            poly = poly * (s * s) + c
        total = total + d * abs(s**n * poly)
    return total


@functools.lru_cache(maxsize=256)
def _gap_roots(
    tx_modes: tuple[int, ...],
    streams: tuple[tuple[int, ...], ...],
    radial_index: int,
    cap: float,
) -> tuple[float, ...]:
    """Every sign change s* of g on (0, cap], ascending.

    A scan of ``_SCAN_POINTS`` equal steps of (0, cap] brackets each sign
    change, and bisection narrows the bracket until no float lies inside
    (at most 60 steps); s* is the bracket's midpoint. cap is a power of two,
    so every scan point is exact.
    """
    stream_matrix = ModeSet(tx_modes, stream_grouping=streams).stream_matrix
    terms = []
    for ell, (m1, m2) in zip(tx_modes, stream_matrix.tolist()):
        n = abs(ell)
        lag = laguerre_coefficients(radial_index, n)[::-1]
        terms.append(((m1 - m2) * lg_radial_norm(radial_index, ell), n, lag))

    probe = np.arange(1, _SCAN_POINTS + 1) * (cap / _SCAN_POINTS)
    diff = _gap(terms, probe)
    roots = []
    for idx in np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]:
        lo, hi = float(probe[idx]), float(probe[idx + 1])
        f_lo = _gap(terms, lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # no float lies between lo and hi: nothing moves again
            f_mid = _gap(terms, mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    return tuple(roots)


def _degeneracy_windows(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    method: Method,
    upper: float,
) -> list[tuple[float, float, float]]:
    """Offset intervals around the stream-amplitude crossings, if any.

    Where the scalar stream amplitudes a1(r), a2(r) of the separable methods
    cross, those give h1 = h2 exactly and the conditional BER jumps onto the
    0.25 floor over a width set by the noise level, typically centimeters
    against a domain of hundreds of meters. The full-rank methods dip into
    the same near-degenerate spike at the same radii, so every method gets
    the windows. With s = sqrt(2) r / w, a1 - a2 = C(r) g(s), where
    C(r) = 2 pi sqrt(gain / 2 pi) exp(-s^2/2) / (n_m w) > 0 and
    g(s) = sum_l d_l |s^|l| L_p^|l|(s^2)|, d_l = (M[l, 0] - M[l, 1])
    sqrt(2 p! / (pi (p + |l|)!)) (``lg_radial_norm``) with M the stream
    matrix of the two-stream set.

    g depends on the mode set and p alone, so its sign changes are found
    once per process: ``_gap_roots`` caches them (bounded LRU) under the key
    (tx modes, stream partition, p, cap), where cap is the power of two in
    (s_max, 2 s_max] and s_max = sqrt(2) upper / w is the call's scan range.
    The cached search depends only on its key, and each call keeps the
    crossings in (s_max / 4096, s_max], so a call's windows are a function
    of its own arguments whatever ran before it, and no crossing past its
    ``upper`` reaches it. Each kept crossing r* = s* w / sqrt(2) is bracketed
    with a margin wide enough that the pairwise Q terms decay to nothing
    outside, set by a one-radius slope probe of the call's own channel.
    """
    to_s = math.sqrt(2.0) / geom.beam_radius_at_rx
    s_max = upper * to_s
    cap = math.ldexp(1.0, math.frexp(s_max)[1])
    windows: list[tuple[float, float, float]] = []
    for s_star in _gap_roots(modes.tx_modes, modes.streams, geom.radial_index, cap):
        if not s_max / 4096 < s_star <= s_max:
            continue
        r_star = s_star / to_s
        # Probe far enough out that the full-rank methods' nonzero dip floor
        # does not masquerade as slope, but still inside the linear ramp.
        step = 1e-4 * upper
        profile = channel_profile(geom, rx, modes, np.array([r_star + step]), method)
        h1, h2 = _vectors_from_profile(profile, modes)
        slope = float(np.linalg.norm(h1[0] - h2[0])) / step
        if slope > 0.0:
            # Half-width where the ridge's Q argument reaches 12.
            half = 24.0 * math.sqrt(rx.noise_level) / slope
        else:
            half = 1e-3 * upper
        half = min(max(half, 1e-6 * upper), 0.1 * upper)
        windows.append((max(r_star - half, 0.0), r_star, min(r_star + half, upper)))

    windows.sort()
    merged: list[tuple[float, float, float]] = []
    for lo, mid, hi in windows:
        if merged and lo <= merged[-1][2]:
            prev = merged[-1]
            merged[-1] = (prev[0], prev[1], max(hi, prev[2]))
        else:
            merged.append((lo, mid, hi))
    return merged


def _piecewise_rule(
    windows: Sequence[tuple[float, float, float]],
    upper: float,
    order: int,
    window_order: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated Gauss-Legendre nodes and weights on [0, upper].

    The plain rule of the requested order covers each gap between windows;
    each window half gets its own rule, split at the crossing so the kink
    of the ridge profile sits on a piece boundary rather than mid-rule.
    """
    pieces: list[tuple[float, float, int]] = []
    cursor = 0.0
    for lo, mid, hi in windows:
        if lo > cursor:
            pieces.append((cursor, lo, order))
        pieces.append((lo, mid, window_order))
        pieces.append((mid, hi, window_order))
        cursor = hi
    if cursor < upper:
        pieces.append((cursor, upper, order))
    nodes = []
    weights = []
    for a, b, n in pieces:
        if b - a <= upper * 1e-15:
            continue
        piece_nodes, piece_weights = _legendre_rule(n, a, b)
        nodes.append(piece_nodes)
        weights.append(piece_weights)
    return np.concatenate(nodes), np.concatenate(weights)


def check_quad_order(quad_order: int) -> None:
    """Refuses a Gauss-Legendre order that is not an integer in [16, 256]."""
    if not is_integer(quad_order) or not (16 <= quad_order <= 256):
        raise ValueError(f"quad_order must be an integer in [16, 256], got {quad_order!r}")


def check_two_streams(modes: ModeSet) -> None:
    """Refuses a mode set unless it carries the 2 data streams the
    conditional BER is written for."""
    if modes.n_streams != 2:
        raise ValueError(f"the averaged BER needs exactly 2 data streams, "
                         f"{modes.label!r} has {modes.n_streams}")


def check_average(geom: LinkGeometry, rx: ReceiverConfig, modes: ModeSet, sigma_theta: float,
                  method: Method | str, quad_order: int) -> Method:
    """Refuses, before any work, the inputs ``average_ber`` refuses, and
    returns the parsed method; each driver calls it on every average's."""
    method = check_averaged_method(method)
    rx.check_bessel_range(geom, (method,), sigma_theta=sigma_theta)
    check_quad_order(quad_order)
    check_two_streams(modes)
    return method


def average_ber(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    sigma_theta: float,
    method: Method | str = Method.BESSEL_SUM,
    quad_order: int = 64,
) -> BerResult:
    """Rayleigh-averaged error probability over the pointing distribution.

    Gauss-Legendre integration of conditional BER times the Rayleigh
    density of scale sigma_r = sigma_theta Z (``rayleigh_pdf``) on
    [0, 8 sigma_r] (``REACH_SIGMAS``). The rule is
    composed piecewise around each stream-amplitude crossing, whose
    centimeter-scale degeneracy ridge a single global rule would step
    over. The rule at twice the order is the self-check, and both orders
    come from one kernel pass; a relative shift above 1% marks the result
    as not converged and warns with ``QuadratureConvergenceWarning``. A
    Bessel-based method warns with ``ApproximationWarning`` when the whole
    domain lies below its validity floor. ``check_average`` runs first: the
    method (no exact2d), the jitter, the Bessel range at the reach, the
    order and the set (``check_two_streams``).
    """
    method = check_average(geom, rx, modes, sigma_theta, method, quad_order)
    scale = geom.rayleigh_scale(sigma_theta)
    upper = REACH_SIGMAS * scale
    floor = method.validity_floor
    if upper < floor:
        warnings.warn(
            f"every averaged offset (up to 8 sigma_r = {upper:.3g} m) is below the "
            f"{floor:g} m validity floor of the Bessel-based "
            "approximations; accuracy is degraded",
            ApproximationWarning,
            stacklevel=2,
        )
    windows = _degeneracy_windows(geom, rx, modes, method, upper)
    nodes, weights = _piecewise_rule(windows, upper, int(quad_order), _WINDOW_ORDER)
    fine_nodes, fine_weights = _piecewise_rule(windows, upper, 2 * int(quad_order),
                                               2 * _WINDOW_ORDER)
    both = np.concatenate([nodes, fine_nodes])
    h1, h2 = _vectors_from_profile(channel_profile(geom, rx, modes, both, method), modes)
    integrand = rayleigh_pdf(both, scale) * conditional_ber(h1, h2, rx.noise_level)
    base = float(np.dot(weights, integrand[: nodes.size]))
    refined = float(np.dot(fine_weights, integrand[nodes.size :]))
    degraded_fraction = float(np.count_nonzero(nodes < floor)) / nodes.size
    scale = max(abs(base), abs(refined), np.finfo(float).tiny)
    self_check = abs(refined - base) / scale
    converged = self_check <= 1e-2
    if not converged:
        warnings.warn(
            f"pointing average did not settle: doubling the quadrature order "
            f"moved the BER by {self_check:.2%}",
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return BerResult(
        averaged=base,
        quad_self_check_rel=self_check,
        quad_converged=converged,
        degraded_node_fraction=degraded_fraction,
    )
