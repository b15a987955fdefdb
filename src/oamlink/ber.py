"""Analytical bit error rate for two-stream OOK under joint ML detection.

The receiver observes y = H sqrt(A) + n with a real Gaussian noise vector,
where H is the element-wise square root of the crosstalk coefficient grid
and A is the on/off symbol vector. For two streams the average error
probability conditioned on the pointing offset is a four-term sum of
Q-functions over the stream amplitude vectors h1 and h2 (a union-style
bound, so it ranges up to 1.5 rather than 0.5). Averaging over the Rayleigh
law of the offset radius gives the link-level figure of merit.

The conditional expression counts symbol-vector errors, one term per wrong
hypothesis, and is not divided by the two bits per symbol interval; the
Monte Carlo module counts errors the same way so the two are directly
comparable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.crosstalk import (
    SMALL_OFFSET_FLOOR,
    ApproximationWarning,
    Method,
    ReceiverConfig,
    channel_profile,
    mode_envelope,  # noqa: F401  benchmarks/spans.py traces ber.mode_envelope
)
from oamlink.numerics import gauss_legendre, q_function

__all__ = [
    "PointingStats",
    "ChannelVectors",
    "BerResult",
    "conditional_ber",
    "average_ber",
]

# Per-window quadrature order used on each degeneracy ridge (doubled along
# with the base order by the convergence self-check).
_WINDOW_ORDER = 48


@dataclass(frozen=True)
class PointingStats:
    """Per-axis tracking jitter and the induced radial offset law.

    Each transverse displacement component is theta * distance with
    theta ~ N(0, sigma_theta^2), so the offset radius r_ch is Rayleigh
    with scale sigma_theta * distance.
    """

    sigma_theta: float
    distance: float

    def __post_init__(self) -> None:
        if not (self.sigma_theta > 0 and math.isfinite(self.sigma_theta)):
            raise ValueError(f"sigma_theta must be positive, got {self.sigma_theta!r}")
        if not (self.distance > 0 and math.isfinite(self.distance)):
            raise ValueError(f"distance must be positive, got {self.distance!r}")
        # The density divides by sigma_r^2, which must be a normal float.
        if not (np.finfo(float).tiny <= self.rayleigh_scale * self.rayleigh_scale < math.inf):
            raise ValueError(f"sigma_theta {self.sigma_theta!r} gives a Rayleigh scale "
                             f"{self.rayleigh_scale!r} m whose square is not a normal float")

    @property
    def rayleigh_scale(self) -> float:
        """Scale sigma_r of the Rayleigh offset-radius distribution, meters."""
        return self.sigma_theta * self.distance

    def pdf(self, r) -> np.ndarray:
        """Rayleigh density (r/sigma_r^2) exp(-r^2 / (2 sigma_r^2))."""
        r_arr = np.asarray(r, dtype=float)
        s2 = self.rayleigh_scale**2
        return r_arr / s2 * np.exp(-(r_arr**2) / (2.0 * s2))


@dataclass(frozen=True)
class ChannelVectors:
    """Amplitude gain vectors of the two data streams across the filter bank."""

    h1: np.ndarray
    h2: np.ndarray

    def __post_init__(self) -> None:
        h1 = np.asarray(self.h1, dtype=float)
        h2 = np.asarray(self.h2, dtype=float)
        if h1.ndim != 1 or h1.shape != h2.shape:
            raise ValueError(
                f"h1 and h2 must be 1-d vectors of equal length, got shapes "
                f"{h1.shape} and {h2.shape}"
            )
        if np.any(h1 < 0) or np.any(h2 < 0):
            raise ValueError("amplitude gains must be non-negative")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)


@dataclass(frozen=True)
class BerResult:
    """Averaged BER with the quadrature audit trail.

    ``averaged`` is the Rayleigh-weighted mean of the conditional error
    probability and lives in [0, 1.5]; ``averaged_clamped`` caps it at 0.5
    for plotting against conventional BER axes.
    """

    averaged: float
    method: Method
    quad_order: int = 0
    quad_self_check_rel: float = 0.0
    quad_converged: bool = True
    degraded_node_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.averaged <= 1.5):
            raise ValueError(f"averaged BER {self.averaged!r} outside [0, 1.5]")

    @property
    def averaged_clamped(self) -> float:
        return min(self.averaged, 0.5)


def _four_term_ber(h1: np.ndarray, h2: np.ndarray, n0: float):
    """Four-Q conditional error probability.

    Operates on arrays whose last axis is the filter bank, broadcasting over
    any leading axes.
    """
    scale = 1.0 / math.sqrt(4.0 * n0)
    norm_1 = np.linalg.norm(h1, axis=-1)
    norm_2 = np.linalg.norm(h2, axis=-1)
    norm_sum = np.linalg.norm(h1 + h2, axis=-1)
    norm_diff = np.linalg.norm(h1 - h2, axis=-1)
    return (
        q_function(norm_1 * scale)
        + q_function(norm_2 * scale)
        + 0.5 * q_function(norm_sum * scale)
        + 0.5 * q_function(norm_diff * scale)
    )


def conditional_ber(h: ChannelVectors, n0: float) -> float:
    """Error probability at a fixed pointing offset.

    Q(|h1|/2sqrt(N0)) + Q(|h2|/2sqrt(N0)) + Q(|h1+h2|/2sqrt(N0))/2
    + Q(|h1-h2|/2sqrt(N0))/2. The last term floors at 0.25 when the two
    stream signatures coincide, which is what penalizes symmetric mode
    pairs.
    """
    if not (n0 > 0):
        raise ValueError(f"noise level must be positive, got {n0!r}")
    return float(_four_term_ber(h.h1, h.h2, n0))


def _vectors_from_profile(profile: np.ndarray, modes: ModeSet) -> tuple[np.ndarray, np.ndarray]:
    """Stream amplitude vectors for a batch of coefficient grids.

    ``profile`` has shape (n_points, n_filter, n_tx); returns two arrays of
    shape (n_points, n_filter): sqrt(C) mixed by the mode set's stream matrix.
    """
    if modes.n_streams != 2:
        raise ValueError(f"need exactly 2 data streams, got {modes.n_streams}")
    # einsum, not matmul: BLAS reorders the sum and moves grouped-set BERs.
    h = np.einsum("nft,tk->knf", np.sqrt(profile), modes.stream_matrix)
    return h[0], h[1]


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
    sqrt(2 p! / (pi (p + |l|)!)) with M the stream matrix. g depends on the
    mode set and p alone; each of its sign changes is refined by bisection
    and bracketed with a margin wide enough that the pairwise Q terms decay
    to nothing outside.
    """
    if modes.n_streams != 2:
        return []
    p = geom.radial_index
    terms = []
    for ell, (m1, m2) in zip(modes.tx_modes, modes.stream_matrix.tolist()):
        n = abs(ell)
        norm = math.sqrt(2.0 * math.factorial(p) / (math.pi * math.factorial(p + n)))
        # L_p^n coefficients (numerics.laguerre), highest power first, for Horner.
        lag = [(-1.0) ** m / math.factorial(m) * math.comb(p + n, p - m)
               for m in range(p, -1, -1)]
        terms.append(((m1 - m2) * norm, n, lag))

    def gap(s):
        # A float in the bisection, an array in the probe scan.
        total = 0.0
        for d, n, lag in terms:
            poly = 0.0
            for c in lag:
                poly = poly * (s * s) + c
            total = total + d * abs(s**n * poly)
        return total

    to_s = math.sqrt(2.0) / geom.beam_radius_at_rx
    probe = np.linspace(0.0, upper, 4097)[1:] * to_s
    diff = gap(probe)
    flips = np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]

    windows: list[tuple[float, float, float]] = []
    for idx in flips:
        lo, hi = float(probe[idx]), float(probe[idx + 1])
        f_lo = gap(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = gap(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        r_star = 0.5 * (lo + hi) / to_s
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
        rule = gauss_legendre(n, a, b)
        nodes.append(rule.nodes)
        weights.append(rule.weights)
    return np.concatenate(nodes), np.concatenate(weights)


def average_ber(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    stats: PointingStats,
    method: Method | str = Method.BESSEL_SUM,
    quad_order: int = 64,
) -> BerResult:
    """Rayleigh-averaged error probability over the pointing distribution.

    Gauss-Legendre integration of conditional BER times the Rayleigh
    density on [0, 8 sigma_r]; the excluded tail carries less than 1.3e-14
    of the probability mass. The rule is composed piecewise around each
    stream-amplitude crossing, whose centimeter-scale degeneracy ridge a
    single global rule would step over. The integral is recomputed at twice
    the order as a self-check; a relative shift above 1% marks the result
    as not converged (and is also warned about). A Bessel-based method warns
    with ``ApproximationWarning`` when the whole domain lies below its
    validity floor.
    """
    if not isinstance(quad_order, (int, np.integer)) or not (16 <= quad_order <= 256):
        raise ValueError(f"quad_order must be an integer in [16, 256], got {quad_order!r}")
    method = Method.parse(method)
    sigma_r = stats.rayleigh_scale
    upper = 8.0 * sigma_r
    bessel_based = method not in (Method.EXACT2D, Method.RADIAL_SUM)
    if bessel_based and upper < SMALL_OFFSET_FLOOR:
        warnings.warn(
            f"every averaged offset (up to 8 sigma_r = {upper:.3g} m) is below the "
            f"{SMALL_OFFSET_FLOOR:g} m validity floor of the Bessel-based "
            "approximations; accuracy is degraded",
            ApproximationWarning,
            stacklevel=2,
        )
    windows = _degeneracy_windows(geom, rx, modes, method, upper)

    def averaged_at(order: int, window_order: int) -> tuple[float, float]:
        nodes, weights = _piecewise_rule(windows, upper, order, window_order)
        h1, h2 = _vectors_from_profile(channel_profile(geom, rx, modes, nodes, method), modes)
        cond = _four_term_ber(h1, h2, rx.noise_level)
        value = float(np.dot(weights, stats.pdf(nodes) * cond))
        degraded = (
            float(np.count_nonzero(nodes < SMALL_OFFSET_FLOOR)) / nodes.size
            if bessel_based
            else 0.0
        )
        return value, degraded

    base, degraded_fraction = averaged_at(int(quad_order), _WINDOW_ORDER)
    refined, _ = averaged_at(2 * int(quad_order), 2 * _WINDOW_ORDER)
    scale = max(abs(base), abs(refined), np.finfo(float).tiny)
    self_check = abs(refined - base) / scale
    converged = self_check <= 1e-2
    if not converged:
        warnings.warn(
            f"pointing average did not settle: doubling the quadrature order "
            f"moved the BER by {self_check:.2%}",
            UserWarning,
            stacklevel=2,
        )
    return BerResult(
        averaged=base,
        method=method,
        quad_order=int(quad_order),
        quad_self_check_rel=self_check,
        quad_converged=converged,
        degraded_node_fraction=degraded_fraction,
    )
