"""Intermodal crosstalk evaluators.

Five ways to compute the power C leaking from transmitted OAM order ell_n
into the receiver phase filter matched to ell_j, ordered from reference
quality to cheapest:

- ``exact2d``: the full 2D aperture integral (azimuthal projection of the
  shifted field, then a weighted radial integral), with a grid-doubling
  convergence check. This is the oracle the others are judged against.
- ``radial-sum``: keeps the azimuthal integral exact (in closed form) but
  evaluates the radial integral on k_r uniformly spaced sample radii.
- ``bessel-integral``: freezes the slowly varying envelope at the offset
  radius and reduces the azimuthal integral analytically to a squared
  Bessel function, leaving a single smooth radial integral.
- ``bessel-sum``: the same reduction with the radial integral discretized
  on the k_r sample radii; a closed-form weighted sum of Bessel values.
- ``asymptotic``: the large-offset limit of the Bessel reduction.

Each method has one kernel, batched over offset radii (``channel_profile``);
``crosstalk`` and ``crosstalk_matrix`` evaluate it at a single offset. The
Bessel-integral and Bessel-sum forms assume the offset radius is large
against the aperture; below ``SMALL_OFFSET_FLOOR`` those single-offset views
still return values but flag degraded accuracy with ``ApproximationWarning``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ive

from oamlink.beam import (
    LinkGeometry,
    ModeSet,
    PointingState,
    lg_field,
    shifted_aperture_field,  # noqa: F401  benchmarks/spans.py traces crosstalk.shifted_aperture_field
)
from oamlink.numerics import BESSEL_MAX_ARG, bessel_j, gauss_legendre, laguerre

__all__ = [
    "SMALL_OFFSET_FLOOR",
    "SPECTRUM_MAX_ORDER",
    "Method",
    "ReceiverConfig",
    "CrosstalkMatrix",
    "ExactEvaluation",
    "ApproximationWarning",
    "QuadratureConvergenceWarning",
    "crosstalk_exact",
    "crosstalk_exact_detailed",
    "crosstalk",
    "crosstalk_matrix",
    "filter_spectrum",
]

# Below this offset radius (meters) the Bessel-based approximations degrade;
# for inter-satellite jitter scales such offsets are rare.
SMALL_OFFSET_FLOOR = 1.0

# Guard for the azimuthal spectrum instrument.
SPECTRUM_MAX_ORDER = 20


class ApproximationWarning(UserWarning):
    """An approximation was evaluated outside its stated validity region."""


class QuadratureConvergenceWarning(UserWarning):
    """Grid doubling changed the result by more than the accepted tolerance."""


class Method(str, Enum):
    """Crosstalk evaluation method."""

    EXACT2D = "exact2d"
    RADIAL_SUM = "radial-sum"
    BESSEL_INTEGRAL = "bessel-integral"
    BESSEL_SUM = "bessel-sum"
    ASYMPTOTIC = "asymptotic"

    @classmethod
    def parse(cls, name: "Method | str") -> "Method":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown method {name!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver-side parameters.

    Parameters
    ----------
    aperture_radius : float
        Radius of the circular collecting aperture, meters.
    responsivity : float
        Photodetector responsivity, A/W.
    apd_gain : float
        APD multiplication gain (>= 1).
    noise_level : float
        Variance N0 of the real Gaussian noise per filter branch.
    k_r : int
        Number of radial sample points used by the discretized evaluators.
    """

    aperture_radius: float
    responsivity: float = 1.0
    apd_gain: float = 1.0
    noise_level: float = 1e-12
    k_r: int = 6

    def __post_init__(self) -> None:
        if not (self.aperture_radius > 0 and math.isfinite(self.aperture_radius)):
            raise ValueError(f"aperture_radius must be positive, got {self.aperture_radius!r}")
        if not (0 < self.responsivity < math.inf):
            raise ValueError(f"responsivity must be finite and positive, got {self.responsivity!r}")
        if not (1 <= self.apd_gain < math.inf):
            raise ValueError(f"apd_gain must be finite and >= 1, got {self.apd_gain!r}")
        if not (0 < self.noise_level < math.inf):
            raise ValueError(f"noise_level must be finite and positive, got {self.noise_level!r}")
        if not isinstance(self.k_r, (int, np.integer)) or not (2 <= self.k_r <= 64):
            raise ValueError(f"k_r must be an integer in [2, 64], got {self.k_r!r}")

    @property
    def gain(self) -> float:
        """Combined scalar gain: responsivity times APD gain."""
        return self.responsivity * self.apd_gain

    def check_bessel_range(self, geom: LinkGeometry, r_max: float) -> None:
        """Refuses Bessel arguments past ``BESSEL_MAX_ARG`` at offsets up to
        ``r_max``: |beta| = 2|c| r_a r (``_ring_projection``) bounds k r_a r/R."""
        c = 1.0 / geom.beam_radius_at_rx**2 + 0.5j * geom.wavenumber / geom.curvature_at_rx
        largest = 2.0 * abs(c) * self.aperture_radius * r_max
        if not largest <= BESSEL_MAX_ARG:
            raise ValueError(
                f"aperture_radius {self.aperture_radius!r} m takes Bessel arguments up to "
                f"{largest:.3g} at offsets up to {r_max:.3g} m, past {BESSEL_MAX_ARG:g}"
            )


@dataclass(frozen=True)
class ExactEvaluation:
    """Reference-integral result with its convergence audit trail."""

    value: float | np.ndarray
    converged: bool
    rel_change: float
    phi_points: int
    radial_order: int


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Grid of crosstalk coefficients, rows indexed by filter mode.

    ``values[j, i]`` is C for transmitted mode ``tx_modes[i]`` seen through
    the filter matched to ``filter_modes[j]``; the element-wise square root
    is the amplitude-domain channel matrix.
    """

    values: np.ndarray
    tx_modes: tuple[int, ...]
    filter_modes: tuple[int, ...]
    method: Method
    pointing: PointingState

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.filter_modes), len(self.tx_modes)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(self.filter_modes)} filters x {len(self.tx_modes)} tx modes"
            )
        if np.any(vals < 0):
            raise ValueError("crosstalk coefficients must be non-negative")
        object.__setattr__(self, "values", vals)

    @property
    def amplitude_matrix(self) -> np.ndarray:
        """Element-wise square root of the coefficient grid."""
        return np.sqrt(self.values)


# ---------------------------------------------------------------------------
# shared pieces

def _envelope_prefactor(geom: LinkGeometry, rx: ReceiverConfig, n_m: int, ell_n: int) -> float:
    """Gain and normalization common to every evaluator.

    The 1/(2 pi) makes the azimuthal projection kernel orthonormal, so the
    coefficients of one transmitted mode sum over all filter orders to the
    gain-weighted power its field actually delivers through the aperture.
    """
    p = geom.radial_index
    w = geom.beam_radius_at_rx
    return (
        rx.gain
        / (2.0 * math.pi * n_m**2 * w**2)
        * 2.0
        * math.factorial(p)
        / (math.pi * math.factorial(p + abs(ell_n)))
    )


def _frozen_envelope_sq(geom: LinkGeometry, ell_n: int, r_ch) -> np.ndarray:
    """Squared azimuthal-integral envelope frozen at the offset radius.

    [2*pi * (sqrt(2) r_ch / w)^{|ell_n|} L_p^{|ell_n|}(2 r_ch^2/w^2)
     exp(-r_ch^2/w^2)]^2, vectorized over r_ch.
    """
    w = geom.beam_radius_at_rx
    r = np.asarray(r_ch, dtype=float)
    t = 2.0 * r**2 / w**2
    amp = (
        2.0
        * math.pi
        * np.sqrt(t) ** abs(ell_n)
        * laguerre(geom.radial_index, abs(ell_n), t)
        * np.exp(-(r**2) / w**2)
    )
    return amp**2


def mode_envelope(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    ell_n: int,
    r_ch,
) -> np.ndarray:
    """Transmit-mode factor of the separable coefficient approximations.

    The three Bessel-reduction methods all factor each coefficient into
    this envelope (a function of the transmitted order and the offset
    radius alone) times a radial factor that depends only on the filter
    order. BER averaging no longer calls it: it locates the radii where
    two stream envelopes cross (where those methods degenerate) from the
    waist-free factor of their gap (``ber._degeneracy_windows``).
    """
    return _envelope_prefactor(geom, rx, n_m, ell_n) * _frozen_envelope_sq(
        geom, ell_n, r_ch
    )


def _uniform_panel_weights(n_panels: int, step: float) -> np.ndarray:
    """Quadrature weights for nodes 0..n_panels on a uniform grid.

    Composite Simpson weights for an even panel count; for odd counts the
    last three panels use the 3/8 rule. Weights sum to n_panels * step.
    """
    if n_panels < 1:
        raise ValueError("need at least one panel")
    if n_panels == 1:
        return np.array([0.5, 0.5]) * step
    w = np.zeros(n_panels + 1)
    if n_panels % 2 == 0:
        w[:] = 2.0
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= step / 3.0
    elif n_panels == 3:
        w[:] = 3.0 * step / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    else:
        head = _uniform_panel_weights(n_panels - 3, step)
        w[: n_panels - 2] += head
        w[n_panels - 3 :] += 3.0 * step / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def _sample_radii_and_weights(rx: ReceiverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Radial sample points r_a*k/k_r for k = 1..k_r with their weights.

    The k = 0 node is dropped because the radial integrand carries an
    explicit factor r' and vanishes there.
    """
    step = rx.aperture_radius / rx.k_r
    nodes = step * np.arange(1, rx.k_r + 1)
    weights = _uniform_panel_weights(rx.k_r, step)[1:]
    return nodes, weights


def _ring_powers(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    tx_modes,
    filter_modes,
    pointing: PointingState,
    phi_points: int,
    radial_order: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The reference integral's grid, independent of the closed form: a
    Gauss-Legendre rule of ``radial_order`` rings over the aperture radius
    times ``phi_points`` equally spaced angles.

    The displaced field of every tx mode is sampled on each ring and
    projected on every filter harmonic by one FFT; ``|projection|^2`` is
    summed over the rings. Returns the coefficients, shape
    (n_filter, n_tx), and the same sum over every harmonic, which is the
    power each tx mode puts through the aperture (Parseval), shape (n_tx,).
    """
    rule = gauss_legendre(radial_order, 0.0, rx.aperture_radius)
    phi = 2.0 * np.pi * np.arange(phi_points) / phi_points
    ring = rule.nodes[:, np.newaxis]
    x = ring * np.cos(phi) + pointing.x_ch
    y = ring * np.sin(phi) + pointing.y_ch
    rho = np.hypot(x, y)
    angle = np.arctan2(y, x)
    weighted = rule.weights * rule.nodes
    out = np.empty((len(filter_modes), len(tx_modes)))
    captured = np.empty(len(tx_modes))
    for i, ell_n in enumerate(tx_modes):
        # ifft index m holds (1/n) sum_k u_k e^{+i m phi_k}
        proj = 2.0 * np.pi * np.fft.ifft(lg_field(geom, ell_n, rho, angle, geom.distance), axis=1)
        for j, ell_j in enumerate(filter_modes):
            out[j, i] = np.abs(proj[:, ell_j % phi_points]) ** 2 @ weighted
        captured[i] = (np.abs(proj) ** 2).sum(axis=1) @ weighted
    scale = rx.gain / (2.0 * math.pi * n_m**2)
    return scale * out, scale * captured


def _laurent_product(a: list, b: list) -> list:
    """Product of two Laurent polynomials, coefficients lowest power first."""
    return [sum(a[i] * b[k - i] for i in range(max(0, k + 1 - len(b)), min(k + 1, len(a))))
            for k in range(len(a) + len(b) - 1)]


def _ring_projection(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    tx_modes,
    filter_modes,
    nodes: np.ndarray,
    weights: np.ndarray,
    r_ch: np.ndarray,
) -> np.ndarray:
    """Radial-sum and ``filter_spectrum`` kernel: coefficients on the rings
    ``nodes``, exact in angle, shape (len(r_ch), n_filter, n_tx).

    With the offset at (r, 0), s = sqrt(2) r/w and s' = sqrt(2) r'/w, the
    field of mode (p, ell) on ring r' is the Laurent polynomial
    sum_k P_k z^k (z = e^{i phi}) of (s + s' z^{-sign ell})^{|ell|}
    L_p^{|ell|}(s^2 + s'^2 + s s' (z + 1/z)), times exp(-c (r^2 + r'^2))
    exp(beta cos phi), where c = 1/w^2 + i k/(2R) and beta = -2 c r r'. By
    the Jacobi-Anger expansion (DLMF 10.35) its projection on
    e^{i ell_j phi} is 2 pi sum_k P_k I_{ell_j+k}(beta). ``ive`` takes
    e^{|Re beta|} out of I, leaving the Gaussian the modulus
    exp(-(r' - r)^2/w^2); the curvature and Gouy phases have unit modulus.
    """
    w = geom.beam_radius_at_rx
    c = 1.0 / w**2 + 0.5j * geom.wavenumber / geom.curvature_at_rx
    r = np.reshape(r_ch, (-1, 1))
    s, s_ring = math.sqrt(2.0) / w * r, math.sqrt(2.0) / w * nodes
    gauss = np.exp(-(((nodes - r) / w) ** 2))
    p = geom.radial_index
    fields = {}  # ell_n: (P_k from the lowest power of z up, that power)
    for ell_n in tx_modes:
        n = abs(ell_n)
        # Horner on the explicit Laguerre sum (numerics.laguerre), in z.
        poly = [(-1.0) ** p / math.factorial(p)]
        for m in range(p - 1, -1, -1):
            poly = _laurent_product(poly, [s * s_ring, s**2 + s_ring**2, s * s_ring])
            poly[p - m] += (-1.0) ** m / math.factorial(m) * math.comb(p + n, p - m)
        helix = [math.comb(n, m) * s ** (n - m) * s_ring**m for m in range(n + 1)]
        if ell_n > 0:
            helix.reverse()
        fields[ell_n] = (_laurent_product(poly, helix), -p - n * (ell_n > 0))
    # One table of I_n e^{-|Re beta|} for every order a (tx, filter) pair needs.
    orders = sorted({abs(ell_j + lo + k) for coeffs, lo in fields.values()
                     for k in range(len(coeffs)) for ell_j in filter_modes})
    table = dict(zip(orders, ive(np.reshape(orders, (-1, 1, 1)), -2.0 * c * r * nodes)))
    out = np.empty((r.shape[0], len(filter_modes), len(tx_modes)))
    for i, ell_n in enumerate(tx_modes):
        coeffs, lo = fields[ell_n]
        scale = (2.0 * math.pi) ** 2 * _envelope_prefactor(geom, rx, n_m, ell_n)
        for j, ell_j in enumerate(filter_modes):
            proj = sum(a * table[abs(ell_j + lo + k)] for k, a in enumerate(coeffs))
            out[:, j, i] = np.square(gauss * np.abs(proj)) @ (scale * weights * nodes)
    return out


def _validate_pair(n_m: int, ell_n, ell_j) -> None:
    """Checks the stream count and every order of one or a sequence of them."""
    if not isinstance(n_m, (int, np.integer)) or n_m < 1:
        raise ValueError(f"n_m must be a positive integer, got {n_m!r}")
    for orders in (ell_n, ell_j):
        for ell in np.atleast_1d(np.asarray(orders, dtype=object)):
            if not isinstance(ell, (int, np.integer)):
                raise ValueError(f"mode order must be an integer, got {ell!r}")


# ---------------------------------------------------------------------------
# the reference integral

def crosstalk_exact_detailed(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    ell_n,
    ell_j,
    pointing: PointingState,
    *,
    phi_points: int = 512,
    radial_order: int = 128,
    rel_tol: float = 1e-3,
) -> ExactEvaluation:
    """Reference 2D-integral crosstalk with an explicit convergence record.

    ``ell_n`` and ``ell_j`` are one order or a sequence each; the value has
    shape ``(len(ell_j), len(ell_n))``, without the axis of a single order,
    and is a float for one pair. Every pair is evaluated on the requested
    grid and on a doubled grid; pairs that differ by more than ``rel_tol``
    take one more doubling (radial order is capped at 512). A pair whose
    values on both grids are below 1e-13 of its tx mode's captured power
    is FFT round-off (about 1e-32 of it at r = 0): its change is measured
    against that power, so it settles. Each pair keeps the value of the first doubling
    that settled it, so a pair's value does not depend on the other pairs.
    The record reports the finest grid used and the largest relative
    change among the pairs' last doublings.
    """
    _validate_pair(n_m, ell_n, ell_j)
    tx, flt = np.atleast_1d(ell_n), np.atleast_1d(ell_j)
    n_phi, n_rad = phi_points, radial_order
    value, _ = _ring_powers(geom, rx, n_m, tx, flt, pointing, n_phi, n_rad)
    rel_change = np.full(value.shape, math.inf)
    while True:
        unsettled = rel_change > rel_tol
        n_phi, n_rad = 2 * n_phi, min(2 * n_rad, 512)
        refined, captured = _ring_powers(geom, rx, n_m, tx, flt, pointing, n_phi, n_rad)
        size = np.maximum(np.abs(value), np.abs(refined))
        size = np.where(size < 1e-13 * captured, captured, size)
        change = np.abs(refined - value) / np.where(size == 0.0, 1.0, size)
        rel_change = np.where(unsettled, change, rel_change)
        value = np.where(unsettled, refined, value)
        if np.all(rel_change <= rel_tol) or n_rad >= 512:
            break
    value = value.reshape(np.shape(ell_j) + np.shape(ell_n))
    return ExactEvaluation(
        value=float(value) if value.ndim == 0 else value,
        converged=bool(np.all(rel_change <= rel_tol)),
        rel_change=float(rel_change.max()),
        phi_points=n_phi,
        radial_order=n_rad,
    )


def crosstalk_exact(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    ell_n,
    ell_j,
    pointing: PointingState,
    *,
    phi_points: int = 512,
    radial_order: int = 128,
):
    """Reference 2D-integral crosstalk coefficient, watts per unit modulation.

    Takes the orders as ``crosstalk_exact_detailed`` does. Warns once with
    ``QuadratureConvergenceWarning`` if grid doubling still moves a value
    by more than 0.1%, quoting the largest change.
    """
    result = crosstalk_exact_detailed(
        geom, rx, n_m, ell_n, ell_j, pointing,
        phi_points=phi_points, radial_order=radial_order,
    )
    if not result.converged:
        warnings.warn(
            f"crosstalk integral did not settle: last grid doubling changed the "
            f"value by {result.rel_change:.2%}",
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return result.value


def _coefficient_grid(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    n_m: int,
    pointing: PointingState,
    method: Method,
) -> np.ndarray:
    """One (filter, tx) coefficient grid: the batched kernel at one offset.

    exact2d integrates at the given pointing; the reduced methods depend on
    the offset radius only. Warns with ``ApproximationWarning`` below the
    validity floor of the Bessel-integral and Bessel-sum forms.
    """
    if method is Method.EXACT2D:
        return crosstalk_exact(geom, rx, n_m, modes.tx_modes, modes.filter_modes, pointing)
    r_ch = pointing.r_ch
    if method in (Method.BESSEL_INTEGRAL, Method.BESSEL_SUM) and r_ch < SMALL_OFFSET_FLOOR:
        warnings.warn(
            f"offset radius {r_ch:.3g} m is below the {SMALL_OFFSET_FLOOR:g} m validity "
            "floor of the Bessel-based approximations; accuracy is degraded",
            ApproximationWarning,
            stacklevel=3,
        )
    return _profile(geom, rx, modes, n_m, np.array([r_ch]), method)[0]


def crosstalk(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    ell_n: int,
    ell_j: int,
    pointing: PointingState,
    method: Method | str = Method.BESSEL_SUM,
) -> float:
    """One coefficient, watts per unit modulation, with the selected method.

    ``n_m`` is the number of data streams the coefficient is normalized by.
    """
    method = Method.parse(method)
    _validate_pair(n_m, ell_n, ell_j)
    pair = ModeSet((ell_n,), (ell_j,))
    return float(_coefficient_grid(geom, rx, pair, n_m, pointing, method)[0, 0])


def crosstalk_matrix(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    pointing: PointingState,
    method: Method | str = Method.BESSEL_SUM,
) -> CrosstalkMatrix:
    """The full filter-by-tx coefficient grid at one pointing offset.

    The channel-count normalization inside each coefficient counts parallel
    data channels (streams), not physical modes, so a stream-grouped set keeps
    the same per-channel scale as its ungrouped counterpart under an equal
    total power budget.
    """
    method = Method.parse(method)
    return CrosstalkMatrix(
        values=_coefficient_grid(geom, rx, modes, modes.n_streams, pointing, method),
        tx_modes=modes.tx_modes,
        filter_modes=modes.filter_modes,
        method=method,
        pointing=pointing,
    )


def filter_spectrum(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    ell_n: int,
    pointing: PointingState,
    ell_j_range: tuple[int, int] = (-SPECTRUM_MAX_ORDER, SPECTRUM_MAX_ORDER),
    *,
    radial_order: int = 128,
    rel_tol: float = 1e-3,
) -> list[tuple[int, float]]:
    """Reference crosstalk across a whole range of filter orders at once.

    Evaluates the same integral as the reference evaluator, every requested
    order projected in closed form (exact in angle) on a Gauss-Legendre
    rule of ``radial_order`` nodes over the aperture. A doubled radial rule
    guards convergence; if any order moves by more than ``rel_tol`` of the
    largest value a ``QuadratureConvergenceWarning`` is emitted.
    """
    lo, hi = int(ell_j_range[0]), int(ell_j_range[1])
    if lo > hi:
        raise ValueError(f"empty filter order range {ell_j_range!r}")
    if max(abs(lo), abs(hi)) > SPECTRUM_MAX_ORDER:
        raise ValueError(f"filter orders must satisfy |ell'| <= {SPECTRUM_MAX_ORDER}")
    _validate_pair(n_m, ell_n, 0)
    orders = list(range(lo, hi + 1))

    def spectrum(order: int) -> np.ndarray:
        rule = gauss_legendre(order, 0.0, rx.aperture_radius)
        return _ring_projection(
            geom, rx, n_m, [ell_n], orders, rule.nodes, rule.weights, np.array([pointing.r_ch])
        )[0, :, 0]

    coarse, fine = spectrum(radial_order), spectrum(min(2 * radial_order, 512))
    peak = max(fine.max(), coarse.max(), np.finfo(float).tiny)
    worst = float(np.max(np.abs(fine - coarse)) / peak)
    if worst > rel_tol:
        warnings.warn(
            f"filter spectrum did not settle: doubling moved an order by {worst:.2%} "
            "of the peak",
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return list(zip(orders, fine.tolist()))


# ---------------------------------------------------------------------------
# the batched kernel behind every method

def channel_profile(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    r_ch: np.ndarray,
    method: Method | str = Method.BESSEL_SUM,
) -> np.ndarray:
    """Coefficient grids for a whole batch of offset radii at once.

    Returns an array of shape (len(r_ch), n_filter, n_tx): the grid
    ``crosstalk_matrix`` gives at pointing (r, 0) for each radius. No
    degraded-accuracy or convergence warnings are emitted here; callers are
    expected to account for offsets below the validity floor themselves.
    """
    return _profile(geom, rx, modes, modes.n_streams, r_ch, Method.parse(method))


def _profile(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    n_m: int,
    r_ch: np.ndarray,
    method: Method,
) -> np.ndarray:
    """The one kernel of every method, batched over offset radii.

    ``n_m`` is the stream count the coefficients are normalized by. The
    Bessel-based methods vectorize directly, radial-sum projects the shifted
    field in closed form, and exact2d loops over the reference integral.
    """
    r = np.asarray(r_ch, dtype=float)
    if r.ndim != 1:
        raise ValueError("r_ch must be one-dimensional")
    out = np.empty((r.size, modes.n_filter, modes.n_tx))

    if method is Method.EXACT2D:
        for idx, radius in enumerate(r):
            out[idx] = crosstalk_exact_detailed(
                geom, rx, n_m, modes.tx_modes, modes.filter_modes,
                PointingState(float(radius), 0.0),
            ).value
        return out

    if method is Method.RADIAL_SUM:
        # The k_r sample radii with Simpson-type weights, the angle exact;
        # slices of 1024 radii keep the Bessel table small.
        nodes, weights = _sample_radii_and_weights(rx)
        for start in range(0, r.size, 1024):
            out[start : start + 1024] = _ring_projection(
                geom, rx, n_m, modes.tx_modes, modes.filter_modes, nodes, weights,
                r[start : start + 1024],
            )
        return out

    if method is Method.ASYMPTOTIC and np.any(r <= 0):
        raise ValueError("asymptotic form requires a strictly positive offset radius")

    # Radial factor: depends only on the filter order (through |ell_j|).
    orders = sorted({abs(m) for m in modes.filter_modes})
    if method is Method.ASYMPTOTIC:
        common = geom.curvature_at_rx * rx.aperture_radius / (math.pi * geom.wavenumber * r)
        radial = dict.fromkeys(orders, common)
    else:
        if method is Method.BESSEL_SUM:
            nodes, weights = _sample_radii_and_weights(rx)
        else:
            rule = gauss_legendre(96, 0.0, rx.aperture_radius)
            nodes, weights = rule.nodes, rule.weights
        alpha = geom.wavenumber * r / geom.curvature_at_rx
        # One recurrence pass gives every order; each is squared and reduced
        # to its weighted radial sum at once.
        table = bessel_j(orders, alpha[:, np.newaxis] * nodes[np.newaxis, :])
        weighted = weights * nodes
        radial = {ell_j: np.square(j, out=j) @ weighted for ell_j, j in zip(orders, table)}

    # Envelope factor: depends only on the tx order (through |ell_n|).
    envelope = {}
    for ell_n in set(abs(m) for m in modes.tx_modes):
        envelope[ell_n] = mode_envelope(geom, rx, n_m, ell_n, r)

    for j, ell_j in enumerate(modes.filter_modes):
        for i, ell_n in enumerate(modes.tx_modes):
            out[:, j, i] = envelope[abs(ell_n)] * radial[abs(ell_j)]
    return out

