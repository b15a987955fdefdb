"""Intermodal crosstalk evaluators.

Five ways to compute the power C leaking from transmitted OAM order ell_n
into the receiver phase filter matched to ell_j, ordered from reference
quality to cheapest:

- ``exact2d``: the full 2D aperture integral (azimuthal projection of the
  shifted field, then a weighted radial integral), with a grid-doubling
  convergence check. Its grid is walked block by block of rings, with one
  ``shifted_aperture_field`` pass for every tx mode on the block's rings
  and one FFT per block. This is the oracle the others are judged
  against.
- ``radial-sum``: keeps the azimuthal integral exact (in closed form) but
  evaluates the radial integral on k_r uniformly spaced sample radii.
- ``bessel-integral``: freezes the slowly varying envelope at the offset
  radius and reduces the azimuthal integral analytically to a squared
  Bessel function, leaving a single smooth radial integral.
- ``bessel-sum``: the same reduction with the radial integral discretized
  on the k_r sample radii; a closed-form weighted sum of Bessel values.
- ``asymptotic``: the large-offset limit of the Bessel reduction.

Every evaluator takes the offset radius r_ch, the only quantity of the
pointing error the crosstalk depends on, and refuses one that is negative
or not finite. Every grid evaluator takes the ``ModeSet`` and normalises
its coefficients by the set's stream count, ``modes.n_streams``. Each
method has one kernel. exact2d's is ``crosstalk_exact_detailed``, at one
offset per call; the other four are batched over offset radii
(``channel_profile``). ``crosstalk_matrix`` evaluates the kernel at a
single offset, and ``crosstalk`` is one of its cells for a one-mode pair
under an explicit stream count ``n_m``. The Bessel-based forms
(bessel-integral, bessel-sum, asymptotic) assume the offset radius is
large against the aperture; below ``SMALL_OFFSET_FLOOR``
(``Method.validity_floor``) those single-offset views still return values
but flag degraded accuracy with ``ApproximationWarning``. Only methods
that evaluate a Bessel function (``Method.has_bessel_kernel``) are held
to its argument range (``ReceiverConfig.check_bessel_range``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from oamlink import numerics
from oamlink.beam import REACH_SIGMAS, LinkGeometry, ModeSet, check_offset_radius, lg_field
from oamlink.numerics import (
    BESSEL_MAX_ARG,
    bessel_i_scaled,
    bessel_j,
    gauss_legendre,
    is_integer,
    laguerre,
    laguerre_coefficients,
)

__all__ = [
    "SMALL_OFFSET_FLOOR",
    "Method",
    "ReceiverConfig",
    "ExactEvaluation",
    "ApproximationWarning",
    "QuadratureConvergenceWarning",
    "crosstalk_exact_detailed",
    "crosstalk",
    "crosstalk_matrix",
    "check_averaged_method",
    "shifted_aperture_field",
]

# Below this offset radius (meters) the Bessel-based approximations degrade;
# for inter-satellite jitter scales such offsets are rare.
SMALL_OFFSET_FLOOR = 1.0

# Starting grid of the reference integral: equally spaced angles times
# Gauss-Legendre rings; each doubling doubles both (rings capped at 512).
_EXACT_PHI_POINTS = 512
_EXACT_RADIAL_ORDER = 128
# Relative change between doublings below which a reference pair settles.
_EXACT_REL_TOL = 1e-3
# Grid points per field pass of the reference integral: whole rings, so
# the fields of every tx mode stay a few megabytes on any grid.
_EXACT_BLOCK_POINTS = 16384


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

    @classmethod
    def parse_distinct(cls, names) -> tuple["Method", ...]:
        """Each of ``names`` parsed; refuses a method listed twice."""
        parsed = tuple(cls.parse(name) for name in names)
        if len(set(parsed)) != len(parsed):
            raise ValueError(f"duplicate methods in {','.join(m.value for m in parsed)!r}")
        return parsed

    @property
    def validity_floor(self) -> float:
        """Offset radius (m) below which the method's accuracy is degraded:
        ``SMALL_OFFSET_FLOOR`` for the Bessel-based forms, 0 for the others."""
        return 0.0 if self in (Method.EXACT2D, Method.RADIAL_SUM) else SMALL_OFFSET_FLOOR

    @property
    def has_bessel_kernel(self) -> bool:
        """Whether the method evaluates a Bessel function: radial-sum,
        bessel-integral and bessel-sum do; exact2d and asymptotic do not."""
        return self in (Method.RADIAL_SUM, Method.BESSEL_INTEGRAL, Method.BESSEL_SUM)


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
        if not is_integer(self.k_r) or not (2 <= self.k_r <= 64):
            raise ValueError(f"k_r must be an integer in [2, 64], got {self.k_r!r}")

    @property
    def gain(self) -> float:
        """Combined scalar gain: responsivity times APD gain."""
        return self.responsivity * self.apd_gain

    def check_bessel_range(self, geom: LinkGeometry, methods: Sequence[Method | str],
                           r_max: float | None = None, *, sigma_theta: float | None = None) -> None:
        """Refuses Bessel arguments past ``BESSEL_MAX_ARG`` at offsets up to
        ``r_max``, or to ``REACH_SIGMAS`` sigma_r of the jitter ``sigma_theta``,
        for ``methods`` with a Bessel kernel (``Method.has_bessel_kernel``),
        naming that argument and the link before a kernel refuses them:
        |beta| = 2|c| r_a r of radial-sum's ``bessel_i_scaled`` table bounds
        k r_a r/R. The jitter is refused whatever the methods."""
        name, value = ("r_max", r_max) if sigma_theta is None else ("sigma_theta", sigma_theta)
        if sigma_theta is not None:
            r_max = REACH_SIGMAS * geom.rayleigh_scale(sigma_theta)
        largest = 2.0 * abs(geom.gaussian_coefficient) * self.aperture_radius * r_max
        if not largest <= BESSEL_MAX_ARG and any(
                Method.parse(method).has_bessel_kernel for method in methods):
            raise ValueError(
                f"aperture_radius {self.aperture_radius!r} m takes Bessel arguments up to "
                f"{largest:.3g} at offsets up to {r_max:.3g} m, past {BESSEL_MAX_ARG:g} "
                f"(at {name}={value!r}, distance={geom.distance!r}, waist={geom.waist!r}, "
                f"wavelength={geom.wavelength!r})"
            )


@dataclass(frozen=True)
class ExactEvaluation:
    """Reference-integral result with its convergence audit trail."""

    value: np.ndarray
    converged: bool
    rel_change: float
    phi_points: int
    radial_order: int


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


def mode_envelope(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    orders,
    r_ch,
) -> np.ndarray:
    """Transmit-mode factor of the separable coefficient approximations,
    shape ``(len(orders), *r_ch.shape)``: one row per tx order.

    The three Bessel-reduction methods all factor each coefficient into
    this envelope (a function of the transmitted order and the offset
    radius alone) times a radial factor that depends only on the filter
    order: the prefactor times the squared azimuthal-integral envelope
    frozen at the offset radius, [2*pi * (sqrt(2) r_ch / w)^{|ell_n|}
    L_p^{|ell_n|}(2 r_ch^2/w^2) exp(-r_ch^2/w^2)]^2, vectorized over r_ch.
    r_ch^2, t = 2 r_ch^2/w^2, sqrt(t) and the Gaussian are computed once for
    all orders, and each row is the same product whatever other orders are
    requested. At p = 0 the Laguerre factor is 1 and is not multiplied in.
    """
    w = geom.beam_radius_at_rx
    p = geom.radial_index
    r = np.asarray(r_ch, dtype=float)
    r2 = r**2
    t = 2.0 * r2 / w**2
    root = np.sqrt(t)
    gauss = np.exp(-r2 / w**2)
    out = np.empty((len(orders),) + r.shape)
    for i, ell_n in enumerate(orders):
        n = abs(ell_n)
        amp = 2.0 * math.pi * root**n
        if p:
            amp = amp * laguerre(p, n, t)
        out[i] = _envelope_prefactor(geom, rx, n_m, n) * (amp * gauss) ** 2
    return out


def _uniform_panel_weights(n_panels: int, step: float) -> np.ndarray:
    """Quadrature weights for nodes 0..n_panels on a uniform grid.

    Composite Simpson weights for an even panel count; for odd counts the
    last three panels use the 3/8 rule. Weights sum to n_panels * step.
    Needs n_panels >= 2 (``ReceiverConfig.k_r`` is at least 2).
    """
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


@functools.lru_cache(maxsize=64)
def _sample_radii_and_weights(rx: ReceiverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Radial sample points r_a*k/k_r for k = 1..k_r with their weights,
    read-only and built once per receiver.

    The k = 0 node is dropped because the radial integrand carries an
    explicit factor r' and vanishes there.
    """
    step = rx.aperture_radius / rx.k_r
    nodes = step * np.arange(1, rx.k_r + 1)
    weights = _uniform_panel_weights(rx.k_r, step)[1:]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def shifted_aperture_field(
    geom: LinkGeometry,
    orders: Sequence[int],
    r_prime,
    phi_prime,
    r_ch: float,
) -> np.ndarray:
    """LG fields of ``orders`` at aperture coordinates (r', phi') with the
    beam center displaced by the offset radius r_ch along +x, one row per
    order: ``lg_field`` at the points (r' cos phi' + r_ch, r' sin phi').
    exact2d samples its grid with it. The crosstalk depends on the offset
    radius alone, so the direction of the shift is fixed.
    """
    check_offset_radius(r_ch)
    r_arr, phi_arr = np.asarray(r_prime, dtype=float), np.asarray(phi_prime, dtype=float)
    if not (np.all((r_arr >= 0) & (r_arr < np.inf)) and np.all(np.isfinite(phi_arr))):
        raise ValueError("aperture coordinates r' and phi' must be finite, with r' >= 0")
    return lg_field(geom, orders, r_arr * np.cos(phi_arr) + r_ch, r_arr * np.sin(phi_arr))


def _ring_powers(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    r_ch: float,
    phi_points: int,
    radial_order: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The reference integral's grid, independent of the closed form: a
    Gauss-Legendre rule of ``radial_order`` rings over the aperture radius
    times ``phi_points`` equally spaced angles, with the beam center
    displaced by r_ch along +x.

    The rings are walked in blocks of about ``_EXACT_BLOCK_POINTS`` grid
    points. For each block one ``shifted_aperture_field`` pass samples the
    displaced field of every tx mode on the block's rings, one FFT projects
    each on every filter harmonic, and ``|projection|^2`` times the ring
    weights is added to a running sum per (filter, tx) pair, each pair with
    its own reduction so its value does not depend on the other pairs.
    Returns the coefficients, shape (n_filter, n_tx), and the same sum over
    every harmonic, which is the power each tx mode puts through the
    aperture (Parseval), shape (n_tx,).
    """
    nodes, weights = gauss_legendre(radial_order, 0.0, rx.aperture_radius)
    phi = 2.0 * np.pi * np.arange(phi_points) / phi_points
    weighted = weights * nodes
    harmonics = [ell_j % phi_points for ell_j in modes.filter_modes]
    out = np.zeros((modes.n_filter, modes.n_tx))
    captured = np.zeros(modes.n_tx)
    rows = max(1, _EXACT_BLOCK_POINTS // phi_points)
    for start in range(0, radial_order, rows):
        ring = nodes[start : start + rows, np.newaxis]
        fields = shifted_aperture_field(geom, modes.tx_modes, ring, phi, r_ch)
        # ifft index m holds (1/n) sum_k u_k e^{+i m phi_k}; the projection
        # is 2 pi times it, and (2 pi)^2 goes into ``scale``.
        power = np.square(np.abs(np.fft.ifft(fields, axis=-1)))
        block = weighted[start : start + rows]
        for i, tx_power in enumerate(power):
            for j, m in enumerate(harmonics):
                out[j, i] += tx_power[:, m] @ block
            captured[i] += tx_power.sum(axis=1) @ block
    scale = 2.0 * math.pi * rx.gain / modes.n_streams**2
    return scale * out, scale * captured


def _laurent_product(a: list, b: list) -> list:
    """Product of two Laurent polynomials, coefficients lowest power first."""
    return [sum(a[i] * b[k - i] for i in range(max(0, k + 1 - len(b)), min(k + 1, len(a))))
            for k in range(len(a) + len(b) - 1)]


def _ring_projection(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    nodes: np.ndarray,
    weights: np.ndarray,
    r_ch: np.ndarray,
) -> np.ndarray:
    """Radial-sum kernel: coefficients on the rings ``nodes``, exact in
    angle, shape (len(r_ch), n_filter, n_tx).

    With the offset at (r, 0), s = sqrt(2) r/w and s' = sqrt(2) r'/w, the
    field of mode (p, ell) on ring r' is the Laurent polynomial
    sum_k P_k z^k (z = e^{i phi}) of (s + s' z^{-sign ell})^{|ell|}
    L_p^{|ell|}(s^2 + s'^2 + s s' (z + 1/z)), times exp(-c (r^2 + r'^2))
    exp(beta cos phi), where c = 1/w^2 + i k/(2R) and beta = -2 c r r'. By
    the Jacobi-Anger expansion (DLMF 10.35) its projection on
    e^{i ell_j phi} is 2 pi sum_k P_k I_{ell_j+k}(beta). One backward
    recurrence (``bessel_i_scaled``) gives the order table with e^{|Re beta|}
    taken out of I, leaving the Gaussian the modulus exp(-(r' - r)^2/w^2);
    the curvature and Gouy phases have unit modulus.
    """
    w = geom.beam_radius_at_rx
    c = geom.gaussian_coefficient
    r = np.reshape(r_ch, (-1, 1))
    s, s_ring = math.sqrt(2.0) / w * r, math.sqrt(2.0) / w * nodes
    gauss = np.exp(-(((nodes - r) / w) ** 2))
    p = geom.radial_index
    fields = {}  # ell_n: (P_k from the lowest power of z up, that power)
    for ell_n in modes.tx_modes:
        n = abs(ell_n)
        # Horner on the explicit Laguerre sum, in z.
        lag = laguerre_coefficients(p, n)
        poly = [lag[p]]
        for m in range(p - 1, -1, -1):
            poly = _laurent_product(poly, [s * s_ring, s**2 + s_ring**2, s * s_ring])
            poly[p - m] += lag[m]
        helix = [math.comb(n, m) * s ** (n - m) * s_ring**m for m in range(n + 1)]
        if ell_n > 0:
            helix.reverse()
        fields[ell_n] = (_laurent_product(poly, helix), -p - n * (ell_n > 0))
    # One table of I_n e^{-|Re beta|} for every order a (tx, filter) pair needs.
    orders = sorted({abs(ell_j + lo + k) for coeffs, lo in fields.values()
                     for k in range(len(coeffs)) for ell_j in modes.filter_modes})
    table = dict(zip(orders, bessel_i_scaled(orders, -2.0 * c * (r * nodes))))
    out = np.empty((r.shape[0], modes.n_filter, modes.n_tx))
    for i, ell_n in enumerate(modes.tx_modes):
        coeffs, lo = fields[ell_n]
        scale = (2.0 * math.pi) ** 2 * _envelope_prefactor(geom, rx, modes.n_streams, ell_n)
        for j, ell_j in enumerate(modes.filter_modes):
            proj = sum(a * table[abs(ell_j + lo + k)] for k, a in enumerate(coeffs))
            out[:, j, i] = np.square(gauss * np.abs(proj)) @ (scale * weights * nodes)
    return out


# ---------------------------------------------------------------------------
# the reference integral

def crosstalk_exact_detailed(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    r_ch: float,
) -> ExactEvaluation:
    """Reference 2D-integral crosstalk with an explicit convergence record.

    The value has shape ``(n_filter, n_tx)``: row j, column i is the
    coefficient of ``modes.tx_modes[i]`` through the filter matched to
    ``modes.filter_modes[j]``. Every pair is evaluated on the starting
    grid (``_EXACT_PHI_POINTS`` x ``_EXACT_RADIAL_ORDER``) and on a doubled
    grid; pairs that differ by more than ``_EXACT_REL_TOL`` take one more
    doubling (radial order is capped at 512). A pair whose values on both
    grids are below 1e-13 of its tx mode's captured power is FFT round-off
    (about 1e-32 of it at r = 0): its change is measured against that
    power, so it settles. Each pair keeps the value of the first doubling that settled
    it, so a pair's value does not depend on the other pairs.
    The record reports the finest grid used and the largest relative
    change among the pairs' last doublings.
    """
    check_offset_radius(r_ch)
    n_phi, n_rad = _EXACT_PHI_POINTS, _EXACT_RADIAL_ORDER
    value, _ = _ring_powers(geom, rx, modes, r_ch, n_phi, n_rad)
    rel_change = np.full(value.shape, math.inf)
    while True:
        unsettled = rel_change > _EXACT_REL_TOL
        n_phi, n_rad = 2 * n_phi, min(2 * n_rad, 512)
        refined, captured = _ring_powers(geom, rx, modes, r_ch, n_phi, n_rad)
        size = np.maximum(np.abs(value), np.abs(refined))
        size = np.where(size < 1e-13 * captured, captured, size)
        change = np.abs(refined - value) / np.where(size == 0.0, 1.0, size)
        rel_change = np.where(unsettled, change, rel_change)
        value = np.where(unsettled, refined, value)
        if np.all(rel_change <= _EXACT_REL_TOL) or n_rad >= 512:
            break
    return ExactEvaluation(
        value=value,
        converged=bool(np.all(rel_change <= _EXACT_REL_TOL)),
        rel_change=float(rel_change.max()),
        phi_points=n_phi,
        radial_order=n_rad,
    )


def crosstalk(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    n_m: int,
    ell_n: int,
    ell_j: int,
    r_ch: float,
    method: Method | str = Method.BESSEL_SUM,
) -> float:
    """One coefficient, watts per unit modulation, with the selected method:
    the one-stream ``crosstalk_matrix`` cell of the pair, normalized by
    ``n_m`` data streams instead.
    """
    if not is_integer(n_m) or n_m < 1:
        raise ValueError(f"n_m must be a positive integer, got {n_m!r}")
    pair = ModeSet((ell_n,), (ell_j,))
    return float(crosstalk_matrix(geom, rx, pair, r_ch, method)[0, 0] / n_m**2)


def crosstalk_matrix(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    r_ch: float,
    method: Method | str = Method.BESSEL_SUM,
) -> np.ndarray:
    """The full coefficient grid at offset radius r_ch, shape (n_filter,
    n_tx): row j, column i is C for ``tx_modes[i]`` through the filter
    matched to ``filter_modes[j]``. Its element-wise square root is the
    amplitude-domain channel matrix.

    The channel-count normalization inside each coefficient counts parallel
    data channels (streams), not physical modes, so a stream-grouped set keeps
    the same per-channel scale as its ungrouped counterpart under an equal
    total power budget.

    exact2d integrates at the given offset and warns with
    ``QuadratureConvergenceWarning`` if grid doubling still moves a value by
    more than 0.1%, quoting the largest change. The other methods are
    ``channel_profile`` at the one radius and warn with
    ``ApproximationWarning`` below the method's ``validity_floor``.
    """
    method = Method.parse(method)
    if method is Method.EXACT2D:
        result = crosstalk_exact_detailed(geom, rx, modes, r_ch)
        if not result.converged:
            warnings.warn(
                f"crosstalk integral did not settle: last grid doubling changed the "
                f"value by {result.rel_change:.2%}",
                QuadratureConvergenceWarning,
                stacklevel=2,
            )
        return result.value
    grid = channel_profile(geom, rx, modes, np.array([r_ch]), method)[0]
    if r_ch < method.validity_floor:
        warnings.warn(
            f"offset radius {r_ch:.3g} m is below the {method.validity_floor:g} m validity "
            "floor of the Bessel-based approximations; accuracy is degraded",
            ApproximationWarning,
            stacklevel=2,
        )
    return grid


# ---------------------------------------------------------------------------
# the batched kernel behind every reduced method

def check_averaged_method(method: Method | str) -> Method:
    """``method`` parsed; refuses exact2d, whose one jitter average needs
    hundreds of reference integrals (about 250 s). ``channel_profile``, the
    batched kernel of every other method, refuses it through this check."""
    method = Method.parse(method)
    if method is Method.EXACT2D:
        raise ValueError(
            "method exact2d takes minutes per jitter-averaged value; use "
            "radial-sum, which keeps the azimuthal integral exact"
        )
    return method


def channel_profile(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    r_ch: np.ndarray,
    method: Method | str = Method.BESSEL_SUM,
) -> np.ndarray:
    """The one kernel of every reduced method: coefficient grids for a whole
    batch of offset radii at once, normalized by ``modes.n_streams``.

    Returns an array of shape (len(r_ch), n_filter, n_tx): the grid
    ``crosstalk_matrix`` gives for each radius. The Bessel-based methods
    vectorize directly and radial-sum projects the shifted field in closed
    form. No degraded-accuracy warnings are emitted here; callers are
    expected to account for offsets below the validity floor themselves.
    exact2d has no batched form (``check_averaged_method``): its one kernel
    is ``crosstalk_exact_detailed``, at one offset per call.
    """
    method = check_averaged_method(method)
    r = np.asarray(r_ch, dtype=float)
    if r.ndim != 1:
        raise ValueError("r_ch must be one-dimensional")
    check_offset_radius(r)
    out = np.empty((r.size, modes.n_filter, modes.n_tx))

    if method is Method.RADIAL_SUM:
        # The k_r sample radii with Simpson-type weights, the angle exact.
        # Slices that fill one complex Bessel block with ring arguments keep
        # the table small, so Monte Carlo threads run it in parallel.
        nodes, weights = _sample_radii_and_weights(rx)
        step = max(1, numerics._BLOCK // 2 // nodes.size)
        for start in range(0, r.size, step):
            out[start : start + step] = _ring_projection(
                geom, rx, modes, nodes, weights, r[start : start + step]
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
            nodes, weights = gauss_legendre(96, 0.0, rx.aperture_radius)
        alpha = geom.wavenumber * r / geom.curvature_at_rx
        # One recurrence pass gives every order; each is squared and reduced
        # to its weighted radial sum at once.
        table = bessel_j(orders, alpha[:, np.newaxis] * nodes[np.newaxis, :])
        weighted = weights * nodes
        radial = {ell_j: np.square(j, out=j) @ weighted for ell_j, j in zip(orders, table)}

    # Envelope factor: depends only on the tx order (through |ell_n|).
    tx_orders = sorted({abs(m) for m in modes.tx_modes})
    envelope = dict(zip(tx_orders, mode_envelope(geom, rx, modes.n_streams, tx_orders, r)))

    for j, ell_j in enumerate(modes.filter_modes):
        for i, ell_n in enumerate(modes.tx_modes):
            out[:, j, i] = envelope[abs(ell_n)] * radial[abs(ell_j)]
    return out

