"""Link geometry and Laguerre-Gaussian field evaluation.

Holds the value types describing one optical link (geometry and mode
sets), the offset-radius check every crosstalk evaluator shares, and the
field evaluator at the receiver plane Z: the on-axis LG modes at
Cartesian points (x, y). The field seen from the receiver aperture when the
beam center is displaced, exact2d's sampler, is
``crosstalk.shifted_aperture_field``. All quantities are SI (meters,
radians).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from oamlink.numerics import LAGUERRE_MAX_ORDER, is_integer, laguerre

__all__ = [
    "MAX_AZIMUTHAL_ORDER",
    "REACH_SIGMAS",
    "LinkGeometry",
    "ModeSet",
    "check_offset_radius",
    "lg_field",
    "lg_radial_norm",
]

MAX_AZIMUTHAL_ORDER = 16

# Runs over the pointing jitter reach offset radii of this many sigma_r; the
# excluded Rayleigh tail carries less than 1.3e-14 of the probability mass.
REACH_SIGMAS = 8.0


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter beam and link-length parameters with derived quantities.

    Parameters
    ----------
    wavelength : float
        Optical carrier wavelength in meters.
    waist : float
        Beam waist radius w0 at the transmitter focus, meters.
    radial_index : int
        LG radial index p (non-negative).
    distance : float
        Link length Z in meters.
    """

    wavelength: float
    waist: float
    radial_index: int
    distance: float

    def __post_init__(self) -> None:
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength!r}")
        if not (self.waist > 0 and math.isfinite(self.waist)):
            raise ValueError(f"waist must be positive, got {self.waist!r}")
        if not (self.distance > 0 and math.isfinite(self.distance)):
            raise ValueError(f"distance must be positive, got {self.distance!r}")
        p = self.radial_index
        if not is_integer(p) or p < 0 or p > LAGUERRE_MAX_ORDER:
            raise ValueError(
                f"radial_index must be an integer in [0, {LAGUERRE_MAX_ORDER}], got {p!r}"
            )
        try:
            derived = (self.wavenumber, self.rayleigh_range, self.beam_radius_at_rx,
                       self.curvature_at_rx)
        except (OverflowError, ZeroDivisionError):
            derived = (math.inf,)
        if not all(0.0 < q < math.inf for q in derived):
            raise ValueError(
                f"wavelength {self.wavelength!r}, waist {self.waist!r} and distance "
                f"{self.distance!r} must give a finite, positive k, z_R, w(Z) and R(Z)"
            )

    @property
    def wavenumber(self) -> float:
        """k = 2*pi / wavelength, rad/m."""
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        """z_R = pi * w0^2 / wavelength, meters."""
        return math.pi * self.waist**2 / self.wavelength

    @property
    def beam_radius_at_rx(self) -> float:
        """w(Z) = w0 * sqrt(1 + (Z/z_R)^2), meters."""
        return self.waist * math.sqrt(1.0 + (self.distance / self.rayleigh_range) ** 2)

    @property
    def curvature_at_rx(self) -> float:
        """Wavefront curvature radius R(Z) = Z * (1 + (z_R/Z)^2), meters."""
        return self.distance * (1.0 + (self.rayleigh_range / self.distance) ** 2)

    @property
    def gaussian_coefficient(self) -> complex:
        """c = 1/w(Z)^2 + i k/(2 R(Z)), 1/m^2: the field at Z carries
        exp(-c r^2)."""
        return 1.0 / self.beam_radius_at_rx**2 + 0.5j * self.wavenumber / self.curvature_at_rx

    def rayleigh_scale(self, sigma_theta: float) -> float:
        """Scale sigma_theta * Z, meters, of the Rayleigh offset radius that
        the per-axis angular jitter sigma_theta (radians) gives at Z; refused
        unless sigma_theta is positive and the scale's square, which the
        density divides by, is a normal float."""
        if not (sigma_theta > 0 and math.isfinite(sigma_theta)):
            raise ValueError(f"sigma_theta must be positive, got {sigma_theta!r}")
        scale = sigma_theta * self.distance
        if not (sys.float_info.min <= scale * scale < math.inf):
            raise ValueError(f"sigma_theta {sigma_theta!r} gives a Rayleigh scale "
                             f"{scale!r} m whose square is not a normal float")
        return scale


@dataclass(frozen=True)
class ModeSet:
    """Transmitted OAM orders, receiver filter orders, and their data streams.

    ``streams`` partitions ``tx_modes`` into data streams. The constructor's
    ``stream_grouping`` gives it for the multi-mode configurations in which
    several modes carry one stream; when absent every mode is its own
    stream, so one set has one stored form. ``stream_matrix`` mixes the
    modes into streams. Neither order list is empty, and each is pairwise
    distinct: a repeated filter would count its branch twice in the
    detection. Every order is an integer (``is_integer``) within
    ``MAX_AZIMUTHAL_ORDER``, as ``lg_field`` requires; a float, a string or
    a bool is refused by name, never truncated. The crosstalk layer
    normalises each coefficient grid by ``n_streams``.
    """

    tx_modes: tuple[int, ...]
    filter_modes: tuple[int, ...]
    streams: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        tx_modes: Sequence[int],
        filter_modes: Optional[Sequence[int]] = None,
        stream_grouping: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        tx = _checked_orders("tx mode", tx_modes)
        flt = tx if filter_modes is None else _checked_orders("filter mode", filter_modes)
        if stream_grouping is None:
            streams = tuple((m,) for m in tx)
        else:
            streams = tuple(_checked_orders("stream grouping", g) for g in stream_grouping)
        if len(set(tx)) != len(tx):
            raise ValueError(f"tx modes must be pairwise distinct, got {tx}")
        if len(set(flt)) != len(flt):
            raise ValueError(f"filter modes must be pairwise distinct, got {flt}")
        if not tx:
            raise ValueError("need at least one tx mode")
        if not flt:
            raise ValueError("need at least one filter mode")
        if sorted(m for g in streams for m in g) != sorted(tx):
            raise ValueError(f"stream grouping {streams} does not partition tx modes {tx}")
        if any(len(g) == 0 for g in streams):
            raise ValueError("stream grouping must not contain empty streams")
        object.__setattr__(self, "tx_modes", tx)
        object.__setattr__(self, "filter_modes", flt)
        object.__setattr__(self, "streams", streams)

    @classmethod
    def parse(cls, spec: str) -> "ModeSet":
        """The set whose ``label`` is ``spec``: ``-2|1`` is two single-mode
        streams, ``-4,-2|1,3`` two streams of two modes each."""
        try:
            groups = [[int(tok) for tok in part.split(",")] for part in spec.split("|")]
            return cls([m for g in groups for m in g], stream_grouping=groups)
        except ValueError as exc:
            raise ValueError(f"bad mode set spec {spec!r}: {exc}") from None

    @property
    def label(self) -> str:
        """Short name: modes comma-joined, streams separated by '|'."""
        return "|".join(",".join(str(m) for m in group) for group in self.streams)

    @property
    def n_tx(self) -> int:
        return len(self.tx_modes)

    @property
    def n_filter(self) -> int:
        return len(self.filter_modes)

    @property
    def n_streams(self) -> int:
        """Number of parallel data channels carried by this mode set."""
        return len(self.streams)

    @functools.cached_property
    def stream_matrix(self) -> np.ndarray:
        """Equal-power stream mixing matrix M, n_tx x n_streams, read-only.

        M[i, k] is 1/sqrt(modes in stream k) when tx mode i carries stream k
        and 0 otherwise, so every stream spends the same transmit power. The
        element-wise square root of a coefficient grid times M gives the
        stream amplitude vectors across the filter bank. It is built on
        first use: a mode set made only to check a configuration needs none.
        """
        streams = self.streams
        mixing = np.array(
            [[1.0 / math.sqrt(len(g)) if mode in g else 0.0 for g in streams]
             for mode in self.tx_modes]
        )
        mixing.setflags(write=False)
        return mixing


def _checked_orders(kind: str, orders: Sequence[int]) -> tuple[int, ...]:
    """``orders`` as ints; refuses, naming ``kind``, one that is not an
    integer (``is_integer``), and one past ``MAX_AZIMUTHAL_ORDER``."""
    orders = tuple(orders)
    for order in orders:
        if not is_integer(order):
            raise ValueError(f"{kind} order must be an integer, got {order!r}")
        if abs(order) > MAX_AZIMUTHAL_ORDER:
            raise ValueError(f"azimuthal order |{order}| exceeds guard {MAX_AZIMUTHAL_ORDER}")
    return tuple(int(order) for order in orders)


def check_offset_radius(r_ch) -> None:
    """Refuses an offset radius, or an array of them, unless each is finite
    and >= 0 (nan fails too). The smallest and largest radius decide; the
    first bad one is looked up only to name it."""
    r = np.asarray(r_ch)
    if not (r.min(initial=0.0) >= 0 and r.max(initial=0.0) < np.inf):
        bad = ~((r >= 0) & (r < np.inf))
        raise ValueError(
            f"offset radius r_ch must be finite and >= 0, got {float(r[bad][0])!r}"
        )


def lg_radial_norm(p: int, ell: int) -> float:
    """Unit-power normalisation sqrt(2 p! / (pi (p + |ell|)!)) of the LG mode
    with radial index p."""
    return math.sqrt(
        2.0 * math.factorial(p) / (math.pi * math.factorial(p + abs(ell)))
    )


def lg_field(geom: LinkGeometry, orders: Sequence[int], x, y) -> np.ndarray:
    """Complex LG mode fields u_{p,ell} at Cartesian points (x, y) of the
    receiver plane Z, each normalized to unit power, shape
    ``(len(orders), *broadcast(x, y))``.

    Includes the radial envelope, the associated Laguerre factor, the helical
    phase e^{-i ell phi}, the wavefront-curvature phase and the Gouy phase
    (2p + |ell| + 1) atan(Z/z_R). The Gaussian and curvature factor
    exp(-(1/w^2 + i k/(2R)) r^2), with r^2 = x^2 + y^2, and the step
    (sqrt(2)/w)(x - i y) = (sqrt(2) r/w) e^{-i phi} are computed once for all
    orders; each order's helix is a power of the step (of its conjugate for
    ell < 0), so its field does not depend on which other orders are
    requested. No angle is formed, so the field is continuous everywhere.
    """
    orders = _checked_orders("azimuthal", orders)
    x_arr, y_arr = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(y_arr))):
        raise ValueError("field coordinates x and y must be finite")

    w = geom.beam_radius_at_rx
    p = geom.radial_index
    gouy = math.atan2(geom.distance, geom.rayleigh_range)

    r2 = np.square(x_arr) + np.square(y_arr)
    shared = np.exp(-geom.gaussian_coefficient * r2)
    step = np.empty(r2.shape, dtype=complex)
    np.multiply(x_arr, math.sqrt(2.0) / w, out=step.real)
    np.multiply(y_arr, -math.sqrt(2.0) / w, out=step.imag)
    # step^n by the same chain of products whatever orders are requested.
    needed = {abs(order) for order in orders}
    helix, power = {}, step
    for n in range(1, max(needed, default=0) + 1):
        power = power * step if n > 1 else step
        if n in needed:
            helix[n] = power

    out = np.empty((len(orders),) + step.shape, dtype=complex)
    for idx, order in enumerate(orders):
        field, n = out[idx, ...], abs(order)
        scalar = cmath.rect(lg_radial_norm(p, order) / w, (2 * p + n + 1) * gouy)
        np.multiply(shared, scalar, out=field)
        if n:
            field *= helix[n] if order > 0 else np.conj(helix[n])
        if p:
            field *= laguerre(p, n, 2.0 * r2 / w**2)
    return out

