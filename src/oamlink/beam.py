"""Link geometry and Laguerre-Gaussian field evaluation.

Holds the value types describing one optical link (geometry, mode sets,
instantaneous pointing offset) and the two field evaluators: the on-axis LG
mode and its pointing-shifted version seen from the receiver aperture.
All quantities are SI (meters, radians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from oamlink.numerics import LAGUERRE_MAX_ORDER, laguerre

__all__ = [
    "MAX_AZIMUTHAL_ORDER",
    "LinkGeometry",
    "ModeSet",
    "PointingState",
    "beam_radius",
    "curvature_radius",
    "gouy_phase",
    "lg_field",
    "shifted_aperture_field",
]

MAX_AZIMUTHAL_ORDER = 16


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
        if not isinstance(p, (int, np.integer)) or p < 0 or p > LAGUERRE_MAX_ORDER:
            raise ValueError(
                f"radial_index must be an integer in [0, {LAGUERRE_MAX_ORDER}], got {p!r}"
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
        return beam_radius(self, self.distance)

    @property
    def curvature_at_rx(self) -> float:
        return curvature_radius(self, self.distance)


@dataclass(frozen=True)
class ModeSet:
    """Transmitted OAM orders, receiver filter orders, and optional stream grouping.

    ``stream_grouping`` partitions ``tx_modes`` into data streams for the
    multi-mode configurations in which several modes carry one stream; when
    absent every mode is its own stream. ``stream_matrix`` mixes the modes
    into streams.
    """

    tx_modes: tuple[int, ...]
    filter_modes: tuple[int, ...]
    stream_grouping: Optional[tuple[tuple[int, ...], ...]] = None

    def __init__(
        self,
        tx_modes: Sequence[int],
        filter_modes: Optional[Sequence[int]] = None,
        stream_grouping: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        tx = tuple(int(m) for m in tx_modes)
        flt = tx if filter_modes is None else tuple(int(m) for m in filter_modes)
        grouping = (
            None
            if stream_grouping is None
            else tuple(tuple(int(m) for m in g) for g in stream_grouping)
        )
        if len(set(tx)) != len(tx):
            raise ValueError(f"tx modes must be pairwise distinct, got {tx}")
        if not tx:
            raise ValueError("need at least one tx mode")
        for m in tx + flt:
            if abs(m) > MAX_AZIMUTHAL_ORDER:
                raise ValueError(
                    f"azimuthal order |{m}| exceeds guard {MAX_AZIMUTHAL_ORDER}"
                )
        if grouping is not None:
            flat = [m for g in grouping for m in g]
            if sorted(flat) != sorted(tx):
                raise ValueError(
                    f"stream grouping {grouping} does not partition tx modes {tx}"
                )
            if any(len(g) == 0 for g in grouping):
                raise ValueError("stream grouping must not contain empty streams")
        object.__setattr__(self, "tx_modes", tx)
        object.__setattr__(self, "filter_modes", flt)
        object.__setattr__(self, "stream_grouping", grouping)
        mixing = np.zeros((len(tx), self.n_streams))
        for k, group in enumerate(self.streams):
            for mode in group:
                mixing[tx.index(mode), k] = 1.0 / math.sqrt(len(group))
        mixing.setflags(write=False)
        object.__setattr__(self, "_stream_matrix", mixing)

    @property
    def n_tx(self) -> int:
        return len(self.tx_modes)

    @property
    def n_filter(self) -> int:
        return len(self.filter_modes)

    @property
    def streams(self) -> tuple[tuple[int, ...], ...]:
        """Stream partition; defaults to one mode per stream."""
        if self.stream_grouping is not None:
            return self.stream_grouping
        return tuple((m,) for m in self.tx_modes)

    @property
    def n_streams(self) -> int:
        """Number of parallel data channels carried by this mode set."""
        return len(self.streams)

    @property
    def stream_matrix(self) -> np.ndarray:
        """Equal-power stream mixing matrix M, n_tx x n_streams, read-only.

        M[i, k] is 1/sqrt(modes in stream k) when tx mode i carries stream k
        and 0 otherwise, so every stream spends the same transmit power. The
        element-wise square root of a coefficient grid times M gives the
        stream amplitude vectors across the filter bank.
        """
        return self._stream_matrix


@dataclass(frozen=True)
class PointingState:
    """Instantaneous transverse displacement of the beam center at the aperture."""

    x_ch: float
    y_ch: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_ch) and math.isfinite(self.y_ch)):
            raise ValueError("pointing offsets must be finite")

    @property
    def r_ch(self) -> float:
        return math.hypot(self.x_ch, self.y_ch)

    @classmethod
    def from_radius(cls, r_ch: float, angle: float = 0.0) -> "PointingState":
        """Offset of magnitude r_ch along the given direction (radians)."""
        if r_ch < 0:
            raise ValueError(f"offset radius must be >= 0, got {r_ch!r}")
        return cls(r_ch * math.cos(angle), r_ch * math.sin(angle))


def beam_radius(geom: LinkGeometry, z: float) -> float:
    """Beam radius w(z) = w0 * sqrt(1 + (z/z_R)^2)."""
    if z < 0:
        raise ValueError(f"propagation distance must be >= 0, got {z!r}")
    return geom.waist * math.sqrt(1.0 + (z / geom.rayleigh_range) ** 2)


def curvature_radius(geom: LinkGeometry, z: float) -> float:
    """Wavefront curvature radius R(z) = z * (1 + (z_R/z)^2).

    Singular at the waist; z = 0 is rejected because every link in scope is
    far field.
    """
    if z <= 0:
        raise ValueError(f"curvature radius requires z > 0, got {z!r}")
    return z * (1.0 + (geom.rayleigh_range / z) ** 2)


def gouy_phase(geom: LinkGeometry, ell: int, z: float) -> float:
    """Gouy phase (2p + |ell| + 1) * arctan(z / z_R)."""
    if z < 0:
        raise ValueError(f"propagation distance must be >= 0, got {z!r}")
    return (2 * geom.radial_index + abs(ell) + 1) * math.atan2(z, geom.rayleigh_range)


def _lg_radial_norm(geom: LinkGeometry, ell: int) -> float:
    p = geom.radial_index
    return math.sqrt(
        2.0 * math.factorial(p) / (math.pi * math.factorial(p + abs(ell)))
    )


def lg_field(geom: LinkGeometry, ell: int, r, phi, z: float):
    """Complex LG mode field u_{p,ell}(r, phi, z), normalized to unit power.

    Includes the radial envelope, the associated Laguerre factor, the helical
    phase e^{-i ell phi}, the wavefront-curvature phase and the Gouy phase.
    Broadcasts over array-valued r and phi.
    """
    if abs(ell) > MAX_AZIMUTHAL_ORDER:
        raise ValueError(f"azimuthal order |{ell}| exceeds guard {MAX_AZIMUTHAL_ORDER}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("radial coordinate must be >= 0")
    phi_arr = np.asarray(phi, dtype=float)

    w = beam_radius(geom, z)
    curvature = curvature_radius(geom, z)  # raises at z = 0
    psi = gouy_phase(geom, ell, z)
    k = geom.wavenumber

    t = 2.0 * r_arr**2 / w**2
    amplitude = (
        _lg_radial_norm(geom, ell)
        / w
        * (math.sqrt(2.0) * r_arr / w) ** abs(ell)
        * laguerre(geom.radial_index, abs(ell), t)
        * np.exp(-(r_arr**2) / w**2)
    )
    phase = -ell * phi_arr - k * r_arr**2 / (2.0 * curvature) + psi
    out = amplitude * np.exp(1j * phase)
    if np.isscalar(r) and np.isscalar(phi):
        return complex(out)
    return out


def shifted_aperture_field(
    geom: LinkGeometry,
    ell: int,
    r_prime,
    phi_prime,
    pointing: PointingState,
):
    """LG field seen at aperture coordinates (r', phi') when the beam center
    is displaced by the pointing offset.

    This is the on-axis field evaluated at the shifted Cartesian point
    (r' cos phi' + x_ch, r' sin phi' + y_ch), with the helical phase taken
    from the quadrant-correct two-argument arctangent so the field stays
    continuous in phi'. Evaluated at the link distance.
    """
    if abs(ell) > MAX_AZIMUTHAL_ORDER:
        raise ValueError(f"azimuthal order |{ell}| exceeds guard {MAX_AZIMUTHAL_ORDER}")
    r_arr = np.asarray(r_prime, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("radial coordinate must be >= 0")
    phi_arr = np.asarray(phi_prime, dtype=float)

    z = geom.distance
    w = beam_radius(geom, z)
    curvature = curvature_radius(geom, z)
    psi = gouy_phase(geom, ell, z)
    k = geom.wavenumber

    x = r_arr * np.cos(phi_arr) + pointing.x_ch
    y = r_arr * np.sin(phi_arr) + pointing.y_ch
    rho_sq = x**2 + y**2

    t = 2.0 * rho_sq / w**2
    amplitude = (
        _lg_radial_norm(geom, ell)
        / w
        * np.sqrt(t) ** abs(ell)
        * laguerre(geom.radial_index, abs(ell), t)
        * np.exp(-rho_sq / w**2)
    )
    phase = -ell * np.arctan2(y, x) - k * rho_sq / (2.0 * curvature) + psi
    out = amplitude * np.exp(1j * phase)
    if np.isscalar(r_prime) and np.isscalar(phi_prime):
        return complex(out)
    return out
