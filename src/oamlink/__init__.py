"""Numerical toolbox for OAM inter-satellite optical links under pointing errors.

Evaluates intermodal crosstalk between Laguerre-Gaussian modes (an exact
2D-integral reference plus a chain of progressively cheaper approximations),
analytical bit-error rates under joint ML detection, and a Monte Carlo
validator, together with sweep/optimization drivers and a CLI.

A jitter-averaged evaluation takes a ``LinkGeometry``, a ``ReceiverConfig``,
a ``ModeSet`` and the per-axis angular pointing jitter sigma_theta, one
float in radians; the link distance Z is read from the geometry alone.
"""

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.crosstalk import Method, ReceiverConfig
from oamlink.ber import BerResult

__version__ = "0.1.0"

__all__ = [
    "LinkGeometry",
    "ModeSet",
    "ReceiverConfig",
    "Method",
    "BerResult",
    "__version__",
]
