"""Numerical toolbox for OAM inter-satellite optical links under pointing errors.

Evaluates intermodal crosstalk between Laguerre-Gaussian modes (an exact
2D-integral reference plus a chain of progressively cheaper approximations),
analytical bit-error rates under joint ML detection, and a Monte Carlo
validator, together with sweep/optimization drivers and a CLI.
"""

from oamlink.beam import LinkGeometry, ModeSet, PointingState
from oamlink.crosstalk import Method, ReceiverConfig
from oamlink.ber import BerResult, PointingStats

__version__ = "0.1.0"

__all__ = [
    "LinkGeometry",
    "ModeSet",
    "PointingState",
    "ReceiverConfig",
    "Method",
    "PointingStats",
    "BerResult",
    "__version__",
]
