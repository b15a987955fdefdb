"""Special functions and quadrature primitives shared by the higher modules.

Everything here is a pure function of its arguments (safe to call from any
number of workers). Associated Laguerre polynomials are evaluated by the
explicit finite sum; Bessel functions and the Gaussian Q-function are backed
by scipy.special behind the guard rails documented on each wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sps

__all__ = [
    "LAGUERRE_MAX_ORDER",
    "BESSEL_MAX_ORDER",
    "BESSEL_MAX_ARG",
    "QuadratureRule",
    "laguerre",
    "bessel_j",
    "q_function",
    "gauss_legendre",
    "periodic_trapezoid",
]

# Binomials in the Laguerre sum stay exactly representable in float64 up to
# this order; beyond it the alternating sum starts losing digits.
LAGUERRE_MAX_ORDER = 12

BESSEL_MAX_ORDER = 64
BESSEL_MAX_ARG = 1e6


def laguerre(p: int, alpha: int, x):
    """Associated Laguerre polynomial L_p^alpha(x).

    Evaluated as the finite sum
    sum_{m=0}^{p} (-1)^m / m! * C(p + alpha, p - m) * x^m.

    Parameters
    ----------
    p : int
        Polynomial order, 0 <= p <= LAGUERRE_MAX_ORDER.
    alpha : int
        Non-negative integer degree.
    x : float or ndarray
        Argument(s); must be finite.

    Returns
    -------
    float or ndarray
        L_p^alpha evaluated at x.
    """
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise ValueError(f"radial order p must be a non-negative integer, got {p!r}")
    if p > LAGUERRE_MAX_ORDER:
        raise ValueError(
            f"radial order p={p} exceeds the supported maximum {LAGUERRE_MAX_ORDER}"
        )
    if not isinstance(alpha, (int, np.integer)) or alpha < 0:
        raise ValueError(f"degree alpha must be a non-negative integer, got {alpha!r}")

    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("laguerre argument must be finite")

    # Horner evaluation of the explicit sum, highest power first.
    coeffs = [
        (-1.0) ** m / math.factorial(m) * math.comb(p + alpha, p - m)
        for m in range(p + 1)
    ]
    result = np.full_like(x_arr, coeffs[-1])
    for m in range(p - 1, -1, -1):
        result = result * x_arr + coeffs[m]
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


def bessel_j(n: int, x):
    """Bessel function of the first kind J_n(x) for integer order.

    Parameters
    ----------
    n : int
        Order with |n| <= BESSEL_MAX_ORDER.
    x : float or ndarray
        Argument(s) with |x| <= BESSEL_MAX_ARG.

    Returns
    -------
    float or ndarray
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"Bessel order must be an integer, got {n!r}")
    if abs(n) > BESSEL_MAX_ORDER:
        raise ValueError(f"Bessel order |{n}| exceeds guard {BESSEL_MAX_ORDER}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("Bessel argument must be finite")
    if np.any(np.abs(x_arr) > BESSEL_MAX_ARG):
        raise ValueError(f"Bessel argument exceeds guard |x| <= {BESSEL_MAX_ARG:g}")

    out = _sps.jv(n, x_arr)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def q_function(x):
    """Gaussian Q-function: upper-tail probability of the standard normal.

    Q(x) = 0.5 * erfc(x / sqrt(2)); accurate into the far tail (x ~ 40).
    Accepts scalars or arrays.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("q_function argument must be finite")
    out = 0.5 * _sps.erfc(x_arr / math.sqrt(2.0))
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights mapped to a finite interval."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    a: float = field(default=-1.0)
    b: float = field(default=1.0)

    def integrate(self, values) -> float | complex:
        """Dot the rule's weights with integrand values at the nodes."""
        return np.dot(np.asarray(values), self.weights)


_LEGGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule of the given order on [a, b].

    Exact for polynomials up to degree 2*order - 1.

    Parameters
    ----------
    order : int
        Number of nodes, in [2, 512].
    a, b : float
        Integration bounds with a < b.
    """
    if not isinstance(order, (int, np.integer)) or not (2 <= order <= 512):
        raise ValueError(f"quadrature order must be an integer in [2, 512], got {order!r}")
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise ValueError(f"need finite bounds with a < b, got a={a!r}, b={b!r}")

    if order not in _LEGGAUSS_CACHE:
        _LEGGAUSS_CACHE[order] = leggauss(order)
    xs, ws = _LEGGAUSS_CACHE[order]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return QuadratureRule(
        nodes=mid + half * xs,
        weights=half * ws,
        order=int(order),
        a=float(a),
        b=float(b),
    )


def periodic_trapezoid(f: Callable, n_points: int) -> complex:
    """Integrate a smooth 2*pi-periodic function over one period.

    Equal-weight sum (2*pi/n) * sum_k f(2*pi*k/n); spectrally accurate for
    smooth periodic integrands and exact for harmonics e^{i m phi} with
    |m| < n_points.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 8:
        raise ValueError(f"n_points must be an integer >= 8, got {n_points!r}")
    phi = 2.0 * np.pi * np.arange(n_points) / n_points
    vals = np.asarray(f(phi))
    if vals.shape != phi.shape:
        # Allow scalar-only callables.
        vals = np.asarray([f(p) for p in phi])
    return (2.0 * np.pi / n_points) * vals.sum()
