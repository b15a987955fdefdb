"""Special functions and quadrature primitives shared by the higher modules.

Everything here is a pure function of its arguments (safe to call from any
number of workers). Associated Laguerre polynomials are evaluated by the
explicit finite sum. Bessel functions J_n(x), and e^{-|Re beta|} I_n(beta)
at complex beta for radial-sum, take distinct, ascending, non-negative
orders and return one row per order, from one backward recurrence pass per
order tier and argument block (``_tabulate``, ``_BLOCK``); the Gaussian
Q-function is backed by scipy.special. Each carries the guard rails
documented on it. ``worker_count`` is the one rule that sizes the thread
pools of the reference integral and the Monte Carlo simulator.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import threading

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sps

__all__ = [
    "LAGUERRE_MAX_ORDER",
    "BESSEL_MAX_ORDER",
    "BESSEL_MAX_ARG",
    "MAX_WORKERS",
    "WORKERS_ENV_VAR",
    "laguerre",
    "laguerre_coefficients",
    "bessel_j",
    "bessel_i_scaled",
    "q_function",
    "gauss_legendre",
    "is_integer",
    "worker_count",
]

# Binomials in the Laguerre sum stay exactly representable in float64 up to
# this order; beyond it the alternating sum starts losing digits.
LAGUERRE_MAX_ORDER = 12

BESSEL_MAX_ORDER = 64
# Up to this bound bessel_j stays within 1.3e-15 (absolute) of mpmath; above
# it the scipy j0/j1 seeds of the forward recurrence lose phase accuracy
# (4e-14 near 1e6). bessel_i_scaled stays within 5e-14 of each argument's
# largest order. The links modelled here stay below about 50.
BESSEL_MAX_ARG = 1e3

# Bessel orders are served in tiers, each by one recurrence pass that starts
# above the tier's bound. The bound, not the requested orders, sets the
# pass, so an order's value never depends on the other orders requested;
# the low tier keeps the orders of the usual mode sets (|ell| <= 4) cheap.
_ORDER_TIERS = (4, 16, BESSEL_MAX_ORDER)
# Arguments per recurrence block, sized by two limits. Its six float64 work
# arrays (48 bytes an argument, 1.5 MB here) must stay within one core's
# L2 cache (2 MB on the 2-core Xeon this was measured on). And each numpy
# call of the recurrence must carry enough work that worker threads do not
# queue on the GIL: numpy releases the GIL for a call and takes it back
# after, so at 8,192 arguments two Monte Carlo threads ran the kernel no
# faster than one, and at 32,768 they take about a third less time than
# one. The block's largest argument sets its start index.
_BLOCK = 32768

# Each thread's recurrence work rows, one buffer per dtype (``_work_rows``).
_WORK = threading.local()

# Ceiling on worker threads. The threads share the GIL, so past a few per
# core they add hand-offs, not speed; a Monte Carlo run of its largest
# trial count has 15,259 chunks and would otherwise start one thread per
# chunk for a mistyped count.
MAX_WORKERS = 64

WORKERS_ENV_VAR = "OAMLINK_WORKERS"


def worker_count() -> int:
    """Worker threads of exact2d's and the simulator's pools: the
    OAMLINK_WORKERS variable, else CPU count, at most MAX_WORKERS."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is not None:
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if not 1 <= count <= MAX_WORKERS:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer in [1, {MAX_WORKERS}], got {raw!r}"
            )
        return count
    return _cpu_workers()


@functools.cache
def _cpu_workers() -> int:
    """The default worker count. os.cpu_count makes system calls, so it is
    read once: the number of CPUs does not change while the process runs."""
    return min(os.cpu_count() or 1, MAX_WORKERS)


@functools.lru_cache(maxsize=256)
def laguerre_coefficients(p: int, alpha: int) -> tuple[float, ...]:
    """Power-series coefficients of L_p^alpha, lowest power first:
    (-1)^m / m! * C(p + alpha, p - m) for m = 0..p. Memoised; a tuple, so
    no caller can change the memo."""
    return tuple((-1.0) ** m / math.factorial(m) * math.comb(p + alpha, p - m)
                 for m in range(p + 1))


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
    if not is_integer(p) or p < 0:
        raise ValueError(f"radial order p must be a non-negative integer, got {p!r}")
    if p > LAGUERRE_MAX_ORDER:
        raise ValueError(
            f"radial order p={p} exceeds the supported maximum {LAGUERRE_MAX_ORDER}"
        )
    if not is_integer(alpha) or alpha < 0:
        raise ValueError(f"degree alpha must be a non-negative integer, got {alpha!r}")

    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("laguerre argument must be finite")

    # Horner evaluation of the explicit sum, highest power first.
    coeffs = laguerre_coefficients(p, alpha)
    result = np.full_like(x_arr, coeffs[-1])
    for m in range(p - 1, -1, -1):
        result = result * x_arr + coeffs[m]
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


def bessel_j(orders, x):
    """Bessel function of the first kind J_n(x) for integer orders.

    The orders of one tier of ``_ORDER_TIERS`` come out of one recurrence
    pass over each block of ``x`` (see ``_tabulate``), so asking for several
    orders at once costs little more than asking for one. The value of each
    order does not depend on which other orders are requested.

    Parameters
    ----------
    orders : sequence of int
        Distinct, ascending orders 0 <= n <= BESSEL_MAX_ORDER.
    x : float or ndarray
        Argument(s) with |x| <= BESSEL_MAX_ARG; negative arguments follow
        J_n(-x) = (-1)^n J_n(x), and x = 0 gives exact values.

    Returns
    -------
    ndarray
        Shape ``(len(orders), *x.shape)``: one row per order.
    """
    return _tabulate(orders, x, float, _j_block)


def bessel_i_scaled(orders, beta):
    """Scaled modified Bessel function e^{-|Re beta|} I_n(beta) at complex
    arguments |beta| <= BESSEL_MAX_ARG, beta = 0 exact; orders, tiers and
    output shape as for ``bessel_j``."""
    return _tabulate(orders, beta, complex, _scaled_i_block)


def _tabulate(orders, x, dtype, block_kernel) -> np.ndarray:
    """Guards, then tiers, then blocks, of ``bessel_j`` and ``bessel_i_scaled``:
    ``block_kernel(xb, tier_orders, bound, rows, work)`` fills one tier's
    rows over one block ``xb``. Complex buffers are twice as wide, so a
    complex block holds half of ``_BLOCK`` arguments. The argument guard is
    one max-|x| reduction; its message is built only on failure, non-finite
    before too large.

    The six work rows of the recurrence are the calling thread's own
    (``_work_rows``), kept from call to call: allocated afresh on every
    call, they left it to the allocator's state whether a call faulted in
    new pages, hundreds of them per radial-sum average. Per thread, because
    Monte Carlo workers run the kernel concurrently."""
    if np.ndim(orders) != 1 or not all(is_integer(n) for n in orders):
        raise ValueError(f"Bessel orders must be a sequence of integers, got {orders!r}")
    orders = [int(order) for order in orders]
    if orders != sorted(set(orders)) or (orders and orders[0] < 0):
        raise ValueError(f"Bessel orders must be distinct, ascending and >= 0, got {orders}")
    if orders and orders[-1] > BESSEL_MAX_ORDER:
        raise ValueError(f"Bessel order {orders[-1]} exceeds guard {BESSEL_MAX_ORDER}")
    x_arr = np.asarray(x, dtype=dtype)
    if not np.abs(x_arr).max(initial=0.0) <= BESSEL_MAX_ARG:  # nan fails too
        if not np.all(np.isfinite(x_arr)):
            raise ValueError("Bessel argument must be finite")
        raise ValueError(f"Bessel argument exceeds guard |x| <= {BESSEL_MAX_ARG:g}")

    flat = x_arr.ravel()
    table = np.empty((len(orders), flat.size), dtype)
    block = _BLOCK // 2 if dtype is complex else _BLOCK
    work = _work_rows(dtype, min(block, flat.size))
    first = 0
    for bound in _ORDER_TIERS:
        tier = slice(first, bisect.bisect_right(orders, bound))
        first = tier.stop
        if orders[tier]:
            for start in range(0, flat.size, block):
                xb = flat[start: start + block]
                block_kernel(xb, orders[tier], bound, table[tier, start: start + xb.size], work)
    return table.reshape(len(orders), *x_arr.shape)


def _work_rows(dtype, size: int) -> np.ndarray:
    """The calling thread's six recurrence work rows of ``dtype``, at least
    ``size`` wide: one buffer per thread and dtype, only ever grown. Every
    row is written before it is read, so what an earlier call left there
    never reaches a value."""
    work = getattr(_WORK, dtype.__name__, None)
    if work is None or work.shape[1] < size:
        work = np.empty((6, size), dtype)
        setattr(_WORK, dtype.__name__, work)
    return work


def _j_block(x, orders, bound, out, work) -> None:
    """J_n(x) for one block: arguments with |x| <= bound take the backward
    recurrence and larger ones the forward recurrence, which is stable
    there because n <= bound < |x|."""
    small = np.abs(x) <= bound
    if small.all():
        _backward(x, orders, bound, out, work)
        return
    # Index arrays, not boolean masks: a 2-D masked store costs about
    # as much as the recurrence it feeds.
    inner, outer = np.flatnonzero(small), np.flatnonzero(~small)
    part = np.empty((len(orders), inner.size))
    _backward(x.take(inner), orders, bound, part, work)
    for row, values in zip(out, part):
        row[inner] = values
    for row, values in zip(out, _forward(x.take(outer), orders)):
        row[outer] = values


def _scaled_i_block(beta, orders, bound, out, work) -> None:
    """e^{-|Re beta|} I_n(beta) for one block.

    ``_backward`` at x = i beta, where J_k(i beta) = i^k I_k(beta). Its sum
    J_0 + 2 sum_j J_2j = I_0 - 2 I_2 + 2 I_4 - ... = 1 cancels terms of size
    e^{|Re beta|}, so a block reaching |Re beta| > 1 is normalised by
    I_0 + 2 sum_k t^k I_k = e^{t beta}, t = sign(Re beta) (DLMF 10.35.1),
    and the phase e^{i t Im beta} leaves e^{-|Re beta|} I_k."""
    if np.max(np.abs(beta.real)) <= 1.0:
        horner, factor = None, np.exp(-np.abs(beta.real))
    else:
        half_t = np.copysign(0.5, beta.real)
        horner, factor = half_t * beta, np.exp(2j * half_t * beta.imag)
    _backward(1j * beta, orders, bound, out, work, horner)
    for k, row in zip(orders, out):
        row *= factor * (-1j) ** k


def _backward(
    x: np.ndarray, orders: list[int], bound: int, out: np.ndarray, work: np.ndarray,
    horner: np.ndarray | None = None,
) -> None:
    """Miller's backward recurrence (DLMF 3.6; Numerical Recipes 6.5).

    Runs on v_k = J_k(x) (2/x)^k, for which the three-term recurrence reads
    v_{k-1} = k v_k - (x^2/4) v_{k+1}: no division by x, and x = 0 gives
    exact values. The arbitrary start v_{m+1} = 0, v_m = 1 is normalised by
    J_0 + 2 sum_j J_2j = 1, summed by Horner's rule in z = x^2/4 as the
    recurrence descends (a given ``horner`` u sums v_0 + 2 sum_k u^k v_k
    instead). The start index m depends only on the largest |x| and the
    tier bound, never on the requested orders. Past |x| = 64 (complex runs
    only) a step grows v by at most m + |x|^2/4 < 2^18, so every 16 steps
    the arguments whose v, previous v or sum pass 2^500 are scaled by
    2^-500, stored rows too. ``work`` holds six buffers of at least x.size.
    """
    if x.size == 0:
        return
    want = {order: row for row, order in enumerate(orders)}
    half, z, v, v_next, tmp, total = work[:, : x.size]
    reach = float(np.max(np.abs(x)))
    m = 2 * math.ceil((max(reach, bound) + 2.0 + 11.0 * reach ** (1.0 / 3.0)) / 2)
    np.multiply(x, 0.5, out=half)
    np.multiply(half, half, out=z)
    u, parity = (z, 2) if horner is None else (horner, 1)
    v.fill(1.0)
    v_next.fill(0.0)
    total.fill(0.0)
    for k in range(m, 0, -1):
        if k in want:
            out[want[k]] = v
        if k % parity == 0:
            total *= u
            total += v
        np.multiply(v_next, z, out=tmp)
        np.multiply(v, k, out=v_next)
        v_next -= tmp
        v, v_next = v_next, v
        if reach > BESSEL_MAX_ORDER and k % 16 == 0:
            big = np.flatnonzero(np.abs(v) + np.abs(v_next) + np.abs(total) > 2.0**500)
            for values in (v, v_next, total, out):
                values[..., big] *= 2.0**-500
    # S = v_0 + 2 u total; then J_k = v_k (x/2)^k / S.
    total *= u
    total *= 2.0
    total += v
    if 0 in want:
        np.divide(v, total, out=out[want[0]])  # exactly 1 at x = 0
    np.divide(1.0, total, out=tmp)
    for k in range(1, max(orders) + 1):
        tmp *= half
        if k in want:
            out[want[k]] *= tmp


def _forward(x: np.ndarray, orders: list[int]) -> np.ndarray:
    """Forward recurrence from scipy's J_0 and J_1, one row per order."""
    out = np.empty((len(orders), x.size))
    want = {order: row for row, order in enumerate(orders)}
    prev, cur = _sps.j0(x), _sps.j1(x)
    for k, values in ((0, prev), (1, cur)):
        if k in want:
            out[want[k]] = values
    two_over_x = 2.0 / x
    for k in range(1, max(orders)):
        prev, cur = cur, k * two_over_x * cur - prev
        if k + 1 in want:
            out[want[k + 1]] = cur
    return out


def q_function(x):
    """Gaussian Q-function: upper-tail probability of the standard normal.

    Q(x) = 0.5 * erfc(x / sqrt(2)). Accurate to round-off while Q is a
    normal float, through x = 37.5 (Q = 4.6e-308). scipy's erfc underflows
    before the subnormal range, so from x = 37.68 on it returns 0.0 (the
    true Q(38) is 2.9e-316). Accepts scalars or arrays.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("q_function argument must be finite")
    out = 0.5 * _sps.erfc(x_arr / math.sqrt(2.0))
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def is_integer(value) -> bool:
    """An ``int`` or ``np.integer`` that is not a ``bool``: a truth value is
    never taken as a count or an order."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def gauss_legendre(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule of ``order`` on [a, b].

    Exact for polynomials up to degree 2*order - 1.

    Parameters
    ----------
    order : int
        Number of nodes, in [2, 512].
    a, b : float
        Integration bounds with a < b.
    """
    if not is_integer(order) or not (2 <= order <= 512):
        raise ValueError(f"quadrature order must be an integer in [2, 512], got {order!r}")
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise ValueError(f"need finite bounds with a < b, got a={a!r}, b={b!r}")
    return _legendre_rule(order, a, b)


# numpy's nodes and weights on [-1, 1], computed once per order.
_leggauss = functools.cache(leggauss)


def _legendre_rule(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """``gauss_legendre``'s nodes and weights without its argument checks,
    for callers whose order and bounds are valid by construction."""
    xs, ws = _leggauss(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return mid + half * xs, half * ws
