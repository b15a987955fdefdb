"""Monte Carlo BER estimation by direct simulation of the detection chain.

Serves as the stochastic cross-check for the analytical average, so it
imports nothing from ``oamlink.ber``: draw a pointing offset (each axis
theta Z with theta ~ N(0, sigma_theta^2), Z the geometry's link distance),
build the amplitude matrix with ``simulate_ber``'s crosstalk method, draw
on/off symbols per stream, add real Gaussian noise, run joint ML detection
over all symbol hypotheses, and count symbol-vector errors (the same error
unit the analytical conditional expression bounds). A per-bit error count
is kept alongside for diagnostics. ``TrialConfig`` holds only the run:
trial count, seed and the degraded-draw override.

Trials are processed in fixed-size chunks and every chunk seeds its own
generator from (seed, chunk_index), so the estimate is reproducible
bit-for-bit regardless of how many workers run the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.crosstalk import (
    Method,
    ReceiverConfig,
    channel_profile,
    check_averaged_method,
)
from oamlink.numerics import is_integer, worker_count

__all__ = [
    "CHUNK_SIZE",
    "MAX_CHUNK_BYTES",
    "MAX_TRIALS",
    "DegradedChannelError",
    "TrialConfig",
    "TrialOutcome",
    "check_chunk_memory",
    "simulate_ber",
]

# Trials per RNG chunk; also the unit of work handed to a thread.
CHUNK_SIZE = 1 << 16

# Ceiling on one run: about 17 minutes at roughly a million trials per
# second, so a mistyped count is refused instead of running for days.
MAX_TRIALS = 10**9

# Bytes the ML detection of one chunk may hold: its candidates and residuals
# are two float64 arrays of shape (CHUNK_SIZE, 2^n_streams, n_filter), so
# 2^n_streams * n_filter may be at most 256, and each worker holds one
# chunk's pair at a time. Every two-stream set fits (4 x 33 filters take
# 138 MB); ten single-mode streams would take 10.7 GB.
MAX_CHUNK_BYTES = 1 << 28


class DegradedChannelError(RuntimeError):
    """Too many trials fell below the crosstalk approximation validity floor."""


@dataclass(frozen=True)
class TrialConfig:
    """Monte Carlo run parameters.

    Every trial draws a fresh pointing offset. ``allow_degraded`` overrides
    the abort that triggers when more than 0.1% of the drawn offsets fall
    below the validity floor of the Bessel-based crosstalk approximations.
    """

    trials: int
    seed: int
    allow_degraded: bool = False

    def __post_init__(self) -> None:
        if not is_integer(self.trials) or not (1000 <= self.trials <= MAX_TRIALS):
            raise ValueError(
                f"trials must be an integer in [1000, {MAX_TRIALS}], got {self.trials!r}"
            )
        if not is_integer(self.seed) or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class TrialOutcome:
    """Estimate with its binomial confidence half-width and diagnostics;
    ``workers`` and ``chunks`` give the thread and RNG chunk layout."""

    errors: int
    trials: int
    ber_hat: float
    ci95_halfwidth: float
    bit_errors: int = 0
    degraded_fraction: float = 0.0
    workers: int = 1
    chunks: int = 1

    def __post_init__(self) -> None:
        if not (0 <= self.errors <= self.trials):
            raise ValueError(f"error count {self.errors} outside [0, {self.trials}]")
        if not math.isclose(self.ber_hat, self.errors / self.trials, rel_tol=0, abs_tol=1e-15):
            raise ValueError("ber_hat inconsistent with error and trial counts")


def check_chunk_memory(modes: ModeSet) -> None:
    """Refuses a set whose ML detection would hold more than
    ``MAX_CHUNK_BYTES`` for one chunk."""
    need = 16 * CHUNK_SIZE * (1 << modes.n_streams) * modes.n_filter
    if need > MAX_CHUNK_BYTES:
        raise ValueError(
            f"{modes.n_streams} streams x {modes.n_filter} filters need {need / 1e9:.1f} GB "
            f"per Monte Carlo chunk, past its {MAX_CHUNK_BYTES / 1e9:.2f} GB budget"
        )


def _hypotheses(n_streams: int) -> np.ndarray:
    """All on/off stream vectors, in lexicographic order."""
    return np.array(list(product((0, 1), repeat=n_streams)), dtype=float)


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def _run_chunk(
    chunk_index: int,
    n: int,
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    sigma_theta: float,
    seed: int,
    method: Method,
    fixed_amplitude: np.ndarray | None,
) -> tuple[int, int, int]:
    """Simulate one chunk; returns (vector errors, bit errors, degraded draws).

    Draw order inside a chunk is fixed (pointing, symbols, noise) so that
    runs differing only in the noise level see identical random streams.
    """
    rng = np.random.default_rng((seed, chunk_index))
    hypotheses = _hypotheses(modes.n_streams)

    degraded = 0
    if fixed_amplitude is not None:
        amp = np.broadcast_to(fixed_amplitude, (n, *fixed_amplitude.shape))
    else:
        theta = rng.normal(0.0, sigma_theta, size=(n, 2))
        offsets = theta * geom.distance
        r_ch = np.hypot(offsets[:, 0], offsets[:, 1])
        degraded = int(np.count_nonzero(r_ch < method.validity_floor))
        amp = np.sqrt(channel_profile(geom, rx, modes, r_ch, method))

    bits = rng.integers(0, 2, size=(n, modes.n_streams))
    noise = rng.standard_normal(size=(n, modes.n_filter))

    # Candidate signal points for every trial and hypothesis: (n, k, n_f);
    # column k of M @ hyp.T is hypothesis k as per-mode amplitudes.
    candidates = np.einsum("nft,tk->nkf", amp, modes.stream_matrix @ hypotheses.T)
    places = 1 << np.arange(modes.n_streams - 1, -1, -1)
    sent = bits @ places
    y = candidates[np.arange(n), sent, :] + math.sqrt(rx.noise_level) * noise
    residuals = y[:, np.newaxis, :] - candidates
    metrics = np.einsum("nkf,nkf->nk", residuals, residuals)
    detected = np.argmin(metrics, axis=1)
    vec_errors = int(np.count_nonzero(detected != sent))
    bit_errors = int(np.count_nonzero(hypotheses[detected] != bits))
    return vec_errors, bit_errors, degraded


def simulate_ber(
    geom: LinkGeometry,
    rx: ReceiverConfig,
    modes: ModeSet,
    sigma_theta: float,
    cfg: TrialConfig,
    method: Method | str = Method.BESSEL_SUM,
    *,
    amplitude_matrix: np.ndarray | None = None,
) -> TrialOutcome:
    """Estimate the symbol-vector error rate of the simulated link under
    the per-axis angular jitter ``sigma_theta`` (radians), with the channel
    of crosstalk ``method``. Refused before any trial: the jitter, the
    method, the set (``check_chunk_memory``) and, for a drawn channel,
    exact2d and the Bessel range at the reach (``check_averaged_method``,
    ``ReceiverConfig.check_bessel_range``).

    ``amplitude_matrix`` replaces the pointing-dependent channel with a
    fixed matrix (filter rows by tx columns) for synthetic audits such as
    forcing two identical stream signatures; pointing is then not drawn.

    Raises ``DegradedChannelError`` when more than 0.1% of the pointing
    draws fall below the approximation validity floor, unless the config
    sets ``allow_degraded``.
    """
    method = Method.parse(method)
    geom.rayleigh_scale(sigma_theta)
    check_chunk_memory(modes)
    fixed = None
    if amplitude_matrix is None:
        check_averaged_method(method)
        rx.check_bessel_range(geom, (method,), sigma_theta=sigma_theta)
    else:
        fixed = np.asarray(amplitude_matrix, dtype=float)
        if fixed.shape != (modes.n_filter, modes.n_tx) or not np.isfinite(fixed).all():
            raise ValueError(f"amplitude matrix must be finite, {modes.n_filter} filters x "
                             f"{modes.n_tx} tx modes; got {fixed.tolist()}")

    sizes = _chunk_sizes(cfg.trials)
    workers = min(worker_count(), len(sizes))

    def run(idx_size: tuple[int, int]) -> tuple[int, int, int]:
        idx, size = idx_size
        return _run_chunk(idx, size, geom, rx, modes, sigma_theta, cfg.seed, method, fixed)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run, enumerate(sizes)))

    vec_errors = sum(r[0] for r in results)
    bit_errors = sum(r[1] for r in results)
    degraded = sum(r[2] for r in results)
    degraded_fraction = degraded / cfg.trials
    if degraded_fraction > 1e-3 and not cfg.allow_degraded:
        raise DegradedChannelError(
            f"{degraded_fraction:.3%} of trials drew offsets below the "
            f"{method.validity_floor:g} m validity floor of method "
            f"'{method.value}' (limit 0.1%); "
            "set mc.allow_degraded = true to accept them or use an exact method"
        )
    p_hat = vec_errors / cfg.trials
    ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.trials)
    return TrialOutcome(
        errors=vec_errors,
        trials=cfg.trials,
        ber_hat=p_hat,
        ci95_halfwidth=ci,
        bit_errors=bit_errors,
        degraded_fraction=degraded_fraction,
        workers=workers,
        chunks=len(sizes),
    )
