"""Monte Carlo simulation of the detection chain.

Checks determinism (including independence from the worker count), the ML
detector on clean and fully tied channels, statistical agreement with the
analytical conditional expression on fixed synthetic channels, and the
degraded-channel abort bookkeeping.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from oamlink.beam import LinkGeometry, ModeSet
from oamlink.ber import conditional_ber
from oamlink.crosstalk import Method, ReceiverConfig
from oamlink.montecarlo import (
    CHUNK_SIZE,
    MAX_TRIALS,
    DegradedChannelError,
    TrialConfig,
    TrialOutcome,
    simulate_ber,
)
from oamlink.numerics import MAX_WORKERS, WORKERS_ENV_VAR, worker_count


# Per-axis angular pointing jitter, rad.
SIGMA_THETA = 3.0e-5


def default_geom(waist=0.025):
    return LinkGeometry(wavelength=1.55e-6, waist=waist, radial_index=0, distance=1.0e6)


def default_rx(**overrides):
    kwargs = dict(aperture_radius=0.05, noise_level=6.35e-16, k_r=6)
    kwargs.update(overrides)
    return ReceiverConfig(**kwargs)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert worker_count() == 3

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert worker_count() >= 1

    def test_invalid_values(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            worker_count()
        monkeypatch.setenv(WORKERS_ENV_VAR, "four")
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            worker_count()
        # The ceiling is checked on the number alone; no thread starts.
        monkeypatch.setenv(WORKERS_ENV_VAR, str(MAX_WORKERS))
        assert worker_count() == MAX_WORKERS
        monkeypatch.setenv(WORKERS_ENV_VAR, str(MAX_WORKERS + 1))
        with pytest.raises(ValueError, match=WORKERS_ENV_VAR):
            worker_count()


class TestTrialConfig:
    def test_defaults_and_fields(self):
        cfg = TrialConfig(trials=10_000, seed=7)
        assert not cfg.allow_degraded
        # The config describes the run only; the method is simulate_ber's.
        assert [f.name for f in dataclasses.fields(TrialConfig)] == [
            "trials", "seed", "allow_degraded"
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=999, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(trials=1e4, seed=0)
        # A run of days is refused at construction; none is started here.
        assert TrialConfig(trials=MAX_TRIALS, seed=0).trials == MAX_TRIALS
        with pytest.raises(ValueError, match="trials"):
            TrialConfig(trials=MAX_TRIALS + 1, seed=0)
        with pytest.raises(ValueError):
            TrialConfig(trials=10_000, seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(trials=10_000, seed=2**64)


class TestMlDetect:
    def fixed_run(self, h, noise_level, seed):
        geom, rx = default_geom(), default_rx(noise_level=noise_level)
        modes = ModeSet(tx_modes=(-2, 1))
        cfg = TrialConfig(trials=20_000, seed=seed)
        return simulate_ber(geom, rx, modes, SIGMA_THETA, cfg, amplitude_matrix=h)

    def test_recovers_clean_symbols(self):
        # Orthogonal unit-gain streams far above the noise: no errors, and
        # a negative gain, which a fixed audit matrix may carry, is as clean.
        for h in (np.eye(2), -np.eye(2)):
            out = self.fixed_run(h, 1e-6, seed=3)
            assert out.errors == 0 and out.bit_errors == 0

    def test_tie_breaks_to_earliest_hypothesis(self):
        # An all-zero channel makes every hypothesis equally good; the
        # detector answers (0, 0), so exactly the other three sends fail.
        out = self.fixed_run(np.zeros((2, 2)), 1e-6, seed=4)
        assert abs(out.ber_hat - 0.75) <= 3.0 * out.ci95_halfwidth
        assert out.bit_errors > out.errors


class TestSimulateBer:
    def run_default(self, trials=30_000, seed=42, **kwargs):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        cfg = TrialConfig(trials=trials, seed=seed, **kwargs)
        return simulate_ber(geom, rx, modes, SIGMA_THETA, cfg)

    def test_deterministic_given_seed(self):
        a = self.run_default()
        b = self.run_default()
        assert (a.errors, a.bit_errors) == (b.errors, b.bit_errors)
        c = self.run_default(seed=43)
        assert (a.errors, a.bit_errors) != (c.errors, c.bit_errors)

    def test_worker_count_does_not_change_the_estimate(self, monkeypatch):
        # Two chunks so the thread pool actually has work to split.
        trials = CHUNK_SIZE + 5000
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        serial = self.run_default(trials=trials)
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        threaded = self.run_default(trials=trials)
        assert serial.errors == threaded.errors
        assert serial.bit_errors == threaded.bit_errors
        assert threaded.workers == 2  # capped by the number of chunks

    def test_pool_follows_the_worker_rule(self, monkeypatch):
        # The pool is min(worker_count(), chunks) threads: the worker cap
        # alone can hold two chunks to one thread, and no call overrides it.
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        out = self.run_default(trials=CHUNK_SIZE + 5000)
        assert (out.workers, out.chunks) == (1, 2)
        cfg = TrialConfig(trials=CHUNK_SIZE + 5000, seed=42)
        with pytest.raises(TypeError, match="max_workers"):
            simulate_ber(default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1)),
                         SIGMA_THETA, cfg, max_workers=2)

    def test_common_random_numbers_monotone_in_noise(self):
        # Same seed means identical pointing, symbols and noise draws, so
        # raising the noise level can only add errors in aggregate.
        counts = []
        for n0 in (6.35e-16, 6.35e-15, 6.35e-14):
            geom = default_geom()
            rx = default_rx(noise_level=n0)
            modes = ModeSet(tx_modes=(-2, 1))
            out = simulate_ber(
                geom, rx, modes, SIGMA_THETA, TrialConfig(trials=20_000, seed=9)
            )
            counts.append(out.errors)
        assert counts[0] < counts[1] < counts[2]

    def test_ci_shrinks_with_more_trials(self):
        small = self.run_default(trials=10_000)
        large = self.run_default(trials=60_000)
        assert large.ci95_halfwidth < small.ci95_halfwidth
        assert small.ci95_halfwidth == pytest.approx(
            1.96 * math.sqrt(small.ber_hat * (1 - small.ber_hat) / small.trials),
            rel=1e-12,
        )

    def test_bit_errors_bracket_vector_errors(self):
        out = self.run_default()
        assert out.errors <= out.bit_errors <= 2 * out.errors

    def test_fixed_channel_matches_conditional_expression(self):
        # Orthogonal equal-gain streams at unit noise: the four-Q value is
        # tight here, so the estimate must land within its own confidence
        # interval of it.
        geom, rx = default_geom(), default_rx(noise_level=1.0)
        modes = ModeSet(tx_modes=(-2, 1))
        h = np.array([[6.2, 0.0], [0.0, 6.2]])
        cfg = TrialConfig(trials=200_000, seed=31)
        out = simulate_ber(geom, rx, modes, SIGMA_THETA, cfg, amplitude_matrix=h)
        analytic = conditional_ber(h[:, 0], h[:, 1], rx.noise_level)
        assert abs(out.ber_hat - analytic) <= 3.0 * out.ci95_halfwidth
        assert out.degraded_fraction == 0.0

    def test_identical_signatures_hit_quarter_floor(self):
        # Two streams with the same signature: the (0,1) and (1,0) symbols
        # are indistinguishable, and the deterministic tie-break turns
        # exactly the (1,0) sends into errors: a quarter of all trials.
        geom, rx = default_geom(), default_rx(noise_level=1e-12)
        modes = ModeSet(tx_modes=(-2, 1))
        h = np.array([[1.0, 1.0], [0.5, 0.5]])
        cfg = TrialConfig(trials=100_000, seed=8)
        out = simulate_ber(geom, rx, modes, SIGMA_THETA, cfg, amplitude_matrix=h)
        analytic = conditional_ber(h[:, 0], h[:, 1], rx.noise_level)
        assert analytic == pytest.approx(0.25, rel=1e-12)
        assert abs(out.ber_hat - analytic) <= 3.0 * out.ci95_halfwidth

    def test_method_defaults_to_bessel_sum_and_parses_names(self):
        geom, rx, modes = default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1))
        cfg = TrialConfig(trials=5000, seed=11)
        assert simulate_ber(geom, rx, modes, SIGMA_THETA, cfg) == simulate_ber(
            geom, rx, modes, SIGMA_THETA, cfg, Method.BESSEL_SUM
        )
        assert simulate_ber(geom, rx, modes, SIGMA_THETA, cfg, "radial-sum") == simulate_ber(
            geom, rx, modes, SIGMA_THETA, cfg, Method.RADIAL_SUM
        )

    def test_unknown_method_is_refused_before_any_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("chunk run")

        monkeypatch.setattr("oamlink.montecarlo._run_chunk", refuse)
        geom, rx, modes = default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1))
        with pytest.raises(ValueError, match="fft"):
            simulate_ber(geom, rx, modes, SIGMA_THETA, TrialConfig(trials=1000, seed=1), "fft")

    @pytest.mark.parametrize("h", [
        np.full((2, 2), np.nan),
        np.full((2, 2), np.inf),
        np.array([[1.0, 0.0], [-np.inf, 1.0]]),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
    ])
    def test_non_finite_amplitude_matrix_is_refused_before_any_trial(self, monkeypatch, h):
        # Over nan metrics ML detection would pick an arbitrary hypothesis
        # and return a plausible-looking estimate.
        def refuse(*args):
            raise AssertionError("chunk run")

        monkeypatch.setattr("oamlink.montecarlo._run_chunk", refuse)
        geom, rx, modes = default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1))
        with pytest.raises(ValueError, match="amplitude matrix must be finite"):
            simulate_ber(geom, rx, modes, SIGMA_THETA, TrialConfig(trials=1000, seed=1),
                         amplitude_matrix=h)

    def test_amplitude_matrix_shape_guard(self):
        geom, rx = default_geom(), default_rx()
        modes = ModeSet(tx_modes=(-2, 1))
        cfg = TrialConfig(trials=10_000, seed=1)
        with pytest.raises(ValueError):
            simulate_ber(
                geom, rx, modes, SIGMA_THETA, cfg, amplitude_matrix=np.ones((3, 2))
            )

    def test_degraded_channel_abort_and_override(self):
        # A tiny jitter puts several percent of the draws below the validity
        # floor of the Bessel-based methods.
        geom, rx = default_geom(), default_rx()
        modes, tiny = ModeSet(tx_modes=(-2, 1)), 3.0e-6
        with pytest.raises(DegradedChannelError):
            simulate_ber(geom, rx, modes, tiny, TrialConfig(trials=10_000, seed=2))
        out = simulate_ber(
            geom, rx, modes, tiny,
            TrialConfig(trials=10_000, seed=2, allow_degraded=True),
        )
        assert 0.04 < out.degraded_fraction < 0.07
        # The full-rank methods have no validity floor to police.
        clean = simulate_ber(
            geom, rx, modes, tiny, TrialConfig(trials=10_000, seed=2), Method.RADIAL_SUM
        )
        assert clean.degraded_fraction == 0.0

    def test_bad_jitter_is_refused_before_any_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr("oamlink.montecarlo.channel_profile", refuse)
        geom, rx, modes = default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1))
        cfg = TrialConfig(trials=10_000, seed=1)
        with pytest.raises(ValueError, match="sigma_theta must be positive, got -1.0"):
            simulate_ber(geom, rx, modes, -1.0, cfg)
        with pytest.raises(ValueError, match="sigma_theta 1e-300 gives a Rayleigh scale"):
            simulate_ber(geom, rx, modes, 1e-300, cfg, amplitude_matrix=np.eye(2))

    @pytest.mark.parametrize("sigma_theta, method, refusal", [
        (SIGMA_THETA, "exact2d", "method exact2d takes minutes per jitter-averaged value; "
                                 "use radial-sum"),
        # 8 sigma_r = 8 km takes bessel_j and bessel_i_scaled past their range.
        (1e-3, "bessel-sum", "past 1000 (at sigma_theta=0.001, distance=1000000.0, "
                             "waist=0.025, wavelength=1.55e-06)"),
        (1e-3, "radial-sum", "at offsets up to 8e+03 m, past 1000 (at sigma_theta=0.001"),
    ])
    def test_channel_no_kernel_can_draw_is_refused_before_any_chunk(
        self, monkeypatch, sigma_theta, method, refusal
    ):
        def refuse(*args):
            raise AssertionError("chunk run")

        geom, rx, modes = default_geom(), default_rx(), ModeSet(tx_modes=(-2, 1))
        cfg = TrialConfig(trials=1000, seed=1)
        with monkeypatch.context() as patched:
            patched.setattr("oamlink.montecarlo._run_chunk", refuse)
            with pytest.raises(ValueError, match=re.escape(refusal)):
                simulate_ber(geom, rx, modes, sigma_theta, cfg, method)
        # A fixed amplitude matrix evaluates no kernel, so neither rule applies.
        out = simulate_ber(geom, rx, modes, sigma_theta, cfg, method, amplitude_matrix=np.eye(2))
        assert out.trials == 1000

    def test_asymptotic_channel_is_not_held_to_the_bessel_range(self, monkeypatch):
        # asymptotic evaluates no Bessel function, so the 1.5 m aperture the
        # Bessel methods are refused at reaches the first chunk.
        def refuse(*args):
            raise AssertionError("chunk run")

        monkeypatch.setattr("oamlink.montecarlo._run_chunk", refuse)
        modes, cfg = ModeSet(tx_modes=(-2, 1)), TrialConfig(trials=1000, seed=1)
        with pytest.raises(AssertionError, match="chunk run"):
            simulate_ber(default_geom(), default_rx(aperture_radius=1.5), modes, SIGMA_THETA, cfg,
                         "asymptotic")

    def test_set_past_the_memory_budget_is_refused_before_any_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("chunk run")

        monkeypatch.setattr("oamlink.montecarlo._run_chunk", refuse)
        cfg = TrialConfig(trials=1000, seed=1)

        def run(tx, filters=None):
            modes = ModeSet(tx_modes=tx, filter_modes=filters)
            return simulate_ber(default_geom(), default_rx(), modes, SIGMA_THETA, cfg)

        # Ten single-mode streams would need 10.7 GB per chunk of 65,536.
        with pytest.raises(ValueError, match="10 streams x 10 filters need 10.7 GB"):
            run((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        # The budget is 2^n_streams * n_filter <= 256: five streams fit
        # with eight filters, not with nine.
        with pytest.raises(ValueError, match="5 streams x 9 filters"):
            run((-2, -1, 1, 2, 3), range(-4, 5))
        with pytest.raises(AssertionError, match="chunk run"):
            run((-2, -1, 1, 2, 3), range(-4, 4))


class TestTrialOutcome:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialOutcome(errors=11, trials=10, ber_hat=1.1, ci95_halfwidth=0.0)
        with pytest.raises(ValueError):
            TrialOutcome(errors=5, trials=10, ber_hat=0.3, ci95_halfwidth=0.0)
        ok = TrialOutcome(errors=5, trials=10, ber_hat=0.5, ci95_halfwidth=0.1)
        assert ok.errors == 5
