"""Acceptance suite: twelve end-to-end checks of the shipped behavior.

Each test prints one `criterion NN PASS/FAIL` line with its measured
margin (visible with `pytest -s` or on failure) and then asserts. The
criteria pin the full chain: reference-integral orthogonality, the
reduced-method agreement and asymptote, filter-bank power conservation,
sign-flip symmetry, analytic-versus-simulated BER, mode-set ordering,
waist and distance structure, speedups, the degeneracy floor, and
byte-level reproducibility of every CLI command.
"""

import contextlib
import itertools
import math
import time
import warnings

import numpy as np

from oamlink.beam import MAX_AZIMUTHAL_ORDER, LinkGeometry, ModeSet
from oamlink.ber import average_ber, conditional_ber
from oamlink.cli import main
from oamlink.crosstalk import (
    Method,
    ReceiverConfig,
    crosstalk,
    crosstalk_exact_detailed,
    shifted_aperture_field,
)
from oamlink.montecarlo import TrialConfig, simulate_ber
from oamlink.numerics import WORKERS_ENV_VAR, gauss_legendre
from oamlink.sweep import bench_methods, optimize_w0

N_STREAMS = 2
RX = ReceiverConfig(aperture_radius=0.05, noise_level=6.35e-16, k_r=6)
A2 = ModeSet(tx_modes=(-2, 1))
S2 = ModeSet(tx_modes=(-2, 2))
S1 = ModeSet(tx_modes=(-1, 1))
G4 = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))


def make_geom(w0=0.025, distance=1.0e6, p=0):
    return LinkGeometry(
        wavelength=1.55e-6, waist=w0, radial_index=p, distance=distance
    )


def check(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@contextlib.contextmanager
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def test_01_zero_offset_orthogonality():
    # With the beam centered, the reference integral must keep power leakage
    # between distinct azimuthal orders at least ten decades under the
    # matched-filter diagonal, for both radial orders, inside a minute.
    t0 = time.perf_counter()
    orders = range(-4, 5)
    worst = 0.0
    with quiet():
        for p in (0, 1):
            geom = make_geom(p=p)
            diag = {
                ell: crosstalk(geom, RX, N_STREAMS, ell, ell, 0.0, Method.EXACT2D)
                for ell in orders
            }
            for ell_n, ell_j in itertools.product(orders, repeat=2):
                if ell_n == ell_j:
                    continue
                off = crosstalk(
                    geom, RX, N_STREAMS, ell_n, ell_j, 0.0, Method.EXACT2D
                )
                worst = max(worst, off / min(diag[ell_n], diag[ell_j]))
    elapsed = time.perf_counter() - t0
    check(
        1,
        worst <= 1e-10 and elapsed < 60.0,
        f"worst off-diagonal/diagonal {worst:.2e} (limit 1e-10), {elapsed:.1f}s "
        "(limit 60s)",
    )


def test_02_reduced_methods_track_reference():
    # The sampled-radius sum stays within 5% and the closed Bessel sum
    # within 1 dB of the reference integral over the working offset range.
    t0 = time.perf_counter()
    geom = make_geom()
    worst_rel, worst_db = 0.0, 0.0
    for ell_n, ell_j in itertools.product((0, 2, 4), repeat=2):
        for r in (4.0, 8.0, 12.0, 18.0, 25.0):
            ex = crosstalk(geom, RX, N_STREAMS, ell_n, ell_j, r, Method.EXACT2D)
            rs = crosstalk(geom, RX, N_STREAMS, ell_n, ell_j, r, Method.RADIAL_SUM)
            bs = crosstalk(geom, RX, N_STREAMS, ell_n, ell_j, r, Method.BESSEL_SUM)
            worst_rel = max(worst_rel, abs(rs - ex) / ex)
            worst_db = max(worst_db, abs(10.0 * math.log10(bs / ex)))
    elapsed = time.perf_counter() - t0
    check(
        2,
        worst_rel <= 0.05 and worst_db <= 1.0 and elapsed < 600.0,
        f"radial-sum worst rel {worst_rel:.4f} (limit 0.05), bessel-sum worst "
        f"{worst_db:.3f} dB (limit 1.0), {elapsed:.1f}s (limit 600s)",
    )


def test_03_filter_bank_conserves_captured_power():
    # Summing one transmitted mode's coefficients over all filter orders
    # must recover its gain-weighted power through the aperture to 0.1%.
    # Every order a mode set admits: past |16| the coefficients are below
    # 1e-22 of the sum, so they do not move it.
    geom = make_geom()
    nodes, weights = gauss_legendre(200, 0.0, RX.aperture_radius)
    phi = 2.0 * np.pi * np.arange(256) / 256
    orders = list(range(-MAX_AZIMUTHAL_ORDER, MAX_AZIMUTHAL_ORDER + 1))
    worst = 0.0
    with quiet():
        for ell_n in (0, 2, 4):
            for r_ch in (0.0, 5.0, 15.0):
                exact = crosstalk_exact_detailed(geom, RX, ModeSet((ell_n,), orders), r_ch)
                total = sum(exact.value[:, 0].tolist()) / N_STREAMS**2

                def ring(r):
                    field = shifted_aperture_field(geom, [ell_n], r, phi, r_ch)[0]
                    power = np.abs(field) ** 2
                    return r * ((2.0 * np.pi / 256) * power.sum())

                collected = weights @ np.array([ring(r) for r in nodes])
                expected = RX.gain * collected / N_STREAMS**2
                worst = max(worst, abs(total - expected) / expected)
    check(3, worst <= 1e-3, f"worst filter-sum mismatch {worst:.2e} (limit 1e-3)")


def test_04_sign_flip_symmetry():
    # Flipping the sign of the transmitted order moves each coefficient by
    # at most 1% of the largest coefficient at that offset.
    geom = make_geom()
    worst = 0.0
    with quiet():
        for r in (2.0, 12.0, 25.0):
            values = {}
            for ell in (1, 2, 3, 4):
                for ell_j in (-3, 0, 2):
                    for signed in (ell, -ell):
                        if (signed, ell_j) not in values:
                            values[(signed, ell_j)] = crosstalk(
                                geom, RX, N_STREAMS, signed, ell_j, r, Method.EXACT2D
                            )
            scale = max(values.values())
            for ell in (1, 2, 3, 4):
                for ell_j in (-3, 0, 2):
                    diff = abs(values[(ell, ell_j)] - values[(-ell, ell_j)])
                    worst = max(worst, diff / scale)
    check(4, worst <= 0.01, f"worst sign-flip asymmetry {worst:.2e} of max (limit 0.01)")


def test_05_large_offset_asymptote_and_flattening():
    # Far off axis the closed Bessel sum approaches the offset-only
    # asymptote, and the filter outputs flatten as the offset grows.
    rx64 = ReceiverConfig(
        aperture_radius=0.05, noise_level=RX.noise_level, k_r=64
    )
    geom = make_geom()
    bs = crosstalk(geom, rx64, N_STREAMS, 0, 0, 100.0, Method.BESSEL_SUM)
    asym = crosstalk(geom, rx64, N_STREAMS, 0, 0, 100.0, Method.ASYMPTOTIC)
    ratio = bs / asym
    spreads = []
    with quiet():
        for r in (10.0, 30.0, 100.0):
            vals = crosstalk_exact_detailed(
                geom, RX, ModeSet((0,), range(5)), r
            ).value[:, 0].tolist()
            spreads.append((max(vals) - min(vals)) / float(np.mean(vals)))
    flattening = spreads[0] > spreads[1] > spreads[2]
    check(
        5,
        abs(ratio - 1.0) <= 0.10 and flattening,
        f"sum/asymptote ratio {ratio:.4f} (limit 1 +/- 0.10), spread "
        f"{spreads[0]:.3f} -> {spreads[1]:.3f} -> {spreads[2]:.3f} (must decrease)",
    )


def test_06_average_matches_simulation():
    # The quadrature average and a million-trial simulation agree within
    # three 95% confidence halfwidths at five waists, within 15 minutes.
    t0 = time.perf_counter()
    sigma_theta = 2.0e-5
    margins = []
    with quiet():
        for w0 in (0.013, 0.014, 0.015, 0.016, 0.017):
            geom = make_geom(w0)
            analytic = average_ber(geom, RX, A2, sigma_theta, Method.BESSEL_SUM, 192).averaged
            cfg = TrialConfig(trials=1_000_000, seed=12345, allow_degraded=True)
            out = simulate_ber(geom, RX, A2, sigma_theta, cfg, Method.BESSEL_SUM)
            margins.append(abs(analytic - out.ber_hat) / (3.0 * out.ci95_halfwidth))
    elapsed = time.perf_counter() - t0
    check(
        6,
        max(margins) <= 1.0 and elapsed < 900.0,
        f"worst |analytic-mc| at {max(margins):.2f} of the 3*CI95 budget "
        f"(limit 1.0), {elapsed:.1f}s (limit 900s)",
    )


def test_07_asymmetric_mode_sets_win():
    # Averaged BER ranking: the grouped four-mode set beats {-2,1}, which
    # beats both symmetric sets, across the waist range.
    sigma_theta = 3.0e-5
    ok = True
    gaps = []
    with quiet():
        for w0 in np.linspace(0.015, 0.05, 5):
            geom = make_geom(w0)
            ber = {
                name: average_ber(geom, RX, ms, sigma_theta, Method.RADIAL_SUM, 96).averaged
                for name, ms in (("g4", G4), ("a2", A2), ("s2", S2), ("s1", S1))
            }
            ok = ok and ber["g4"] < ber["a2"] < min(ber["s2"], ber["s1"])
            gaps.append(min(ber["s2"], ber["s1"]) / ber["a2"])
    check(
        7,
        ok,
        f"ordering grouped < asymmetric-pair < symmetric held at 5 waists; "
        f"smallest symmetric/asymmetric gap {min(gaps):.2f}x",
    )


def test_08_interior_waist_optimum():
    # Each jitter level has an interior optimal waist, and a poorly chosen
    # waist at low jitter loses to the optimum at three times the jitter.
    results = {}
    with quiet():
        for sigma in (1.0e-5, 2.0e-5, 3.0e-5):
            results[sigma] = optimize_w0(
                make_geom(), RX, A2, sigma, (0.005, 0.06), 5.0e-4,
                Method.RADIAL_SUM, 96,
            )
        cross = average_ber(
            make_geom(0.01), RX, A2, 1.0e-5,
            Method.RADIAL_SUM, 96,
        ).averaged
    interior = all(
        not r.boundary and 0.005 < r.w0_opt < 0.06 for r in results.values()
    )
    beats = cross > results[3.0e-5].ber_opt
    check(
        8,
        interior and beats,
        "interior optima at sigma 10/20/30 urad "
        f"(w0* = {', '.join(f'{r.w0_opt*100:.2f}cm' for r in results.values())}); "
        f"bad-waist low-jitter BER {cross:.2e} > optimal high-jitter "
        f"{results[3.0e-5].ber_opt:.2e}",
    )


def test_09_distance_trend():
    # At a fixed near-optimal waist the averaged BER grows with distance,
    # and the per-distance optimal waists stay within 50% of each other.
    distances = (5.0e5, 1.0e6, 1.5e6)
    with quiet():
        trend = [
            average_ber(
                make_geom(0.0115, z), RX, A2, 3.0e-5,
                Method.RADIAL_SUM, 96,
            ).averaged
            for z in distances
        ]
        optima = []
        for z in distances:
            res = optimize_w0(
                make_geom(0.025, z), RX, A2, 3.0e-5, (0.005, 0.06), 5.0e-4,
                Method.RADIAL_SUM, 96,
            )
            optima.append(res.w0_opt)
    increasing = trend[0] < trend[1] < trend[2]
    spread = max(optima) / min(optima)
    check(
        9,
        increasing and spread <= 1.5,
        f"ber {trend[0]:.2e} < {trend[1]:.2e} < {trend[2]:.2e} over "
        f"500/1000/1500 km; optima spread {spread:.3f}x (limit 1.5x)",
    )


def test_10_speedups(monkeypatch):
    # On one shared 50-point grid the sampled-radius sum must be at least
    # 5x and the closed Bessel sum at least 50x faster than the reference
    # integral; the quadrature average must beat a million-trial simulation
    # by at least 100x. The reference integral runs on the worker threads,
    # so their count is pinned to the benchmark's two: the speedups must
    # not follow the host's CPUs.
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    report = bench_methods(
        make_geom(),
        RX,
        A2,
        3.0e-5,
        2.0,
        20.0,
        50,
        repetitions=3,
        methods=(Method.EXACT2D, Method.RADIAL_SUM, Method.BESSEL_SUM),
        mc_trials=1_000_000,
    )
    s_rs = report.speedup_vs_exact[Method.RADIAL_SUM.value]
    s_bs = report.speedup_vs_exact[Method.BESSEL_SUM.value]
    s_mc = report.mc_over_analytic
    check(
        10,
        s_rs >= 5.0 and s_bs >= 50.0 and s_mc >= 100.0,
        f"radial-sum {s_rs:.0f}x (limit 5x), bessel-sum {s_bs:.0f}x (limit 50x) "
        f"vs exact2d; analytic average {s_mc:.0f}x vs 1e6-trial mc (limit 100x)",
    )


def test_11_identical_signature_floor():
    # Two streams with identical channel signatures are undecidable half
    # the time on one stream: conditional BER 0.25, and the simulator
    # reproduces it within its confidence interval.
    h = np.array([[1.0, 1.0], [0.5, 0.5]])
    floor = float(conditional_ber(h[:, 0], h[:, 1], 1.0e-12))
    cfg = TrialConfig(trials=100_000, seed=7)
    out = simulate_ber(
        make_geom(), RX, A2, 2.0e-5, cfg, Method.BESSEL_SUM, amplitude_matrix=h
    )
    mc_gap = abs(out.ber_hat - 0.25)
    check(
        11,
        math.isclose(floor, 0.25, rel_tol=0, abs_tol=1e-12)
        and mc_gap <= out.ci95_halfwidth,
        f"conditional {floor!r} (expected 0.25), mc off by {mc_gap:.2e} "
        f"(CI95 {out.ci95_halfwidth:.2e})",
    )


def test_12_manifest_reruns_are_byte_identical(tmp_path, capsys):
    # Every command rerun from its own manifest must reproduce the output
    # file byte for byte.
    runs = {
        "crosstalk-curve": ["crosstalk-curve", "--grid", "5,10"],
        "ber-curve": [
            "ber-curve", "--axis", "w0", "--grid", "0.02,0.025",
            "--candidates=-2|1", "-s", "quad.order=48",
        ],
        "monte-carlo": ["monte-carlo", "--trials", "20000"],
        "optimize": [
            "optimize", "--lo", "0.008", "--hi", "0.03", "--tol", "0.002",
            "-s", "quad.order=48",
        ],
        "rank-modes": [
            "rank-modes", "--candidates=-2|1;-1|1", "--method", "radial-sum",
            "-s", "quad.order=48",
        ],
        "bench": [
            "bench", "-s", "bench.grid_points=2", "-s", "bench.r_min_m=5",
            "-s", "bench.r_max_m=10", "-s", "bench.repetitions=3",
            "-s", "bench.mc_trials=1000",
        ],
    }
    stable = []
    for name, args in runs.items():
        first = tmp_path / f"{name}.out"
        second = tmp_path / f"{name}.rerun"
        code = main(args + ["-o", str(first)])
        assert code == 0, f"{name} exited {code}"
        code = main([name, "-c", str(first) + ".manifest", "-o", str(second)])
        assert code == 0, f"{name} rerun exited {code}"
        stable.append(first.read_bytes() == second.read_bytes())
    capsys.readouterr()
    detail = ", ".join(
        f"{name}={'ok' if ok else 'DIFFERS'}" for name, ok in zip(runs, stable)
    )
    check(12, all(stable), detail)
