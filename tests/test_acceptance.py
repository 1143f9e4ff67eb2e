"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from opampfit import (
    DeviceParams,
    NoiseModel,
    QuickCrossoverFit,
    SweepPlan,
    SweepRecord,
    TimeSeries,
    Topology,
    add_gain_noise,
    analyze_batch,
    closed_loop_gain,
    crossover_from_minus3db,
    fit_f0,
    lockin_demodulate,
    quick_f0_general,
    run_sweep,
    simulate_steady_state,
)

TWO_PI = 2.0 * math.pi


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_time_domain_matches_closed_form():
    """Lock-in demodulated simulation gain equals the closed-form magnitude
    to 0.1 % at 10 log-spaced frequencies in [1 kHz, 1 MHz]."""
    started = time.perf_counter()
    dev = DeviceParams(f0=39.6e6)
    topo = Topology(feedback_r=1989.0, gain_r=20.1)
    worst = 0.0
    for f in np.logspace(3.0, 6.0, 10):
        f = float(f)
        out = simulate_steady_state(dev, topo, f)
        times = np.arange(out.samples.size) * out.dt
        ref = TimeSeries(dt=out.dt, samples=np.sin(TWO_PI * f * times))
        simulated = lockin_demodulate(out, f) / lockin_demodulate(ref, f)
        oracle = abs(closed_loop_gain(dev, topo, f))
        worst = max(worst, abs(simulated / oracle - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and elapsed <= 10.0
    assert report(
        "criterion 1 (time domain vs closed form)", ok,
        f"worst rel dev {worst:.2e} (limit 1e-3), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_noiseless_regression_round_trip():
    """A noiseless 512-point 10-100 kHz sweep fits f0 to 1e-4 relative with
    corr >= 1 - 1e-9."""
    started = time.perf_counter()
    truth = 97.73e6
    record = run_sweep(
        DeviceParams(f0=truth),
        Topology(feedback_r=100.0, gain_r=1.0),
        SweepPlan(f_min=1e4, f_max=1e5, n_points=512),
    )
    result = fit_f0(record)
    elapsed = time.perf_counter() - started
    rel_err = abs(result.f0_hz_ - truth) / truth
    ok = rel_err <= 1e-4 and result.corr_ >= 1.0 - 1e-9 and elapsed <= 5.0
    assert report(
        "criterion 2 (noiseless round trip)", ok,
        f"f0 rel err {rel_err:.2e} (limit 1e-4), 1-corr {1.0 - result.corr_:.2e} "
        f"(limit 1e-9), {elapsed:.1f}s (limit 5s)",
    )


def test_criterion_3_noise_robustness():
    """100 seeded trials at sigma_rel = 0.003, f0 = 97.73 MHz, beta = 1/101:
    at least 95 give corr >= 0.999 and a fitted f0 within 1 % of truth.

    The criterion leaves the sweep plan free; 512 linear points over
    10 kHz - 1 MHz are used so the sweep resolves the closed-loop corner at
    ~968 kHz.  (At the 10-100 kHz synth default this noise level cannot
    reach corr 0.999: the roll-off signal across that band is only ~1 % of
    1/gain^2 while the noise is 0.6 % of it per point.)  The noiseless sweep
    is simulated once and only the noise is redrawn per trial, which is
    pinned bit-for-bit to a freshly simulated sweep on trial 0.
    """
    started = time.perf_counter()
    truth = 97.73e6
    dev = DeviceParams(f0=truth)
    topo = Topology(feedback_r=100.0, gain_r=1.0)
    plan = SweepPlan(f_min=1e4, f_max=1e6, n_points=512)
    noise = NoiseModel(sigma_rel=0.003)
    clean = run_sweep(dev, topo, plan)
    first = add_gain_noise(run_sweep(dev, topo, plan), noise, (303, 0))
    assert np.array_equal(add_gain_noise(clean, noise, (303, 0)).gain, first.gain)
    good = 0
    for trial in range(100):
        record = add_gain_noise(clean, noise, (303, trial))
        result = fit_f0(record)
        if result.corr_ >= 0.999 and abs(result.f0_hz_ - truth) / truth <= 0.01:
            good += 1
    elapsed = time.perf_counter() - started
    ok = good >= 95 and elapsed <= 60.0
    assert report(
        "criterion 3 (noise robustness)", ok,
        f"{good}/100 trials passed (need >= 95), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_4_quick_method_consistency():
    """QuickCrossoverFit(n=2) agrees with the regression within 0.1 % on noiseless
    sweeps, and the closed-form halving identity holds to 1e-9."""
    started = time.perf_counter()
    truth = 97.73e6
    dev = DeviceParams(f0=truth)
    topo = Topology(feedback_r=100.0, gain_r=1.0)
    freqs = np.linspace(1e4, 3e6, 512)
    gains = np.array([abs(closed_loop_gain(dev, topo, float(f))) for f in freqs])
    record = SweepRecord(frequency_hz=freqs, gain=gains)
    quick = QuickCrossoverFit(n=2.0).fit(record.frequency_hz, record.gain).f0_hz_
    regression = fit_f0(record).f0_hz_
    method_dev = abs(quick - regression) / regression

    y0 = abs(closed_loop_gain(dev, topo, 0.0))
    f_half = brentq(
        lambda f: abs(closed_loop_gain(dev, topo, f)) - y0 / 2.0,
        1e3, 1e9, xtol=1e-6, rtol=8.9e-16,
    )
    identity_dev = abs(quick_f0_general(topo, 2.0, f_half) - truth) / truth
    elapsed = time.perf_counter() - started
    ok = method_dev <= 1e-3 and identity_dev <= 1e-9
    assert report(
        "criterion 4 (quick method)", ok,
        f"quick vs fit {method_dev:.2e} (limit 1e-3), "
        f"halving identity {identity_dev:.2e} (limit 1e-9), {elapsed:.1f}s",
    )


def test_criterion_5_crossover_relation():
    """For R_F = 1 kOhm, R_G = 10 Ohm the numerically located 1/sqrt(2)
    frequency times 101 reproduces f0, and the exact -3 dB point differs in
    gain power by 10**-0.3 - 1/2 ~ 1.19e-3 (three significant figures)."""
    started = time.perf_counter()
    truth = 97.73e6
    dev = DeviceParams(f0=truth)
    topo = Topology(feedback_r=1000.0, gain_r=10.0)
    y0_sq = abs(closed_loop_gain(dev, topo, 0.0)) ** 2

    def power_ratio(f):
        return abs(closed_loop_gain(dev, topo, f)) ** 2 / y0_sq

    f_sqrt2 = brentq(lambda f: power_ratio(f) - 0.5, 1e3, 1e9, rtol=8.9e-16)
    f_exact_3db = brentq(lambda f: power_ratio(f) - 10.0**-0.3, 1e3, 1e9, rtol=8.9e-16)
    crossover_dev = abs(crossover_from_minus3db(topo, f_sqrt2) - truth) / truth
    mismatch = power_ratio(f_exact_3db) - power_ratio(f_sqrt2)
    mismatch_ok = abs(mismatch - 1.19e-3) < 5e-6
    elapsed = time.perf_counter() - started
    ok = crossover_dev <= 1e-9 and mismatch_ok
    assert report(
        "criterion 5 (crossover relation)", ok,
        f"101*f_(1/sqrt2) dev {crossover_dev:.2e} (limit 1e-9), power mismatch "
        f"{mismatch:.4e} vs 1.19e-3, {elapsed:.1f}s",
    )


def test_criterion_6_distribution_pipeline():
    """400 seeded draws from Normal(97.73 MHz, 1.62 MHz) report a relative
    spread of 1.66 % +/- 0.2 pp; over 100 ensemble repeats, cdf_corr >= 0.996
    and two-sided Kolmogorov d*sqrt(N) < 1.358 each hold at least 90 times."""
    started = time.perf_counter()
    mean_target, sigma_target = 97.73e6, 1.62e6

    canonical = np.random.default_rng(777).normal(mean_target, sigma_target, 400)
    spread_pct = 100.0 * canonical.std(ddof=1) / canonical.mean()
    spread_ok = abs(spread_pct - 1.66) <= 0.2

    corr_ok = 0
    d_ok = 0
    for rep in range(100):
        rng = np.random.default_rng([777, rep])
        stats = analyze_batch(rng.normal(mean_target, sigma_target, 400))
        if stats.cdf_corr >= 0.996:
            corr_ok += 1
        if stats.kolmogorov_d * math.sqrt(400) < 1.358:
            d_ok += 1
    elapsed = time.perf_counter() - started
    ok = spread_ok and corr_ok >= 90 and d_ok >= 90 and elapsed <= 30.0
    assert report(
        "criterion 6 (distribution pipeline)", ok,
        f"spread {spread_pct:.3f}% (1.66 +/- 0.2), corr pass {corr_ok}/100, "
        f"d*sqrt(N) pass {d_ok}/100 (need >= 90), {elapsed:.1f}s (limit 30s)",
    )
