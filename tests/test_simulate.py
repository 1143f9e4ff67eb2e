"""Time-domain integrator, lock-in demodulation, and sweep tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from opampfit import (
    DeviceParams,
    NoiseModel,
    SimConfig,
    SimulationError,
    SweepPlan,
    TimeSeries,
    Topology,
    add_gain_noise,
    closed_loop_gain,
    fit_f0,
    lockin_demodulate,
    run_sweep,
    simulate_steady_state,
)
from opampfit import simulate
from opampfit.simulate import MAX_SWEEP_POINTS, _noisy_gains

TWO_PI = 2.0 * math.pi


def closed_loop_ode_rhs(dev, topo, u_in, u_out):
    """Right-hand side dU0/dt = (u_in - (beta + 1/g0)*u_out)/tau0 in V/s."""
    return (u_in - (topo.beta + dev.inv_g0) * u_out) / dev.tau0


def rk4_step(rhs, t, y, h):
    """One classical 4th-order Runge-Kutta step of ``dy/dt = rhs(t, y)``."""
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2.0, y + h * k1 / 2.0)
    k3 = rhs(t + h / 2.0, y + h * k2 / 2.0)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulated_gain(dev, topo, f, cfg=None):
    """End-to-end amplitude ratio, demodulating both stimulus and output."""
    out = simulate_steady_state(dev, topo, f, cfg)
    times = np.arange(out.samples.size) * out.dt
    ref = TimeSeries(dt=out.dt, samples=np.sin(TWO_PI * f * times))
    return lockin_demodulate(out, f) / lockin_demodulate(ref, f)


class TestOdeRhs:
    def test_equilibrium(self):
        dev = DeviceParams(f0=1e8)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        u_out = 3.7
        assert closed_loop_ode_rhs(dev, topo, topo.beta * u_out, u_out) == 0.0

    def test_unit_drive_slope(self):
        # tau0 = 1/(2*pi*1e8) s, so a unit input from rest slews at 2*pi*1e8 V/s
        dev = DeviceParams(f0=1e8)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        assert dev.tau0 == pytest.approx(1.5915494309189535e-9, rel=1e-12)
        assert closed_loop_ode_rhs(dev, topo, 1.0, 0.0) == pytest.approx(TWO_PI * 1e8, rel=1e-12)

    def test_transient_decay_rate(self):
        # oracle: analytic solution u(t) = u(0) * exp(-(beta + 1/g0) t / tau0)
        dev = DeviceParams(f0=5e7, g0=1e5)
        topo = Topology(feedback_r=200.0, gain_r=10.0)
        rate = (topo.beta + 1.0 / dev.g0) / dev.tau0
        h = 0.01 / rate
        u, t = 1.0, 0.0
        for _ in range(500):
            u = rk4_step(lambda tt, uu: closed_loop_ode_rhs(dev, topo, 0.0, uu), t, u, h)
            t += h
        assert u == pytest.approx(math.exp(-rate * t), rel=1e-8)


class TestLockin:
    @pytest.mark.parametrize("phase", [0.0, 1.0, math.pi / 3.0, 2.1])
    def test_pure_tone_any_phase(self, phase):
        f, n, periods = 1e3, 256, 8
        dt = 1.0 / (f * n)
        t = np.arange(n * periods + 1) * dt
        ts = TimeSeries(dt=dt, samples=2.5 * np.sin(TWO_PI * f * t + phase))
        assert lockin_demodulate(ts, f) == pytest.approx(2.5, rel=1e-6)

    def test_harmonic_rejection(self):
        f, n, periods = 1e3, 256, 8
        dt = 1.0 / (f * n)
        t = np.arange(n * periods + 1) * dt
        samples = 2.5 * np.sin(TWO_PI * f * t) + 0.25 * np.sin(TWO_PI * 3.0 * f * t)
        assert lockin_demodulate(TimeSeries(dt=dt, samples=samples), f) == pytest.approx(
            2.5, rel=1e-4
        )

    def test_dc_rejection(self):
        f, n, periods = 1e3, 128, 4
        dt = 1.0 / (f * n)
        ts = TimeSeries(dt=dt, samples=np.full(n * periods + 1, 7.7))
        assert lockin_demodulate(ts, f) <= 1e-9 * 7.7

    def test_non_integer_period_coverage_rejected(self):
        f, n = 1e3, 256
        dt = 1.0 / (f * n)
        t = np.arange(int(n * 2.5)) * dt  # 2.5 periods
        ts = TimeSeries(dt=dt, samples=np.sin(TWO_PI * f * t))
        with pytest.raises(ValueError, match="whole number of periods"):
            lockin_demodulate(ts, f)

    def test_rejects_nonpositive_reference(self):
        ts = TimeSeries(dt=1e-6, samples=np.zeros(100))
        with pytest.raises(ValueError):
            lockin_demodulate(ts, 0.0)


class TestSimulateSteadyState:
    def test_repeater_passes_low_frequency(self):
        dev = DeviceParams(f0=1e8)
        gain = simulated_gain(dev, Topology.repeater(), 1e4)
        assert gain == pytest.approx(1.0, rel=1e-3)

    def test_gain_100_amplifier_at_1khz(self):
        # oracle: closed-form magnitude at the stimulus frequency
        dev = DeviceParams(f0=39.6e6)
        topo = Topology(feedback_r=1989.0, gain_r=20.1)
        oracle = abs(closed_loop_gain(dev, topo, 1e3))
        assert simulated_gain(dev, topo, 1e3) == pytest.approx(oracle, rel=1e-3)

    def test_overflow_reports_step_index(self):
        # without the time-constant refinement the step is 9.5x the loop tau:
        # RK4 is unstable there and the state must blow up detectably
        dev = DeviceParams(f0=1e8)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        cfg = SimConfig(steps_per_period=64, steps_per_tau=0)
        with pytest.raises(SimulationError) as excinfo:
            simulate_steady_state(dev, topo, 1e4, cfg)
        assert excinfo.value.step_index > 0

    @pytest.mark.parametrize("frequency", [0.0, -1.0, math.nan])
    def test_rejects_a_frequency_that_is_not_positive(self, frequency):
        dev = DeviceParams(f0=1e8)
        with pytest.raises(ValueError, match="frequency must be positive"):
            simulate_steady_state(dev, Topology.repeater(), frequency)

    def test_slow_loop_near_corner_matches_closed_form(self):
        # at f >> f_corner the loop decays by only exp(-1.6) per period, so
        # the trace is right only if it starts on the periodic orbit
        dev = DeviceParams(f0=1e7)
        topo = Topology.repeater()
        oracle = abs(closed_loop_gain(dev, topo, 4e7))
        assert simulated_gain(dev, topo, 4e7) == pytest.approx(oracle, rel=1e-3)


class TestSimulateInvariants:
    def test_matches_closed_form_across_band(self):
        # ties the time-domain equation to the frequency-domain formula
        dev = DeviceParams(f0=39.6e6)
        topo = Topology(feedback_r=1989.0, gain_r=20.1)
        for f in np.geomspace(dev.f0 / 1e4, dev.f0 / 10.0, 10):
            oracle = abs(closed_loop_gain(dev, topo, float(f)))
            assert simulated_gain(dev, topo, float(f)) == pytest.approx(oracle, rel=1e-3)

    def test_amplitude_converged_in_dt(self):
        dev = DeviceParams(f0=1e7)
        topo = Topology.repeater()
        coarse = simulated_gain(dev, topo, 5e6, SimConfig(steps_per_period=256))
        fine = simulated_gain(dev, topo, 5e6, SimConfig(steps_per_period=512))
        assert abs(fine - coarse) / fine < 1e-4

    @pytest.mark.parametrize("f_over_f0", [0.01, 1.0, 10.0])
    def test_repeater_never_amplifies(self, f_over_f0):
        dev = DeviceParams(f0=1e7)
        gain = simulated_gain(dev, Topology.repeater(), f_over_f0 * dev.f0)
        assert gain <= 1.0 + 1e-9

    def test_fast_path_matches_stepwise_rk4(self):
        # the lfilter recurrence must reproduce the naive per-step trajectory
        dev = DeviceParams(f0=1e5, g0=1e4)
        topo = Topology(feedback_r=30.0, gain_r=10.0)
        f = 1e4
        cfg = SimConfig(steps_per_period=256, steps_per_tau=16)
        out = simulate_steady_state(dev, topo, f, cfg)

        n = round(1.0 / (f * out.dt))
        h = out.dt

        def rhs(t, u):
            return closed_loop_ode_rhs(dev, topo, math.sin(TWO_PI * f * t), u)

        u, t = 0.0, 0.0
        trace = []
        for step in range(3 * n + 1):
            if step >= 2 * n:
                trace.append(u)
            u = rk4_step(rhs, t, u, h)
            t = (step + 1) * h
        np.testing.assert_allclose(out.samples, np.array(trace), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "f0, topo, f",
        [
            (97.73e6, Topology(feedback_r=100.0, gain_r=1.0), 1e4),
            (1e7, Topology.repeater(), 4e7),
            # the loop decays by only exp(-0.06) per period here
            (1e6, Topology.repeater(), 1e8),
        ],
    )
    def test_trace_is_one_period_of_the_orbit(self, f0, topo, f):
        out = simulate_steady_state(DeviceParams(f0=f0), topo, f)
        assert (out.samples.size - 1) * out.dt * f == pytest.approx(1.0, rel=1e-12)
        assert out.samples[-1] == pytest.approx(out.samples[0], rel=1e-12)

    def test_unstable_step_is_refused(self):
        # with the time-constant refinement off, the step is ~10 loop time
        # constants: |A| >> 1
        cfg = SimConfig(steps_per_period=64, steps_per_tau=0)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        dev = DeviceParams(f0=1e8)
        with pytest.raises(SimulationError, match="unstable") as excinfo:
            simulate_steady_state(dev, topo, 1e4, cfg)
        assert excinfo.value.step_index > 0
        assert excinfo.value.frequency == 1e4


def legacy_sweep_gain(dev, topo, f):
    """Sweep gain by the settle-then-measure method: integrate RK4 from rest
    through max(5, ceil(10 tau f)) settling periods and 4 measured ones, and
    divide the lock-in amplitudes of the last 4 output periods and of the
    stimulus over them.  Each RK4 step is applied to whole arrays: its
    homogeneous factor is the step from u = 1 without drive, and its
    forcing term the step from u = 0 with drive."""

    def rate(d, t):
        return (t.beta + d.inv_g0) / d.tau0

    def rk4_from_rest(a, g, h):
        # g holds the forcing on the half-step grid
        def step(u, g0, g_half, g1):
            k1 = a * u + g0
            k2 = a * (u + h / 2.0 * k1) + g_half
            k3 = a * (u + h / 2.0 * k2) + g_half
            k4 = a * (u + h * k3) + g1
            return u + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        growth = step(1.0, 0.0, 0.0, 0.0)
        forcing = step(0.0, g[0:-1:2], g[1::2], g[2::2])
        return np.concatenate(([0.0], lfilter([1.0], [1.0, -growth], forcing)))

    tau_cap = 1.0 / rate(dev, topo)
    n = max(256, math.ceil(16 * (1.0 / f) / tau_cap))
    settle = max(5, math.ceil(10.0 * f / rate(dev, topo)))
    steps = (settle + 4) * n
    h = 1.0 / (f * n)
    drive = np.sin(TWO_PI * f * np.arange(2 * steps + 1) * (h / 2.0))
    u = rk4_from_rest(-rate(dev, topo), drive / dev.tau0, h)

    t = np.arange(4 * n + 1) * h

    def amplitude(x):
        i_part = np.trapezoid(x * np.cos(TWO_PI * f * t), dx=h)
        q_part = np.trapezoid(x * np.sin(TWO_PI * f * t), dx=h)
        return math.hypot(i_part, q_part)

    return amplitude(u[settle * n:]) / amplitude(np.sin(TWO_PI * f * t))


class TestRunSweep:
    def test_noiseless_round_trip(self):
        record = run_sweep(
            DeviceParams(f0=9.773e7),
            Topology(feedback_r=100.0, gain_r=1.0),
            SweepPlan(1e4, 1e5, 64),
        )
        result = fit_f0(record)
        assert result.f0_hz_ == pytest.approx(9.773e7, rel=1e-4)
        assert record.feedback_r == 100.0 and record.gain_r == 1.0

    def test_noise_stays_within_five_sigma(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 32)
        clean = run_sweep(dev, topo, plan, NoiseModel(0.0), seed=11)
        noisy = run_sweep(dev, topo, plan, NoiseModel(0.03), seed=11)
        rel = np.abs(noisy.gain / clean.gain - 1.0)
        assert np.all(rel <= 0.15)
        assert rel.max() > 0.0

    def test_seeded_runs_identical(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 16)
        a = run_sweep(dev, topo, plan, NoiseModel(0.01), seed=42)
        b = run_sweep(dev, topo, plan, NoiseModel(0.01), seed=42)
        assert np.array_equal(a.gain, b.gain) and np.array_equal(a.frequency_hz, b.frequency_hz)

    def test_different_seeds_differ(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 16)
        a = run_sweep(dev, topo, plan, NoiseModel(0.01), seed=1)
        b = run_sweep(dev, topo, plan, NoiseModel(0.01), seed=2)
        assert not np.array_equal(a.gain, b.gain)

    def test_plan_needs_three_points(self):
        with pytest.raises(ValueError):
            SweepPlan(1e4, 1e5, 2)

    @pytest.mark.parametrize("f_min,f_max", [(1e4, math.inf), (math.nan, 1e5), (1e4, math.nan)])
    def test_plan_bounds_must_be_finite(self, f_min, f_max):
        with pytest.raises(ValueError, match="finite 0 < f_min < f_max"):
            SweepPlan(f_min, f_max, 16)

    def test_plan_points_are_bounded(self):
        assert SweepPlan(1e4, 1e5, MAX_SWEEP_POINTS).n_points == MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match="n_points"):
            SweepPlan(1e4, 1e5, MAX_SWEEP_POINTS + 1)

    def test_log_spacing(self):
        freqs = SweepPlan(1e3, 1e6, 4, spacing="log").frequencies()
        np.testing.assert_allclose(freqs, [1e3, 1e4, 1e5, 1e6], rtol=1e-12)

    @pytest.mark.parametrize("f_max", [1e5, 1e6])
    def test_gains_match_settle_then_measure(self, f_max):
        # the default and criterion-3 plans, eight points each
        dev = DeviceParams(f0=97.73e6)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        record = run_sweep(dev, topo, SweepPlan(1e4, f_max, 512))
        for k in np.linspace(0, 511, 8).astype(int):
            f = float(record.frequency_hz[k])
            assert record.gain[k] == pytest.approx(legacy_sweep_gain(dev, topo, f), rel=1e-12)

    def test_simulation_error_carries_frequency(self):
        dev = DeviceParams(f0=1e8)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        cfg = SimConfig(steps_per_period=64, steps_per_tau=0)
        with pytest.raises(SimulationError) as excinfo:
            run_sweep(dev, topo, SweepPlan(1e4, 2e4, 3), cfg=cfg)
        assert excinfo.value.frequency == pytest.approx(1e4)


def noise_oracle(clean, sigma, seed_words):
    """Gains of ``clean`` scaled point by point with the documented stream,
    point ``k`` taking the ``k``-th draw of one generator seeded with
    ``seed_words``, written out independently of the library."""
    draws = np.random.default_rng([*seed_words]).standard_normal(clean.n_points)
    return np.array([gain * (1.0 + sigma * z) for gain, z in zip(clean.gain, draws)])


class TestAddGainNoise:
    DEV = DeviceParams(f0=9.773e7)
    TOPO = Topology(feedback_r=100.0, gain_r=1.0)

    @pytest.mark.parametrize(
        ("seed", "words"), [(7, (7,)), ((303, 4), (303, 4)), ((5, 0, 9), (5, 0, 9))]
    )
    def test_reuse_equals_noisy_sweep(self, seed, words):
        plan = SweepPlan(1e4, 1e5, 16)
        noise = NoiseModel(3e-3)
        clean = run_sweep(self.DEV, self.TOPO, plan)
        reused = add_gain_noise(clean, noise, seed)
        direct = run_sweep(self.DEV, self.TOPO, plan, noise, seed=seed)
        assert np.array_equal(reused.gain, direct.gain)
        assert np.array_equal(reused.frequency_hz, direct.frequency_hz)
        assert np.array_equal(direct.gain, noise_oracle(clean, 3e-3, words))
        assert (reused.feedback_r, reused.gain_r) == (direct.feedback_r, direct.gain_r)

    def test_noiseless_model_returns_record(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8))
        assert add_gain_noise(clean, NoiseModel(0.0), (1, 2)) is clean
        direct = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8), NoiseModel(0.0), seed=3)
        assert np.array_equal(direct.gain, clean.gain)

    def test_input_record_is_not_modified(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8))
        before = clean.gain.copy()
        add_gain_noise(clean, NoiseModel(0.03), 1)
        assert np.array_equal(clean.gain, before)

    def test_non_positive_gain_is_refused(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 16))
        noisy = noise_oracle(clean, 10.0, (0,))
        first = int(np.flatnonzero(noisy <= 0.0)[0])
        with pytest.raises(SimulationError, match="non-positive") as excinfo:
            add_gain_noise(clean, NoiseModel(10.0), 0)
        assert excinfo.value.frequency == clean.frequency_hz[first]

    @settings(max_examples=15, deadline=None)
    @given(
        n_points=st.integers(min_value=3, max_value=8),
        order=st.permutations(range(5)),
    )
    def test_trial_records_do_not_depend_on_order(self, n_points, order):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, n_points))
        noise = NoiseModel(1e-3)
        shuffled = {trial: add_gain_noise(clean, noise, (9, trial)).gain for trial in order}
        for trial in range(5):
            in_order = add_gain_noise(clean, noise, (9, trial)).gain
            assert np.array_equal(shuffled[trial], in_order)

    @settings(max_examples=25)
    @given(
        n_points=st.integers(min_value=3, max_value=200),
        m_frac=st.floats(0.0, 1.0),
        words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    )
    def test_draws_are_prefix_stable(self, n_points, m_frac, words):
        # the first m points of an n-point record draw what an m-point record draws
        m_points = 3 + round(m_frac * (n_points - 3))
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, n_points))
        head = replace(clean, frequency_hz=clean.frequency_hz[:m_points],
                       gain=clean.gain[:m_points])
        noise = NoiseModel(1e-2)
        long_record = add_gain_noise(clean, noise, tuple(words))
        short_record = add_gain_noise(head, noise, tuple(words))
        assert np.array_equal(long_record.gain[:m_points], short_record.gain)

    def test_gain_matrix_rows_are_records(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 16))
        seeds = [(4, trial) for trial in range(6)]
        gains, refusal = _noisy_gains(clean, 0.05, seeds)
        assert refusal is None and gains.shape == (6, 16)
        for row, words in zip(gains, seeds):
            assert np.array_equal(row, add_gain_noise(clean, NoiseModel(0.05), words).gain)

    def test_gain_matrix_refuses_its_first_bad_gain_in_row_major_order(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 16))
        seeds = [(10, trial) for trial in range(4)]
        bad = [np.flatnonzero(noise_oracle(clean, 0.5, words) <= 0.0) for words in seeds]
        # rows 0 and 1 draw no bad gain and row 2 does, at a later point than row 3
        assert [b.size > 0 for b in bad] == [False, False, True, True]
        assert bad[2][0] > bad[3][0]
        _, (row, err) = _noisy_gains(clean, 0.5, seeds)
        assert row == 2 and err.frequency == clean.frequency_hz[bad[2][0]]
        with pytest.raises(SimulationError) as direct:
            add_gain_noise(clean, NoiseModel(0.5), seeds[2])
        assert str(err) == str(direct.value)


def trace_sweep(dev, topo, plan, cfg=None):
    """Sweep gains read off the time-domain trace API, point by point."""
    gains = []
    for f in plan.frequencies():
        out = simulate_steady_state(dev, topo, float(f), cfg)
        gains.append(lockin_demodulate(out, float(f)))
    return np.array(gains)


def assert_same_sweep_error(dev, topo, plan, cfg=None):
    """run_sweep refuses ``plan`` with the error of its first failing point."""
    with pytest.raises(SimulationError) as expected:
        trace_sweep(dev, topo, plan, cfg)
    with pytest.raises(SimulationError) as got:
        run_sweep(dev, topo, plan, cfg=cfg)
    assert str(got.value) == str(expected.value)
    assert got.value.frequency == expected.value.frequency
    assert got.value.step_index == expected.value.step_index


def map_orbit_gains(dev, topo, plan):
    """Sweep gains of the periodic orbit of the RK4 step map, the formula of
    ``_orbit_response``, evaluated at 40 digits with mpmath on the same float
    steps ``h``, loop rate and ``1/tau0`` that ``run_sweep`` uses."""
    mp = pytest.importorskip("mpmath")
    freqs = plan.frequencies()
    steps = 1.0 / (freqs * simulate._plan_window(dev, topo, freqs, SimConfig()))
    rate = mp.mpf(-simulate._loop_rate(dev, topo))
    gains = []
    with mp.workdps(40):
        for f, h in zip(map(mp.mpf, freqs.tolist()), map(mp.mpf, steps.tolist())):
            z = rate * h
            a_m1 = z * (1 + z * (mp.mpf(1) / 2 + z * (mp.mpf(1) / 6 + z / 24)))
            c1 = 1 + z * (1 + z * (mp.mpf(1) / 2 + z / 4))
            c2 = 4 + z * (2 + z / 2)
            half = mp.expjpi(f * h)  # exp(j*w*h/2)
            response = h / 6 * (c1 + c2 * half + half * half) / (half * half - 1 - a_m1)
            gains.append(float(abs(response) * (1.0 / dev.tau0)))
    return np.array(gains)


SWEEP_PLANS = [
    pytest.param(97.73e6, Topology(feedback_r=100.0, gain_r=1.0), SweepPlan(), id="default"),
    pytest.param(97.73e6, Topology(feedback_r=100.0, gain_r=1.0), SweepPlan(1e4, 1e6, 512),
                 id="criterion-3"),
    pytest.param(39.6e6, Topology(feedback_r=1989.0, gain_r=20.1),
                 SweepPlan(1e3, 1e7, 64, spacing="log"), id="log"),
]


class TestSweepMatchesTrace:
    @pytest.mark.parametrize("f0, topo, plan", SWEEP_PLANS)
    def test_every_point_equals_the_trace_lockin(self, f0, topo, plan):
        dev = DeviceParams(f0=f0)
        record = run_sweep(dev, topo, plan)
        np.testing.assert_array_equal(record.frequency_hz, plan.frequencies())
        np.testing.assert_allclose(
            record.gain, trace_sweep(dev, topo, plan), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("f0, topo, plan", SWEEP_PLANS + [
        # the slowest points the default loop plans, ~3e6 steps per period
        pytest.param(97.73e6, Topology(feedback_r=100.0, gain_r=1.0),
                     SweepPlan(30.0, 1e3, 64, spacing="log"), id="30Hz-1kHz-log"),
    ])
    def test_every_point_is_within_1e_15_of_a_40_digit_map(self, f0, topo, plan):
        # the README's accuracy claim for run_sweep
        dev = DeviceParams(f0=f0)
        record = run_sweep(dev, topo, plan)
        np.testing.assert_allclose(
            record.gain, map_orbit_gains(dev, topo, plan), rtol=1e-15, atol=0.0
        )

    @settings(max_examples=25)
    @given(
        f0=st.floats(1e5, 1e9),
        g0=st.one_of(st.just(math.inf), st.floats(1e3, 1e7)),
        feedback_r=st.floats(0.0, 1e4),
        gain_r=st.floats(1.0, 1e3),
        # log10 of the lowest sweep frequency over the loop's corner
        corner_exp=st.floats(-2.0, 1.0),
        span=st.floats(1e-3, 10.0),
        n_points=st.integers(3, 5),
        spacing=st.sampled_from(["linear", "log"]),
        steps_per_period=st.integers(64, 512),
        steps_per_tau=st.integers(0, 32),
    )
    def test_sweep_equals_trace_property(
        self, f0, g0, feedback_r, gain_r, corner_exp, span, n_points, spacing,
        steps_per_period, steps_per_tau,
    ):
        dev = DeviceParams(f0=f0, g0=g0)
        topo = Topology(feedback_r=feedback_r, gain_r=gain_r)
        # tying the plan to the loop's corner keeps each trace under ~2e4
        # steps; over millions of steps the trace's own rounding drifts by
        # ~1e-12 (against a 40-digit evaluation of the same step map, which
        # the closed form matches to ~3e-16)
        corner = f0 * (topo.beta + dev.inv_g0)
        f_min = 10.0**corner_exp * corner
        plan = SweepPlan(f_min, f_min * (1.0 + span), n_points, spacing)
        cfg = SimConfig(steps_per_period=steps_per_period, steps_per_tau=steps_per_tau)
        try:
            expected = trace_sweep(dev, topo, plan, cfg)
        except SimulationError:
            assert_same_sweep_error(dev, topo, plan, cfg)
            return
        record = run_sweep(dev, topo, plan, cfg=cfg)
        np.testing.assert_allclose(record.gain, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("failure", ["drive cap", "amplifier step"])
    def test_error_parity(self, failure):
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 2e4, 3)
        if failure == "drive cap":
            # 23 Hz needs just over MAX_DRIVE_SAMPLES on the default loop
            dev, cfg = DeviceParams(f0=97.73e6), None
            plan = SweepPlan(23.0, 1e5, 3)
        else:
            dev, cfg = DeviceParams(f0=1e8), SimConfig(64, 0)
        assert_same_sweep_error(dev, topo, plan, cfg)

    def test_sweep_cost_does_not_depend_on_steps(self, monkeypatch):
        # the largest plan completes without integrating or allocating a
        # trace for any point, so a sweep's work scales with its points only
        def no_trace(*args, **kwargs):
            raise AssertionError("run_sweep integrated a time-domain trace")

        monkeypatch.setattr(simulate, "simulate_steady_state", no_trace)
        monkeypatch.setattr(simulate, "lfilter", no_trace)
        dev = DeviceParams(f0=97.73e6)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        record = run_sweep(dev, topo, SweepPlan(1e3, 1e6, MAX_SWEEP_POINTS, spacing="log"))
        assert record.n_points == MAX_SWEEP_POINTS
        f = float(record.frequency_hz[-1])
        assert record.gain[-1] == pytest.approx(abs(closed_loop_gain(dev, topo, f)), rel=1e-6)
