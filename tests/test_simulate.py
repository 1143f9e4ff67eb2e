"""Time-domain integrator, lock-in demodulation, and sweep tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from opampfit import (
    CrossoverFrequencyFit,
    DeviceParams,
    FitError,
    SimConfig,
    SimulationError,
    SweepPlan,
    SweepRecord,
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
REPEATER = Topology(feedback_r=0.0, gain_r=math.inf)  # unity-gain voltage follower


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
        gain = simulated_gain(dev, REPEATER, 1e4)
        assert gain == pytest.approx(1.0, rel=1e-3)

    def test_gain_100_amplifier_at_1khz(self):
        # oracle: closed-form magnitude at the stimulus frequency
        dev = DeviceParams(f0=39.6e6)
        topo = Topology(feedback_r=1989.0, gain_r=20.1)
        oracle = abs(closed_loop_gain(dev, topo, 1e3))
        assert simulated_gain(dev, topo, 1e3) == pytest.approx(oracle, rel=1e-3)

    def test_overflow_reports_step_index(self):
        # a subnormal feedback ratio makes the closed-loop gain ~1e309 at
        # 1 mHz: the unit drive's orbit is finite, its scaled trace is not
        dev = DeviceParams(f0=2.8e307)
        topo = Topology(feedback_r=1.7e308, gain_r=0.1)
        with pytest.raises(SimulationError, match=r"^at 0\.001 Hz the steady-state "
                                                  r"response overflows"):
            simulate_steady_state(dev, topo, 1e-3)

    @pytest.mark.parametrize("frequency", [0.0, -1.0, math.nan])
    def test_rejects_a_frequency_that_is_not_positive(self, frequency):
        dev = DeviceParams(f0=1e8)
        with pytest.raises(ValueError, match="frequency must be positive"):
            simulate_steady_state(dev, REPEATER, frequency)

    def test_slow_loop_near_corner_matches_closed_form(self):
        # at f >> f_corner the loop decays by only exp(-1.6) per period, so
        # the trace is right only if it starts on the periodic orbit
        dev = DeviceParams(f0=1e7)
        oracle = abs(closed_loop_gain(dev, REPEATER, 4e7))
        assert simulated_gain(dev, REPEATER, 4e7) == pytest.approx(oracle, rel=1e-3)


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
        coarse = simulated_gain(dev, REPEATER, 5e6, SimConfig(steps_per_period=256))
        fine = simulated_gain(dev, REPEATER, 5e6, SimConfig(steps_per_period=512))
        assert abs(fine - coarse) / fine < 1e-4

    @pytest.mark.parametrize("f_over_f0", [0.01, 1.0, 10.0])
    def test_repeater_never_amplifies(self, f_over_f0):
        dev = DeviceParams(f0=1e7)
        gain = simulated_gain(dev, REPEATER, f_over_f0 * dev.f0)
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
            (1e7, REPEATER, 4e7),
            # the loop decays by only exp(-0.06) per period here
            (1e6, REPEATER, 1e8),
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
        with pytest.raises(SimulationError, match=r"^at 10000 Hz the RK4 step is unstable "
                                                  r"\(growth factor [0-9.]+ >= 1 per step"):
            simulate_steady_state(dev, topo, 1e4, cfg)



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
        assert record.topology == Topology(feedback_r=100.0, gain_r=1.0)

    def test_noise_stays_within_five_sigma(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 32)
        clean = run_sweep(dev, topo, plan)
        noisy = add_gain_noise(clean, 0.03, 11)
        rel = np.abs(noisy.gain / clean.gain - 1.0)
        assert np.all(rel <= 0.15)
        assert rel.max() > 0.0

    def test_seeded_runs_identical(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 16)
        a = add_gain_noise(run_sweep(dev, topo, plan), 0.01, 42)
        b = add_gain_noise(run_sweep(dev, topo, plan), 0.01, 42)
        assert np.array_equal(a.gain, b.gain) and np.array_equal(a.frequency_hz, b.frequency_hz)

    def test_different_seeds_differ(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 16)
        a = add_gain_noise(run_sweep(dev, topo, plan), 0.01, 1)
        b = add_gain_noise(run_sweep(dev, topo, plan), 0.01, 2)
        assert not np.array_equal(a.gain, b.gain)

    @pytest.mark.parametrize("args,kwargs", [((0.01,), {}), ((), {"seed": 7})])
    def test_draws_no_noise(self, args, kwargs):
        # noise has one entry point, add_gain_noise; a positional sigma_rel
        # is not taken for a SimConfig, and a seed is not silently ignored
        plan = SweepPlan(1e4, 1e5, 16)
        with pytest.raises(TypeError):
            run_sweep(DeviceParams(f0=9.773e7), Topology(100.0, 1.0), plan, *args, **kwargs)

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
        with pytest.raises(SimulationError, match="^at 10000 Hz "):
            run_sweep(dev, topo, SweepPlan(1e4, 2e4, 3), cfg=cfg)


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
        noise = 3e-3
        clean = run_sweep(self.DEV, self.TOPO, plan)
        reused = add_gain_noise(clean, noise, seed)
        direct = add_gain_noise(run_sweep(self.DEV, self.TOPO, plan), noise, seed)
        assert np.array_equal(reused.gain, direct.gain)
        assert np.array_equal(reused.frequency_hz, direct.frequency_hz)
        assert np.array_equal(direct.gain, noise_oracle(clean, 3e-3, words))
        assert reused.topology == direct.topology == self.TOPO

    def test_noiseless_model_returns_record(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8))
        assert add_gain_noise(clean, 0.0, (1, 2)) is clean
        direct = add_gain_noise(run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8)),
                                0.0, 3)
        assert np.array_equal(direct.gain, clean.gain)

    @pytest.mark.parametrize("sigma_rel", [-1e-3, math.inf, math.nan])
    def test_spread_must_be_finite_and_non_negative(self, sigma_rel):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8))
        with pytest.raises(ValueError, match=r"^sigma_rel must be finite and >= 0, got "):
            add_gain_noise(clean, sigma_rel, 1)

    def test_input_record_is_not_modified(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 8))
        before = clean.gain.copy()
        add_gain_noise(clean, 0.03, 1)
        assert np.array_equal(clean.gain, before)

    def test_non_positive_gain_is_refused(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 16))
        noisy = noise_oracle(clean, 10.0, (0,))
        first = int(np.flatnonzero(noisy <= 0.0)[0])
        with pytest.raises(SimulationError, match=f"at {clean.frequency_hz[first]:.6g} Hz "
                                                  "non-positive"):
            add_gain_noise(clean, 10.0, 0)

    @settings(max_examples=15, deadline=None)
    @given(
        n_points=st.integers(min_value=3, max_value=8),
        order=st.permutations(range(5)),
    )
    def test_trial_records_do_not_depend_on_order(self, n_points, order):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, n_points))
        noise = 1e-3
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
        noise = 1e-2
        long_record = add_gain_noise(clean, noise, tuple(words))
        short_record = add_gain_noise(head, noise, tuple(words))
        assert np.array_equal(long_record.gain[:m_points], short_record.gain)

    # float.hex of the gains that seeded noise at sigma_rel 0.03 puts on
    # NOISE_PIN_RECORD; a numpy release that changed default_rng's seeding or
    # its normal sampler would change every noisy file, and fails here instead
    NOISE_PIN_RECORD = SweepRecord(frequency_hz=np.array([1e4, 2e4, 3e4, 4e4]),
                                   gain=np.array([100.0, 90.0, 50.0, 20.0]))
    NOISE_PINS = {
        7: ["0x1.9003c76e95460p+6", "0x1.6b39f8bed8fcfp+6", "0x1.8cb5d937d77c0p+5",
            "0x1.3773481031262p+4"],
        (5, 0): ["0x1.8660777722d24p+6", "0x1.59b2698924a0cp+6", "0x1.8d0508790a3b9p+5",
                 "0x1.44094945859a7p+4"],
        (5, 399): ["0x1.90d3e65bf97d4p+6", "0x1.601f956357f52p+6", "0x1.b848eb665de99p+5",
                   "0x1.3c72575321d3bp+4"],
        (2**64 - 1, 0, 12345, 2**32, 9): ["0x1.8b8eaa793b050p+6", "0x1.65f0af3696006p+6",
                                          "0x1.9dcefa32560f0p+5", "0x1.40615e649fdadp+4"],
    }

    @pytest.mark.parametrize("seed", list(NOISE_PINS), ids=repr)
    def test_noise_stream_is_pinned(self, seed):
        gains = add_gain_noise(self.NOISE_PIN_RECORD, 0.03, seed).gain
        assert [g.hex() for g in gains.tolist()] == self.NOISE_PINS[seed]

    def test_gain_matrix_stream_is_pinned(self):
        seeds = [(5, 0), (5, 399)]
        gains, refusal = _noisy_gains(self.NOISE_PIN_RECORD, 0.03, seeds)
        assert refusal is None
        assert [[g.hex() for g in row] for row in gains.tolist()] == [
            self.NOISE_PINS[seed] for seed in seeds]

    def test_gain_matrix_rows_are_records(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 16))
        seeds = [(4, trial) for trial in range(6)]
        gains, refusal = _noisy_gains(clean, 0.05, seeds)
        assert refusal is None and gains.shape == (6, 16)
        for row, words in zip(gains, seeds):
            assert np.array_equal(row, add_gain_noise(clean, 0.05, words).gain)

    def test_gain_matrix_refuses_its_first_bad_gain_in_row_major_order(self):
        clean = run_sweep(self.DEV, self.TOPO, SweepPlan(1e4, 1e5, 16))
        seeds = [(10, trial) for trial in range(4)]
        bad = [np.flatnonzero(noise_oracle(clean, 0.5, words) <= 0.0) for words in seeds]
        # rows 0 and 1 draw no bad gain and row 2 does, at a later point than row 3
        assert [b.size > 0 for b in bad] == [False, False, True, True]
        assert bad[2][0] > bad[3][0]
        _, (row, err) = _noisy_gains(clean, 0.5, seeds)
        assert row == 2 and f"at {clean.frequency_hz[bad[2][0]]:.6g} Hz non-positive" in str(err)
        with pytest.raises(SimulationError) as direct:
            add_gain_noise(clean, 0.5, seeds[2])
        assert str(err) == str(direct.value)


def trace_sweep(dev, topo, plan, cfg=None):
    """Sweep gains read off the time-domain trace API, point by point."""
    gains = []
    for f in plan.frequencies():
        out = simulate_steady_state(dev, topo, float(f), cfg)
        gains.append(lockin_demodulate(out, float(f)))
    return np.array(gains)


def assert_same_sweep_error(dev, topo, plan, cfg=None, match=None):
    """run_sweep refuses ``plan`` with the error of its first failing point,
    whose text matches ``match`` when given."""
    with pytest.raises(SimulationError, match=match) as expected:
        trace_sweep(dev, topo, plan, cfg)
    with pytest.raises(SimulationError) as got:
        run_sweep(dev, topo, plan, cfg=cfg)
    assert str(got.value) == str(expected.value)


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
    @pytest.mark.parametrize("f0, topo, plan", SWEEP_PLANS + [
        # 1/tau0 ~ 6e307: a drive scaled before integrating would overflow
        pytest.param(1e307, Topology(feedback_r=100.0, gain_r=1.0),
                     SweepPlan(1e305, 3e305, 3), id="f0=1e307"),
    ])
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
        # steps of ~1.3e-308 s, in the subnormal range, where h/6 loses digits
        pytest.param(1e307, Topology(feedback_r=100.0, gain_r=1.0),
                     SweepPlan(1e305, 3e305, 3), id="f0=1e307"),
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

    @pytest.mark.parametrize("failure", ["drive cap", "amplifier step", "too fine",
                                         "overflow"])
    def test_error_parity(self, failure):
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 2e4, 3)
        if failure == "drive cap":
            # 23 Hz needs just over MAX_DRIVE_SAMPLES on the default loop
            dev, cfg = DeviceParams(f0=97.73e6), None
            plan = SweepPlan(23.0, 1e5, 3)
            match = r"^at 23 Hz one stimulus period needs \d+ RK4 steps"
        elif failure == "amplifier step":
            dev, cfg = DeviceParams(f0=1e8), SimConfig(64, 0)
            match = r"^at 10000 Hz the RK4 step is unstable \(growth factor"
        elif failure == "too fine":
            # a 4e-16 s step on a ~16 s loop time constant, not too coarse a
            # one: 1 + (A - 1) rounds to 1
            dev, cfg, plan = DeviceParams(f0=1.0), None, SweepPlan(1e13, 2e13, 3)
            match = (r"^at 1e\+13 Hz the RK4 step \(3\.906e-16 s\) is too fine for the loop: "
                     r"its growth factor rounds to 1$")
        else:
            dev, cfg, plan = DeviceParams(f0=2.8e307), None, SweepPlan(1e-3, 2e-3, 3)
            topo = Topology(feedback_r=1.7e308, gain_r=0.1)
            match = r"^at 0\.001 Hz the steady-state response overflows"
        assert_same_sweep_error(dev, topo, plan, cfg, match)

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


class TestAccuracyContract:
    """A noiseless sweep read out by the regression recovers f0 to within
    ``z**4/60`` plus rounding, where ``z`` is the largest ``max(|a|*h, w*h)``
    over the plan: ``a`` the loop rate, ``h`` the planned step and ``w``
    the angular frequency.  RK4's stability function misses ``exp(z)`` by
    ``z**5/120`` a step, about ``z**4/120`` relative per unit time.

    The bound holds on plans that resolve the roll-off: across the plan the
    line ``1/Y^2 = (beta + 1/g0)^2 + (f/f0)^2`` rises by at least a tenth of
    its top value, ``kappa = v(f_max) / (v(f_max) - v(f_min)) <= 10``.  On a
    flatter plan the regression scales the step error's spread over the plan
    by up to ``kappa``.  The rounding term, ``8 * eps * kappa * n_points``,
    covers gains within 1e-15 and the regression's own sums."""

    @settings(max_examples=max(200, settings().max_examples), deadline=None)
    @given(
        f0=st.floats(1e4, 1e10),
        g0=st.one_of(st.just(math.inf), st.floats(1.5, 1e7)),
        feedback_r=st.floats(0.1, 1e4),
        gain_r=st.floats(0.1, 1e4),
        # f_max over the loop's corner, as a power of ten, and f_min over f_max
        top_exp=st.floats(-0.5, 2.0),
        bottom=st.floats(1e-3, 0.9),
        n_points=st.integers(3, 64),
        spacing=st.sampled_from(["linear", "log"]),
        steps_per_period=st.integers(64, 1024),
        steps_per_tau=st.integers(0, 64),
    )
    def test_noiseless_fit_recovers_f0_within_the_rk4_bound(
        self, f0, g0, feedback_r, gain_r, top_exp, bottom, n_points, spacing,
        steps_per_period, steps_per_tau,
    ):
        dev = DeviceParams(f0=f0, g0=g0)
        topo = Topology(feedback_r=feedback_r, gain_r=gain_r)
        intercept = topo.beta + dev.inv_g0
        f_max = f0 * intercept * 10.0**top_exp
        plan = SweepPlan(bottom * f_max, f_max, n_points, spacing)
        cfg = SimConfig(steps_per_period=steps_per_period, steps_per_tau=steps_per_tau)
        line_top = intercept**2 + (f_max / f0) ** 2
        kappa = line_top / ((f_max / f0) ** 2 - (plan.f_min / f0) ** 2)
        assume(kappa <= 10.0)
        try:
            record = run_sweep(dev, topo, plan, cfg=cfg)
            est = CrossoverFrequencyFit().fit(record.frequency_hz, record.gain)
        except (SimulationError, FitError):
            assume(False)
        freqs = plan.frequencies()
        h = 1.0 / (freqs * simulate._plan_window(dev, topo, freqs, cfg))
        z = float(np.max(np.maximum(simulate._loop_rate(dev, topo) * h, TWO_PI * freqs * h)))
        rounding = 8.0 * np.finfo(float).eps * kappa * n_points
        assert abs(est.f0_hz_ / f0 - 1.0) <= z**4 / 60.0 + rounding
