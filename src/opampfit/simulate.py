"""Time-domain simulation of the driven closed-loop amplifier.

The output voltage of the feedback loop obeys the first-order equation

    tau0 * dU0/dt = U_in(t) - (beta + 1/g0) * U0(t)

which is integrated with classical fixed-step 4th-order Runge-Kutta.  For
this linear equation one RK4 step is exactly the affine map
``u[k+1] = A*u[k] + (h/6)*(c1*g_k + c2*g_{k+1/2} + c3*g_{k+1})`` with a
constant homogeneous factor ``A`` and three stimulus samples per step.
Every planned step must be stable, ``A < 1``, and not so fine that ``A``
rounds to 1; both are checked before anything is computed.

The time-domain trace API (:func:`simulate_steady_state`,
:func:`lockin_demodulate`) evaluates that recurrence with
:func:`scipy.signal.lfilter`, which reproduces the naive step-by-step
trajectory at C speed.  This module's :func:`lfilter` imports it on first
call, so only the trace API loads scipy and importing the package or the
command line does not.  The stimulus is periodic with a whole number ``N``
of steps per period, so the steady state is the periodic orbit of the map
and is found exactly rather than by settling (the linear case of the
shooting method, Aprille & Trick 1972): one period is integrated from rest
to give ``u_N``, the orbit starts on the fixed point
``u0 = u_N / (1 - A**N)``, and ``u0 * A**k`` is added to the from-rest
trajectory.  A virtual lock-in (sine/cosine projection over the whole
period) reads an amplitude off such a trace.

:func:`run_sweep` needs only that amplitude, which the map gives in closed
form: driven by a sampled sinusoid ``g = Im(G*exp(j*w*t))``, its periodic
orbit is exactly ``u_k = Im(U*exp(j*w*k*h))`` with

    U = G * (h/6)*(c1 + c2*exp(j*w*h/2) + c3*exp(j*w*h)) / (exp(j*w*h) - A)

and the whole-period lock-in of that orbit returns ``|U|`` to rounding.  A
sweep therefore costs a few array operations per point, whatever its step
count; it is planned and checked exactly like the trace, drive-sample cap
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import TWO_PI, DeviceParams, Topology
from .extraction import SweepRecord


# Largest drive array (half-grid samples, ``2*N + 1`` for ``N`` steps per
# period) that one sweep point may allocate; larger plans are refused before
# anything is allocated.
MAX_DRIVE_SAMPLES = 2**23

# Most points one sweep plan may hold; a plan is refused before its
# frequency grid is built, since the per-point cap does not bound a sweep.
MAX_SWEEP_POINTS = 2**16


class SimulationError(RuntimeError):
    """The planned integration is too large, unstable or too fine for the
    loop, its response overflowed, or gain noise made a recorded gain
    non-positive or non-finite.  The message names the frequency."""


@dataclass(frozen=True)
class SimConfig:
    """Integration step settings.

    ``steps_per_period`` is the minimum number of RK4 steps per stimulus
    period (>= 64).  ``steps_per_tau`` additionally refines the step so the
    closed-loop time constant is resolved by at least that many steps
    (0 disables the refinement; the step may then be unstable, which is
    reported as :class:`SimulationError`).  Every point integrates exactly
    one stimulus period on its periodic steady state, so there is no
    settling or measurement window to configure.
    """

    steps_per_period: int = 256
    steps_per_tau: int = 16

    def __post_init__(self):
        if self.steps_per_period < 64:
            raise ValueError(f"steps_per_period must be >= 64, got {self.steps_per_period!r}")
        if self.steps_per_tau < 0:
            raise ValueError(f"steps_per_tau must be >= 0, got {self.steps_per_tau!r}")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled voltage trace."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class SweepPlan:
    """Frequency grid of a gain sweep: 512 points over 10-100 kHz by
    default, linearly spaced (``spacing="log"`` for log spacing), at most
    ``MAX_SWEEP_POINTS`` points."""

    f_min: float = 1.0e4
    f_max: float = 1.0e5
    n_points: int = 512
    spacing: str = "linear"

    def __post_init__(self):
        if not (0.0 < self.f_min < self.f_max and math.isfinite(self.f_max)):
            raise ValueError(
                f"need finite 0 < f_min < f_max, got f_min={self.f_min!r} f_max={self.f_max!r}"
            )
        if not 3 <= self.n_points <= MAX_SWEEP_POINTS:
            raise ValueError(
                f"n_points must be between 3 and {MAX_SWEEP_POINTS}, got {self.n_points!r}"
            )
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")

    def frequencies(self) -> np.ndarray:
        # near the top of the float range numpy overflows in a grid point it
        # then replaces with f_max exactly
        with np.errstate(over="ignore"):
            if self.spacing == "log":
                return np.geomspace(self.f_min, self.f_max, self.n_points)
            return np.linspace(self.f_min, self.f_max, self.n_points)


def _rk4_affine(a: float, h):
    """Homogeneous factor less one, ``A - 1``, and forcing weights of one RK4
    step applied to ``u' = a*u + g(t)``:
    u[k+1] = A*u[k] + h/6*(c1*g_k + c2*g_{k+1/2} + c3*g_{k+1}),
    elementwise for an array of steps ``h``.  ``A - 1`` is kept apart from
    the 1 so a small step keeps its digits."""
    z = a * h
    a_m1 = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    c1 = 1.0 + z * (1.0 + z * (0.5 + z / 4.0))
    c2 = 4.0 + z * (2.0 + z * 0.5)
    c3 = 1.0
    return a_m1, c1, c2, c3


def _stable_affine(a: float, h, frequency):
    """:func:`_rk4_affine` for steps ``h`` taken at each ``frequency`` (a
    scalar or an ascending array), refused with :class:`SimulationError` at
    the first frequency whose growth factor ``A`` is not below 1."""
    step = _rk4_affine(a, h)
    # A is the quartic Taylor polynomial of exp(a*h), which is always
    # positive, so A < 1 is the whole stability condition.  The step grows
    # as the frequency falls, so the unstable points lead an ascending plan.
    big_a = 1.0 + np.ravel(step[0])
    unstable = np.flatnonzero(~(big_a < 1.0))
    if unstable.size:
        k = unstable[0]
        f, h_k = np.ravel(frequency)[k], np.ravel(h)[k]
        # A rounds to 1 only on a step far finer than the loop's time constant
        if big_a[k] == 1.0:
            raise SimulationError(f"at {f:.6g} Hz the RK4 step ({h_k:.3e} s) is too fine "
                                  "for the loop: its growth factor rounds to 1")
        raise SimulationError(
            f"at {f:.6g} Hz the RK4 step is unstable (growth factor {big_a[k]:.6g} >= 1 "
            f"per step; step size {h_k:.3e} s does not resolve the loop time constant)")
    return step


def _refuse_overflow(response: np.ndarray, frequency) -> None:
    """SimulationError at the first non-finite ``response``, taken at ``frequency``."""
    bad = np.flatnonzero(~np.isfinite(response))
    if bad.size:
        f = np.broadcast_to(frequency, response.shape)[bad[0]]
        raise SimulationError(f"at {f:.6g} Hz the steady-state response overflows the "
                              "floating-point range")


def lfilter(b, a, x):
    """:func:`scipy.signal.lfilter`, imported on first call: importing
    scipy.signal takes longer than any command's own work, and only the
    trace API needs it."""
    from scipy.signal import lfilter as scipy_lfilter

    return scipy_lfilter(b, a, x)


def _integrate_linear(step, forcing_half_grid: np.ndarray, h: float) -> np.ndarray:
    """Periodic RK4 trajectory of ``u' = a*u + g(t)`` for a periodic ``g``.

    ``step`` is the stable map of :func:`_stable_affine`;
    ``forcing_half_grid`` holds g at times 0, h/2, h, ... over exactly one
    period of N steps (2*N + 1 samples, endpoint included); returns the
    N + 1 states on the whole-step grid of the periodic orbit, so the last
    state equals the first.  The recurrence runs once from rest and is then
    shifted onto the orbit by adding ``u0 * A**k``.
    """
    a_m1, c1, c2, c3 = step
    big_a = 1.0 + a_m1
    b = (h / 6.0) * (
        c1 * forcing_half_grid[0:-1:2]
        + c2 * forcing_half_grid[1::2]
        + c3 * forcing_half_grid[2::2]
    )
    n_steps = b.size
    u = np.empty(n_steps + 1)
    u[0] = 0.0
    u[1:] = lfilter([1.0], [1.0, -big_a], b)
    log_a = math.log(big_a)
    u0 = u[-1] / -math.expm1(n_steps * log_a)
    decay = np.arange(n_steps + 1) * log_a
    u += u0 * np.exp(decay, out=decay)
    return u


def _orbit_response(a: float, h: np.ndarray, frequency: np.ndarray) -> np.ndarray:
    """Complex ratio ``U/G`` of the periodic RK4 orbit of ``u' = a*u + g``,
    ``u_k = Im(U*exp(j*w*k*h))``, to a sinusoidal drive
    ``g = Im(G*exp(j*w*t))`` sampled on the half-step grid, at each
    ``frequency`` with its step ``h``."""
    a_m1, c1, c2, c3 = _stable_affine(a, h, frequency)
    half_phase = np.pi * frequency * h
    half = np.exp(1j * half_phase)
    # exp(j*w*h) - A, written as (exp(j*w*h) - 1) - (A - 1) so that neither
    # a fine step nor a slow loop cancels its leading digits
    pole = 2j * np.sin(half_phase) * half - a_m1
    # a step below 2**-1000 is scaled by 2**54 while the ratio is formed: h/6
    # would lose digits in the subnormal range, and the scaling is exact
    scale = np.where(h < 2.0**-1000, 2.0**54, 1.0)
    return (h * scale / 6.0) * (c1 + c2 * half + c3 * half * half) / pole / scale


def _loop_rate(dev: DeviceParams, topo: Topology) -> float:
    """Closed-loop decay rate (beta + 1/g0)/tau0; its reciprocal is the
    closed-loop time constant."""
    return (topo.beta + dev.inv_g0) / dev.tau0


def _plan_window(
    dev: DeviceParams,
    topo: Topology,
    frequency,
    cfg: SimConfig,
) -> np.ndarray:
    """RK4 steps per stimulus period at each ``frequency`` (a scalar or an
    ascending array; the result is always 1-D), refused with
    :class:`SimulationError` at the first frequency whose drive would exceed
    ``MAX_DRIVE_SAMPLES``.  The step count never grows with the frequency,
    so refused points lead the plan."""
    frequency = np.atleast_1d(np.asarray(frequency, dtype=float))
    # a subnormal frequency's infinite period is refused below, and so is
    # its NaN step count when the loop's time constant overflows as well
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        period = 1.0 / frequency
        n = np.full_like(period, cfg.steps_per_period)
        if cfg.steps_per_tau > 0:
            tau_cap = 1.0 / np.float64(_loop_rate(dev, topo))
            n = np.maximum(n, np.ceil(cfg.steps_per_tau * period / tau_cap))
    # compared as float steps, so a plan too large for an integer is refused too
    over = np.flatnonzero(~(n <= (MAX_DRIVE_SAMPLES - 1) / 2))
    if over.size:
        k = over[0]
        steps = float(n[k])  # may be too large for an integer, or infinite
        raise SimulationError(
            f"at {frequency[k]:.6g} Hz one stimulus period needs {steps:.16g} RK4 steps, a "
            f"{2 * steps + 1:.16g}-sample drive; the per-point limit is "
            f"{MAX_DRIVE_SAMPLES} samples (raise the lowest sweep frequency)")
    return n.astype(np.int64)


def _sine_period(frequency: float, dt: float, n_samples: int) -> np.ndarray:
    """``sin(2*pi*f*t)`` at ``t = 0, dt, ...``, built in place."""
    wave = np.arange(n_samples) * dt
    wave *= TWO_PI * frequency
    np.sin(wave, out=wave)
    return wave


def simulate_steady_state(
    dev: DeviceParams,
    topo: Topology,
    frequency: float,
    cfg: SimConfig | None = None,
) -> TimeSeries:
    """Drive the closed loop with a unit sinusoid of ``frequency`` Hz and
    record one period of its periodic steady state; the loop is linear, so
    another amplitude only scales the trace.

    The output is the exact periodic orbit of the RK4 map (see the module
    docstring): ``N + 1`` samples spanning one stimulus period with the
    endpoint included, so the last sample repeats the first.
    """
    if not frequency > 0.0:
        raise ValueError(f"frequency must be positive, got {frequency!r}")
    cfg = cfg or SimConfig()
    n = int(_plan_window(dev, topo, frequency, cfg)[0])
    h = 1.0 / (frequency * n)
    step = _stable_affine(-_loop_rate(dev, topo), h, frequency)
    u = _integrate_linear(step, _sine_period(frequency, h / 2.0, 2 * n + 1), h)
    # the unit drive's orbit times the rounded 1/tau0, as run_sweep scales its
    # gains: a drive scaled first can overflow where the response does not
    with np.errstate(over="ignore"):  # refused below
        u *= 1.0 / dev.tau0
    _refuse_overflow(u, frequency)
    return TimeSeries(dt=h, samples=u)


def lockin_demodulate(ts: TimeSeries, reference_f: float) -> float:
    """Amplitude of ``ts`` at the reference frequency.

    Computes the quadrature projections I = (2/T) * integral(x*cos(2*pi*f*t))
    and Q = (2/T) * integral(x*sin(2*pi*f*t)) by trapezoidal sum and returns
    ``sqrt(I^2 + Q^2)``.  The trace must span a whole number of reference
    periods to within one sample.
    """
    if not reference_f > 0.0:
        raise ValueError(f"reference_f must be positive, got {reference_f!r}")
    span = (ts.samples.size - 1) * ts.dt
    if span <= 0.0:
        raise ValueError("time series must span at least one sample interval")
    cycles = span * reference_f
    if abs(cycles - round(cycles)) > reference_f * ts.dt * (1.0 + 1e-9) or round(cycles) < 1:
        raise ValueError(
            f"time series spans {cycles:.6g} reference periods; demodulation "
            "requires a whole number of periods (within one sample)"
        )
    phase = TWO_PI * reference_f * (np.arange(ts.samples.size) * ts.dt)
    scale = 2.0 / span
    i_part = scale * np.trapezoid(ts.samples * np.cos(phase), dx=ts.dt)
    q_part = scale * np.trapezoid(ts.samples * np.sin(phase), dx=ts.dt)
    return math.hypot(i_part, q_part)


def _noisy_gains(
    record: SweepRecord,
    sigma_rel: float,
    seeds: list[tuple[int, ...]],
) -> tuple[np.ndarray, tuple[int, SimulationError] | None]:
    """The gains of ``record`` under one noise record per seed: row ``t``
    scales point ``k`` by ``1 + sigma_rel * z[k]``, with ``z`` the first
    ``n_points`` draws of ``default_rng([*seeds[t]]).standard_normal``.

    Returns the ``(len(seeds), n_points)`` gain matrix and the refusal of
    the first gain, in row-major order, that the noise left non-positive or
    overflowed: ``(row, SimulationError)``, or None.  Rows after that one
    are not checked.
    """
    draws = np.empty((len(seeds), record.n_points))
    for row, words in zip(draws, seeds):
        np.random.default_rng(words).standard_normal(out=row)
    with np.errstate(over="ignore"):  # an overflowed gain is refused below
        draws *= sigma_rel
        draws += 1.0
        gains = np.multiply(record.gain, draws, out=draws)
    bad = np.flatnonzero(~((gains > 0.0) & (gains < math.inf)))
    if not bad.size:
        return gains, None
    row, k = divmod(int(bad[0]), record.n_points)
    gain = gains[row, k]
    what = "non-positive" if gain <= 0.0 else "non-finite"
    return gains, (row, SimulationError(
        f"gain noise (sigma_rel {sigma_rel!r}) made the gain at "
        f"{record.frequency_hz[k]:.6g} Hz {what} ({gain:.6g})"))


def _checked_sigma_rel(sigma_rel: float) -> float:
    """``sigma_rel``, or ValueError if it is not a finite non-negative spread."""
    if not (sigma_rel >= 0.0 and math.isfinite(sigma_rel)):
        raise ValueError(f"sigma_rel must be finite and >= 0, got {sigma_rel!r}")
    return sigma_rel


def add_gain_noise(
    record: SweepRecord,
    sigma_rel: float,
    seed: int | tuple[int, ...] = 0,
) -> SweepRecord:
    """Scale each gain of ``record`` by ``1 + eps`` with
    ``eps ~ Normal(0, sigma_rel)``: Gaussian is the maximum-entropy choice
    given only a spread, and ``sigma_rel = 0.03`` emulates
    oscilloscope-grade 3 percent amplitude fluctuations.

    The whole record draws from one generator seeded with ``seed`` (the
    words of a tuple seed): point ``k`` takes the ``k``-th value of
    ``default_rng([*seed]).standard_normal(n_points)``.  The result is
    reproducible bit-for-bit, does not depend on the order in which records
    are drawn, and is prefix-stable: the first ``m`` points of an
    ``n``-point record draw what an ``m``-point record draws.  A zero
    ``sigma_rel`` returns ``record`` itself, and a negative or non-finite
    one raises ValueError.  A draw that leaves a gain non-positive or
    overflows it (possible only for a large ``sigma_rel``) raises
    :class:`SimulationError` naming its frequency.
    """
    if _checked_sigma_rel(sigma_rel) == 0.0:
        return record
    seed_words = (seed,) if isinstance(seed, int) else tuple(seed)
    gains, refusal = _noisy_gains(record, sigma_rel, [seed_words])
    if refusal is not None:
        raise refusal[1]
    return replace(record, gain=gains[0])


def run_sweep(
    dev: DeviceParams,
    topo: Topology,
    plan: SweepPlan | None = None,
    *,
    cfg: SimConfig | None = None,
) -> SweepRecord:
    """Simulate a frequency sweep and record its noiseless end-to-end gain
    at each point; :func:`add_gain_noise` draws noise on the result.

    The recorded gain at every planned frequency is the amplitude of the
    periodic RK4 orbit over the stimulus amplitude, computed in closed form
    from the step map (see the module docstring): it equals
    ``lockin_demodulate(simulate_steady_state(...), f)`` for a unit stimulus
    to rounding, with the same step planning and the same
    :class:`SimulationError` for the first refused point, but integrates no
    trace.
    """
    plan = plan or SweepPlan()
    cfg = cfg or SimConfig()

    freqs = plan.frequencies()
    with np.errstate(over="ignore"):  # f*n overflows only for a step refused as unstable
        h = 1.0 / (freqs * _plan_window(dev, topo, freqs, cfg))
    # times the rounded 1/tau0, as the trace is: dividing by tau0 instead
    # moves the last bit of every gain
    with np.errstate(over="ignore"):  # refused below
        gains = np.abs(_orbit_response(-_loop_rate(dev, topo), h, freqs)) * (1.0 / dev.tau0)
    _refuse_overflow(gains, freqs)
    return SweepRecord(frequency_hz=freqs, gain=gains, topology=topo)
