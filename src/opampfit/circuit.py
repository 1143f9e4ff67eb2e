"""Closed-loop op-amp circuit model.

Device parameters, feedback topology, and the closed-form frequency response
of a non-inverting amplifier built around a single-pole op-amp.  The op-amp
is characterised by its DC open-loop gain ``g0`` and its crossover frequency
``f0`` (the frequency where the extrapolated open-loop gain magnitude reaches
1), equivalently the time constant ``tau0 = 1/(2*pi*f0)``.

With feedback fraction ``beta = r/(R + r)`` the closed-loop amplification is

    Y(f) = 1 / (beta + 1/g0 + j*2*pi*f*tau0)

so that in the infinite-``g0`` limit

    1/|Y(f)|^2 = beta^2 + (f/f0)^2,

a straight line in the (f^2, 1/|Y|^2) plane whose slope is 1/f0^2.  Everything
in this module is a pure function of immutable value types and is safe to call
from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DeviceParams:
    """Single-pole op-amp model parameters.

    Exactly one of ``f0`` (crossover frequency, Hz) and ``tau0`` (open-loop
    time constant, s) must be given; the other is derived once through
    ``2*pi*f0*tau0 = 1``.  The given member is stored verbatim, so it
    round-trips bit-exactly; the derived member agrees with the identity to
    within one ulp.

    Parameters
    ----------
    f0 : float, optional
        Crossover frequency in Hz (> 0).
    g0 : float
        DC open-loop gain, dimensionless.  Must exceed 1; ``math.inf``
        selects the ideal-device limit (the default analysis mode).
    tau0 : float, optional
        Open-loop time constant in seconds (> 0).
    """

    f0: float | None = None
    g0: float = math.inf
    tau0: float | None = None

    def __post_init__(self):
        if (self.f0 is None) == (self.tau0 is None):
            raise ValueError("specify exactly one of f0 or tau0")
        if self.f0 is None:
            tau0 = float(self.tau0)
            if not (tau0 > 0.0) or math.isinf(tau0):
                raise ValueError(f"tau0 must be positive and finite, got {tau0!r}")
            object.__setattr__(self, "tau0", tau0)
            object.__setattr__(self, "f0", 1.0 / (TWO_PI * tau0))
        else:
            f0 = float(self.f0)
            if not (f0 > 0.0) or math.isinf(f0):
                raise ValueError(f"f0 must be positive and finite, got {f0!r}")
            object.__setattr__(self, "f0", f0)
            object.__setattr__(self, "tau0", 1.0 / (TWO_PI * f0))
        if not (0.0 < self.f0 < math.inf and 0.0 < self.tau0 < math.inf):
            raise ValueError(f"f0 ({self.f0!r} Hz) and tau0 ({self.tau0!r} s) must both be "
                             f"positive and finite")
        g0 = float(self.g0)
        if not g0 > 1.0:
            raise ValueError(f"g0 must exceed 1, got {g0!r}")
        object.__setattr__(self, "g0", g0)

    @property
    def inv_g0(self) -> float:
        """1/g0, exactly 0.0 in the ideal-device limit."""
        return 0.0 if math.isinf(self.g0) else 1.0 / self.g0


@dataclass(frozen=True)
class Topology:
    """Resistive feedback network of a non-inverting amplifier.

    ``feedback_r`` is the feedback resistor from output to the inverting
    input; ``gain_r`` the resistor from the inverting input to ground
    (``math.inf`` marks it open).  Either ``feedback_r = 0`` or an open
    ``gain_r`` makes the circuit a unity-gain repeater, ``beta = 1``.
    """

    feedback_r: float
    gain_r: float

    def __post_init__(self):
        feedback_r = float(self.feedback_r)
        gain_r = float(self.gain_r)
        if not (feedback_r >= 0.0 and math.isfinite(feedback_r)):
            raise ValueError(f"feedback_r must be finite and >= 0, got {feedback_r!r}")
        if not gain_r > 0.0:
            raise ValueError(f"gain_r must be > 0 (math.inf = open), got {gain_r!r}")
        object.__setattr__(self, "feedback_r", feedback_r)
        object.__setattr__(self, "gain_r", gain_r)
        if not self.beta > 0.0:  # the resistor sum overflowed or the ratio underflowed
            raise ValueError(f"feedback ratio of {self!r} is not positive ({self.beta!r})")

    @classmethod
    def repeater(cls) -> "Topology":
        """Canonical unity-gain voltage follower."""
        return cls(feedback_r=0.0, gain_r=math.inf)

    @property
    def is_repeater(self) -> bool:
        return self.feedback_r == 0.0 or math.isinf(self.gain_r)

    @property
    def beta(self) -> float:
        """Feedback fraction gain_r/(feedback_r + gain_r); 1 for a repeater."""
        if self.is_repeater:
            return 1.0
        return self.gain_r / (self.feedback_r + self.gain_r)

    @property
    def ideal_dc_gain(self) -> float:
        """Ideal closed-loop DC gain 1/beta = feedback_r/gain_r + 1."""
        if self.is_repeater:
            return 1.0
        return self.feedback_r / self.gain_r + 1.0


def closed_loop_gain(dev: DeviceParams, topo: Topology, f: float) -> complex:
    """Complex closed-loop amplification at frequency ``f`` (Hz).

    Returns ``1/(beta + 1/g0 + j*2*pi*f*tau0)``; at ``f = 0`` the result is
    purely real, ``1/(beta + 1/g0)``.
    """
    if f < 0.0:
        raise ValueError(f"frequency must be >= 0, got {f!r}")
    return 1.0 / complex(topo.beta + dev.inv_g0, TWO_PI * f * dev.tau0)


def inverse_gain_squared(
    dev: DeviceParams, topo: Topology, f: float, include_finite_gain: bool = False
) -> float:
    """Reciprocal gain power ``1/|Y(f)|^2`` in the straight-line form.

    By default evaluates the infinite-``g0`` limit ``beta^2 + (f/f0)^2``,
    whose intercept is the ideal ``1/(R/r + 1)^2``.  With
    ``include_finite_gain=True`` the 1/g0 term is folded into the intercept,
    giving ``(beta + 1/g0)^2 + (f/f0)^2``, which matches
    ``abs(closed_loop_gain(...))**-2`` identically.
    """
    if f < 0.0:
        raise ValueError(f"frequency must be >= 0, got {f!r}")
    a = topo.beta + (dev.inv_g0 if include_finite_gain else 0.0)
    x = f / dev.f0
    return a * a + x * x


def quick_f0_general(topo: Topology, n: float, f_fraction: float) -> float:
    """Crossover frequency from the point where the gain drops n-fold.

    If ``f_fraction`` is the frequency at which the closed-loop gain has
    fallen to ``1/n`` of its DC value, then in the infinite-``g0`` limit

        f0 = (R/r + 1) * f_fraction / sqrt(n^2 - 1).

    Requires ``n > 1`` and a finite-DC-gain topology (for a repeater use
    :func:`crossover_from_minus3db` instead).
    """
    if not n > 1.0:
        raise ValueError(f"gain ratio n must exceed 1, got {n!r}")
    if topo.is_repeater:
        raise ValueError(
            "quick f0 formula requires a finite DC gain > 1; "
            "for a repeater use crossover_from_minus3db"
        )
    if not f_fraction > 0.0:
        raise ValueError(f"f_fraction must be positive, got {f_fraction!r}")
    return topo.ideal_dc_gain * f_fraction / math.sqrt(n * n - 1.0)


def crossover_from_minus3db(topo: Topology, f_3db: float) -> float:
    """Crossover frequency from the closed-loop -3 dB frequency.

    ``f0 = (R_F + R_G)/R_G * f_3db``; an open gain resistor (repeater) gives
    factor 1, i.e. the two frequencies coincide.
    """
    if not f_3db > 0.0:
        raise ValueError(f"f_3db must be positive, got {f_3db!r}")
    return topo.ideal_dc_gain * f_3db
