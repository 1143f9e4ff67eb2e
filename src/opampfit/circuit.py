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
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DeviceParams:
    """Single-pole op-amp model parameters: the crossover frequency ``f0``
    (Hz, positive and finite) and the DC open-loop gain ``g0`` (above 1;
    ``math.inf``, the default, is the ideal-device limit).  ``f0`` is stored
    verbatim, so it round-trips bit-exactly; ``tau0 = 1/(2*pi*f0)`` is
    derived once and agrees with the identity to within one ulp."""

    f0: float
    g0: float = math.inf
    tau0: float = field(init=False)

    def __post_init__(self):
        f0 = float(self.f0)
        if not (f0 > 0.0) or math.isinf(f0):
            raise ValueError(f"f0 must be positive and finite, got {f0!r}")
        tau0 = 1.0 / (TWO_PI * f0)
        if not 0.0 < tau0 < math.inf:
            raise ValueError(f"f0 ({f0!r} Hz) and tau0 ({tau0!r} s) must both be "
                             f"positive and finite")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "tau0", tau0)
        g0 = float(self.g0)
        if not g0 > 1.0:
            raise ValueError(f"g0 must exceed 1, got {g0!r}")
        object.__setattr__(self, "g0", g0)

    @property
    def inv_g0(self) -> float:
        """1/g0, exactly 0.0 in the ideal-device limit."""
        return 1.0 / self.g0


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

    @property
    def beta(self) -> float:
        """Feedback fraction gain_r/(feedback_r + gain_r); 1 for a repeater."""
        if math.isinf(self.gain_r):  # the ratio would be inf/inf
            return 1.0
        return self.gain_r / (self.feedback_r + self.gain_r)

    @property
    def ideal_dc_gain(self) -> float:
        """Ideal closed-loop DC gain 1/beta = feedback_r/gain_r + 1; 1 for a repeater."""
        return self.feedback_r / self.gain_r + 1.0


def closed_loop_gain(dev: DeviceParams, topo: Topology, f: float) -> complex:
    """Complex closed-loop amplification at frequency ``f`` (Hz).

    Returns ``1/(beta + 1/g0 + j*2*pi*f*tau0)``; at ``f = 0`` the result is
    purely real, ``1/(beta + 1/g0)``.
    """
    if f < 0.0:
        raise ValueError(f"frequency must be >= 0, got {f!r}")
    return 1.0 / complex(topo.beta + dev.inv_g0, TWO_PI * f * dev.tau0)


def quick_f0_general(dc_gain: float, n: float, f_fraction: float) -> float:
    """Crossover frequency from the point where the gain drops n-fold.

    If the closed-loop gain falls to ``1/n`` of its DC value ``dc_gain`` at
    ``f_fraction``, then in the infinite-``g0`` limit, for every feedback
    fraction ``beta`` in (0, 1],

        f0 = dc_gain * f_fraction / sqrt(n^2 - 1);

    ``n = sqrt(2)`` gives the -3 dB relation.  ``dc_gain`` is a topology's
    ``ideal_dc_gain`` (1 for a repeater) or a measured low-frequency gain.
    Requires ``n > 1`` and ``f_fraction > 0``.
    """
    if not n > 1.0:
        raise ValueError(f"gain ratio n must exceed 1, got {n!r}")
    if not f_fraction > 0.0:
        raise ValueError(f"f_fraction must be positive, got {f_fraction!r}")
    return dc_gain * f_fraction / math.sqrt(n * n - 1.0)
