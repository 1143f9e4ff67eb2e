"""Crossover-frequency extraction from measured gain sweeps.

The single-pole model makes ``1/gain^2`` linear in ``f^2`` with slope
``1/f0^2``, so the crossover frequency comes out of an ordinary
least-squares line fit.  A quick alternative skips the regression and reads
f0 from the frequency at which the gain has dropped n-fold from its
low-frequency value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import Topology, quick_f0_general


class FitError(RuntimeError):
    """The sweep cannot be turned into a crossover frequency."""


class CalibrationWarning(UserWarning):
    """Fitted intercept is far from the value the topology predicts."""


def as_float_array(values, name: str, min_len: int = 1) -> np.ndarray:
    """Coerce to a 1-D float64 array of finite values."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise ValueError(f"{name} needs at least {min_len} values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")
    return arr


def _sweep_arrays(frequency_hz, gain) -> tuple[np.ndarray, np.ndarray]:
    """A sweep's frequencies and gains as 1-D arrays of equal length: at least 3
    finite, positive points, frequencies strictly increasing; else ValueError."""
    f = as_float_array(frequency_hz, "frequency_hz", min_len=3)
    y = as_float_array(gain, "gain", min_len=3)
    if f.size != y.size:
        raise ValueError(
            f"frequency_hz and gain must have equal length, got {f.size} and {y.size}"
        )
    if np.any(f <= 0.0) or np.any(y <= 0.0):
        raise ValueError("frequencies and gains must be positive")
    if np.any(np.diff(f) <= 0.0):
        raise ValueError("frequencies must be strictly increasing")
    return f, y


# Why a regression is refused, check by check
_OUT_OF_RANGE = "sweep is out of floating-point range in the (f^2, 1/gain^2) plane"
_LINE_REFUSALS = (
    "sweep does not resolve roll-off: no frequency spread",
    "sweep does not resolve roll-off: gain is constant",
    "sweep does not resolve roll-off: fitted slope is not positive "
    "(all points are far below the closed-loop corner frequency)",
    _OUT_OF_RANGE,
)
_TINY = np.finfo(float).tiny
_INTERCEPT_UNDERFLOW = ("the topology's ideal intercept (R/r + 1)^-2 underflows the normal "
                        "floating-point range, so the calibration cannot be checked")
_DEVIATION_OUT_OF_RANGE = ("the fitted intercept's deviation from the topology's ideal value "
                           "is out of floating-point range")
_F0_OUT_OF_RANGE = "the crossover frequency is out of floating-point range"


def _roll_off_plane(f: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep as ``(u, v) = (f^2, 1/gain^2)``, where the model is a
    line, for one row of gains or a ``(rows, points)`` matrix of them.
    Also returns which rows stay within the floating-point range in that
    plane (one boolean per row, a 0-d array for one row); ``v`` is
    meaningless in any other row."""
    with np.errstate(over="ignore", divide="ignore"):
        u = f * f
        v = 1.0 / (y * y)
    in_range = np.isfinite(v).all(axis=-1) & v.all(axis=-1) & np.isfinite(u).all()
    return u, v, in_range


@np.errstate(all="ignore")  # a sum past the float range is refused, not warned of
def _fit_lines(u: np.ndarray, v: np.ndarray, weighted: bool):
    """Least-squares lines through ``(u, v[t])`` for every row ``t`` of
    ``v`` (shape ``(rows, points)``), all sharing the abscissae ``u``.

    Returns per row the slope, the intercept, the plain Pearson correlation
    of ``(u, v[t])`` and the first refusal: 0 for a usable line, else ``i``
    for ``_LINE_REFUSALS[i - 1]``.  A refused row's numbers are
    meaningless.  Every row is computed as a one-row call would compute it,
    so the results match bit for bit.
    """
    n = u.size
    # a mean is its sum over n, so the sums below keep a mean's bits
    du0 = u - u.sum() / n  # the same in every row, so centred once
    ss_u = (du0 * du0).sum()
    var_u = ss_u / n
    v_mean = v.sum(axis=-1) / n
    dv0 = v - v_mean[:, np.newaxis]
    cross0 = (du0 * dv0).sum(axis=-1)
    if weighted:
        w = 1.0 / (v * v)
        w_sum = w.sum(axis=-1)
        u_bar = (w * u).sum(axis=-1) / w_sum
        v_bar = (w * v).sum(axis=-1) / w_sum
        du = u - u_bar[:, np.newaxis]
        dv = v - v_bar[:, np.newaxis]
        denom = (w * du * du).sum(axis=-1)
        cross = (w * du * dv).sum(axis=-1)
    else:
        # unit weights: the weighted means are the plain ones, and the
        # products by 1.0 that the weighted sums take are exact
        u_bar, v_bar = u.sum() / n, v_mean
        denom, cross = ss_u, cross0
    var_v = (dv0 * dv0).sum(axis=-1) / n
    var_uv = var_u * var_v
    # a refused row may divide by zero; its numbers are not used
    slope = cross / denom
    corr = cross0 / n / np.sqrt(var_uv)
    intercept = v_bar - slope * u_bar
    # a sum of squares that overflows or falls below the normal range has
    # lost the line; zero is a true degenerate only from terms that are zero
    lost = ~((var_uv >= _TINY) & (var_uv < np.inf))
    if weighted:
        lost |= ~((w_sum >= _TINY) & (w_sum < np.inf) & (denom >= _TINY) & (denom < np.inf))
    zero = np.flatnonzero(lost & (var_v == 0.0))
    lost[zero] = dv0[zero].any(axis=-1)
    # the first refusal wins, so the checks are written last to first
    refusal = (slope <= 0.0) * 3
    refusal[var_v == 0.0] = 2
    refusal[lost] = 4
    # the abscissae are shared, so their refusals hold for every row
    if u.min() == u.max():
        refusal[:] = 1
    elif not _TINY <= ss_u < np.inf:
        refusal[:] = 4
    return slope, intercept, corr, refusal


def _fit_rows(f: np.ndarray, y: np.ndarray, weighted: bool, topology: Topology | None):
    """Roll-off regressions of every row of gains ``y`` (shape
    ``(rows, points)``) over the frequencies ``f``, each checked as one fit
    is, in this order: the range of the (f^2, 1/gain^2) plane, the line's
    refusals (no frequency spread, a regression sum out of that range, then
    the rest), an ideal intercept below the normal range, and a relative
    deviation from it that is out of range.

    Returns the per-row slope, intercept and corr of :func:`_fit_lines`,
    the topology's ideal intercept ``beta^2`` and each row's relative
    deviation from it (both None without a topology, or when no row gets
    that far), and the first refusal: ``(row, message)``, or None.  Rows
    from the refused one on are not meaningful.
    """
    u, v, in_range = _roll_off_plane(f, y)
    passed, refusal = len(y), None
    if not in_range.all():
        passed = int(np.argmin(in_range))
        refusal = (passed, _OUT_OF_RANGE)
    slope = intercept = corr = np.empty(0)
    if passed:  # the lines need a plane in range, the abscissae included
        slope, intercept, corr, codes = _fit_lines(u, v[:passed], weighted)
        if codes.any():
            passed = int(np.argmax(codes > 0))
            refusal = (passed, _LINE_REFUSALS[codes[passed] - 1])
    intercept_expected = (topology.beta * topology.beta
                          if passed and topology is not None else None)
    rel_dev = None
    if intercept_expected is not None and intercept_expected < _TINY:
        refusal = (0, _INTERCEPT_UNDERFLOW)
    elif intercept_expected is not None:
        with np.errstate(over="ignore"):  # a deviation past the float range is refused
            rel_dev = (intercept[:passed] - intercept_expected) / intercept_expected
        if not np.isfinite(rel_dev).all():
            refusal = (int(np.argmin(np.isfinite(rel_dev))), _DEVIATION_OUT_OF_RANGE)
    return slope, intercept, corr, intercept_expected, rel_dev, refusal


def _calibration(rel_dev: np.ndarray):
    """The CalibrationWarning text of each row whose relative deviation from
    the topology's ideal intercept exceeds 20 percent: ``[(row, message)]``."""
    return [
        (int(row), f"fitted intercept deviates {rel_dev[row]:+.1%} from the topology's "
                   "ideal value; the gain calibration looks suspect")
        for row in np.flatnonzero(np.abs(rel_dev) > 0.20)
    ]


@dataclass(frozen=True)
class SweepRecord:
    """Ordered (frequency, gain magnitude) samples of one sweep, real or
    synthetic, with the feedback network it was taken in, when known."""

    frequency_hz: np.ndarray
    gain: np.ndarray
    topology: Topology | None = None

    def __post_init__(self):
        f, y = _sweep_arrays(self.frequency_hz, self.gain)
        f, y = f.copy(), y.copy()
        f.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "frequency_hz", f)
        object.__setattr__(self, "gain", y)

    @property
    def n_points(self) -> int:
        return self.frequency_hz.size


class CrossoverFrequencyFit:
    """Least-squares crossover-frequency estimator.

    Fits a straight line to ``v = 1/gain^2`` against ``u = f^2`` and reads
    ``f0 = 1/sqrt(slope)``.  The intercept is fitted freely; when the
    topology is given, the relative deviation of the intercept from the
    ideal ``beta^2 = 1/(R/r + 1)^2`` is reported as a calibration
    diagnostic (a deviation beyond 20 percent warns).

    Parameters
    ----------
    topology : Topology, optional
        Feedback network of the amplifier, enabling the intercept
        diagnostic.
    weighted : bool, default False
        Weight the line fit by 1/v^2 (constant relative gain noise) instead
        of plain least squares.  The correlation coefficient is always the
        plain Pearson correlation of (u, v).

    Attributes
    ----------
    f0_hz_ : float
        Fitted crossover frequency in Hz.
    slope_, intercept_ : float
        Fitted line coefficients in the (f^2, 1/gain^2) plane.
    corr_ : float
        Pearson correlation coefficient of the transformed data.
    intercept_expected_, intercept_rel_dev_ : float or None
        Ideal intercept and the relative deviation of the fit from it.
    """

    def __init__(self, topology: Topology | None = None, weighted: bool = False):
        self.topology = topology
        self.weighted = weighted

    def fit(self, frequency_hz, gain) -> "CrossoverFrequencyFit":
        f, y = _sweep_arrays(frequency_hz, gain)
        slope, intercept, corr, intercept_expected, rel_dev, refusal = _fit_rows(
            f, y[np.newaxis], self.weighted, self.topology)
        # refused before any attribute is set, so a failed fit leaves the
        # estimator as it was
        if refusal is not None:
            raise FitError(refusal[1])

        self.n_points_ = int(f.size)
        self.slope_ = float(slope[0])
        self.intercept_ = float(intercept[0])
        self.corr_ = float(corr[0])
        self.f0_hz_ = 1.0 / math.sqrt(self.slope_)
        self.intercept_expected_ = intercept_expected
        self.intercept_rel_dev_ = None
        if rel_dev is not None:
            self.intercept_rel_dev_ = float(rel_dev[0])
            for _, message in _calibration(rel_dev):
                warnings.warn(message, CalibrationWarning, stacklevel=2)
        return self


def fit_f0(record: SweepRecord, weighted: bool = False) -> CrossoverFrequencyFit:
    """The roll-off regression of a sweep record with its topology: the
    fitted :class:`CrossoverFrequencyFit`."""
    est = CrossoverFrequencyFit(topology=record.topology, weighted=weighted)
    return est.fit(record.frequency_hz, record.gain)


class QuickCrossoverFit:
    """Regression-free crossover-frequency estimator.

    Takes the low-frequency gain ``y0`` at the sweep's first point, locates
    the frequency ``f_fraction`` where the gain crosses ``y0/n`` by linear
    interpolation in the (f^2, 1/gain^2) plane - where the model is exactly
    linear - and passes it to :func:`~opampfit.circuit.quick_f0_general`
    with the topology's ideal DC gain (1 for a repeater), or without a
    topology the measured ``y0``.
    """

    def __init__(self, n: float = 2.0, topology: Topology | None = None):
        self.n = n
        self.topology = topology

    def fit(self, frequency_hz, gain) -> "QuickCrossoverFit":
        if not self.n > 1.0:
            raise ValueError(f"gain ratio n must exceed 1, got {self.n!r}")
        f, y = _sweep_arrays(frequency_hz, gain)
        u, v, in_range = _roll_off_plane(f, y)
        if not in_range:
            raise FitError(_OUT_OF_RANGE)

        y0 = float(y[0])
        try:
            v_target = (self.n / y0) ** 2
        except OverflowError:  # beyond every finite 1/gain^2: the sweep is too narrow
            v_target = math.inf
        # hi = 0 would make lo = -1 read the last point
        if v[0] >= v_target:
            raise FitError(f"gain ratio n = {self.n!r} is too close to 1 for the first "
                           f"gain {y0:.6g}: its n-fold drop rounds to no drop")
        above = np.nonzero(v >= v_target)[0]
        if above.size == 0:
            raise FitError(f"sweep range too narrow for n = {self.n:g} "
                           f"(largest attainable n is {y0 / float(y.min()):.4g})")
        hi = int(above[0])
        lo = hi - 1
        with np.errstate(over="ignore"):  # an overflowed crossing is refused below
            u_cross = u[lo] + (v_target - v[lo]) * (u[hi] - u[lo]) / (v[hi] - v[lo])
        f_fraction = math.sqrt(u_cross)
        # refused before any attribute is set, as a failed regression is: a
        # crossing whose f^2 underflowed to 0, and an f0 that over- or underflowed
        if not f_fraction > 0.0:
            raise FitError(_F0_OUT_OF_RANGE)
        f0 = quick_f0_general(y0 if self.topology is None else self.topology.ideal_dc_gain,
                              self.n, f_fraction)
        if not 0.0 < f0 < math.inf:
            raise FitError(_F0_OUT_OF_RANGE)
        self.baseline_gain_ = y0
        self.f_fraction_hz_ = f_fraction
        self.bracket_lo_ = (float(f[lo]), float(y[lo]))
        self.bracket_hi_ = (float(f[hi]), float(y[hi]))
        self.f0_hz_ = f0
        return self
