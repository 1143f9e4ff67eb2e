"""Batch statistics over many crossover-frequency measurements.

A batch of fitted f0 values is summarised by its mean and N-1 standard
deviation, its empirical CDF on the standardised axis (f_i - mean)/stddev,
and the agreement of that ECDF with the fitted normal CDF: the Kolmogorov
distance and the Pearson correlation between the two curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import as_float_array

SQRT2 = math.sqrt(2.0)


def normal_reference_cdf(x) -> np.ndarray:
    """Standard normal CDF, (1 + erf(x/sqrt(2)))/2, of a scalar or an array
    of any shape (a scalar for a scalar).

    ``math.erf`` is applied per element: it agrees with
    :func:`scipy.special.erf` to an ulp, and importing scipy.special would
    cost every launch far more than the loop costs a 10,000-sample batch.
    """
    z = np.asarray(x, dtype=float) / SQRT2
    erf = np.fromiter(map(math.erf, z.ravel().tolist()), float, z.size).reshape(z.shape)
    return 0.5 * (1.0 + erf)


def _moments(samples) -> tuple[np.ndarray, float, float]:
    """A batch as a validated float array with its mean and N-1 standard
    deviation (exactly 0 when all samples are equal, whatever the mean's
    rounding); ValueError when either overflows."""
    arr = as_float_array(samples, "samples", min_len=2)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stddev = float(arr.mean()), float(arr.std(ddof=1))
    if arr.min() == arr.max():
        stddev = 0.0
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise ValueError(f"batch mean ({mean!r}) or standard deviation ({stddev!r}) overflows")
    return arr, mean, stddev


def batch_stats(samples) -> tuple[float, float]:
    """Mean and N-1 standard deviation of a batch (needs n >= 2)."""
    _, mean, stddev = _moments(samples)
    return mean, stddev


class _ZeroSpreadError(ValueError):
    """A batch whose samples are all equal: it has a ``mean`` but no
    standardised axis."""

    def __init__(self, mean: float):
        super().__init__("batch standard deviation is zero; ECDF abscissa is undefined")
        self.mean = mean


@dataclass(frozen=True)
class BatchDistribution:
    """Full distribution report for one batch of f0 measurements."""

    samples_hz: np.ndarray
    n: int
    mean_hz: float
    stddev_hz: float
    ecdf_x: np.ndarray
    ecdf_p: np.ndarray
    kolmogorov_d: float
    kolmogorov_d_onesided: float
    cdf_corr: float
    ids: tuple[str, ...] | None = None

    @property
    def relative_spread(self) -> float:
        """stddev/mean, the fractional device-to-device dispersion."""
        return self.stddev_hz / self.mean_hz

    @property
    def kolmogorov_d_sqrt_n(self) -> float:
        """kolmogorov_d * sqrt(N), the distance on a scale free of the batch
        size (the asymptotic 5 percent critical value is 1.358)."""
        return self.kolmogorov_d * math.sqrt(self.n)


def analyze_batch(samples, ids: tuple[str, ...] | None = None) -> BatchDistribution:
    """Distribution report of a batch of at least two samples.

    ``ecdf_x`` holds the samples sorted and standardised with the sample
    mean and N-1 standard deviation (ties as consecutive equal abscissae),
    ``ecdf_p`` is ``i/N`` for ``i = 1..N``.  Against the normal CDF
    ``Phi_i`` there, ``kolmogorov_d`` is the standard two-sided statistic
    ``max_i max(|i/N - Phi_i|, |(i-1)/N - Phi_i|)``, ``kolmogorov_d_onesided``
    the plain ``max_i |i/N - Phi_i|`` at the plotted ECDF points (the value
    to quote next to a figure), and ``cdf_corr`` the Pearson correlation of
    ``ecdf_p`` and ``Phi``.  ValueError when the moments overflow, when
    ``ids`` does not name every sample, or when the samples are all equal
    (zero spread has no standardised axis).
    """
    arr, mean, stddev = _moments(samples)
    if ids is not None and len(ids) != arr.size:
        raise ValueError(f"got {len(ids)} ids for {arr.size} samples")
    if stddev == 0.0:
        raise _ZeroSpreadError(mean)
    n = arr.size
    x = (np.sort(arr, kind="stable") - mean) / stddev
    p = np.arange(1, n + 1) / n
    phi = normal_reference_cdf(x)
    d_upper = np.abs(p - phi)
    d_lower = np.abs((p - p[0]) - phi)  # p[0] = 1/N, the staircase step
    return BatchDistribution(
        samples_hz=arr, n=n, mean_hz=mean, stddev_hz=stddev, ecdf_x=x, ecdf_p=p,
        kolmogorov_d=float(np.maximum(d_upper, d_lower).max()),
        kolmogorov_d_onesided=float(d_upper.max()),
        cdf_corr=float(np.corrcoef(p, phi)[0, 1]),
        ids=tuple(ids) if ids is not None else None,
    )
