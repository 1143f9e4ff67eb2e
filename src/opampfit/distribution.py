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

from .base import ParamsMixin, as_float_array, check_is_fitted

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


def _standardised_ecdf(arr: np.ndarray, mean: float, stddev: float):
    """:func:`empirical_cdf` of a batch whose moments are already known."""
    if stddev == 0.0:
        raise _ZeroSpreadError(mean)
    x = (np.sort(arr, kind="stable") - mean) / stddev
    n = arr.size
    p = np.arange(1, n + 1) / n
    return x, p


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Standardised empirical CDF of a batch.

    Sorts the samples, standardises them with the sample mean and N-1
    standard deviation, and returns ``(x, p)`` with ``x_i`` the ordered
    dimensionless deviations from the mean and ``p_i = i/N`` for
    ``i = 1..N``.  Ties appear as consecutive equal abscissae.  A batch with
    zero spread has no standardised axis and is rejected.
    """
    return _standardised_ecdf(*_moments(samples))


@dataclass(frozen=True)
class NormalCdfFitStats:
    """Agreement between an ECDF and the fitted normal CDF.

    ``kolmogorov_d`` is the standard two-sided statistic
    ``max_i max(|i/N - Phi_i|, |(i-1)/N - Phi_i|)``; ``kolmogorov_d_onesided``
    is the plain ``max_i |i/N - Phi_i|`` measured at the plotted ECDF points
    (the value to quote next to a figure).  ``cdf_corr`` is the Pearson
    correlation between the ECDF ordinates and the normal CDF values.
    """

    kolmogorov_d: float
    kolmogorov_d_onesided: float
    cdf_corr: float


def normal_cdf_fit(ecdf_x, ecdf_p) -> NormalCdfFitStats:
    """Compare an ECDF (from :func:`empirical_cdf`) against the normal CDF."""
    x = as_float_array(ecdf_x, "ecdf_x", min_len=2)
    p = as_float_array(ecdf_p, "ecdf_p", min_len=2)
    if x.size != p.size:
        raise ValueError(f"ecdf_x and ecdf_p must have equal length, got {x.size} and {p.size}")
    if np.any(np.diff(p) <= 0.0) or p[-1] > 1.0 or p[0] <= 0.0:
        raise ValueError("ecdf_p must increase strictly from 1/N to 1")
    return _cdf_agreement(x, p)


def _cdf_agreement(x: np.ndarray, p: np.ndarray) -> NormalCdfFitStats:
    """:func:`normal_cdf_fit` of an ECDF already known to be well formed."""
    phi = normal_reference_cdf(x)
    step = p[0]  # = 1/N for an i/N staircase
    d_upper = np.abs(p - phi)
    d_lower = np.abs((p - step) - phi)
    d_two_sided = float(np.maximum(d_upper, d_lower).max())
    d_one_sided = float(d_upper.max())
    corr = float(np.corrcoef(p, phi)[0, 1])
    return NormalCdfFitStats(
        kolmogorov_d=d_two_sided,
        kolmogorov_d_onesided=d_one_sided,
        cdf_corr=corr,
    )


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


class NormalityFit(ParamsMixin):
    """Estimator wrapping the batch-normality analysis.

    ``fit(samples)`` computes the batch mean and N-1 standard deviation, the
    standardised ECDF, and the normal-CDF agreement statistics; everything is
    exposed through trailing-underscore attributes (``mean_``, ``stddev_``,
    ``ecdf_x_``, ``ecdf_p_``, ``kolmogorov_d_``, ``kolmogorov_d_onesided_``,
    ``cdf_corr_``, ``n_``).
    """

    def fit(self, samples) -> "NormalityFit":
        dist = analyze_batch(samples)
        self.n_, self.mean_, self.stddev_ = dist.n, dist.mean_hz, dist.stddev_hz
        self.ecdf_x_, self.ecdf_p_ = dist.ecdf_x, dist.ecdf_p
        self.kolmogorov_d_ = dist.kolmogorov_d
        self.kolmogorov_d_onesided_ = dist.kolmogorov_d_onesided
        self.cdf_corr_ = dist.cdf_corr
        return self

    def reference_cdf(self, x) -> np.ndarray:
        """Fitted normal CDF on the standardised axis."""
        check_is_fitted(self, "mean_")
        return normal_reference_cdf(x)


def analyze_batch(samples, ids: tuple[str, ...] | None = None) -> BatchDistribution:
    """One-call batch analysis returning a :class:`BatchDistribution`."""
    arr, mean, stddev = _moments(samples)
    if ids is not None and len(ids) != arr.size:
        raise ValueError(f"got {len(ids)} ids for {arr.size} samples")
    x, p = _standardised_ecdf(arr, mean, stddev)
    stats = _cdf_agreement(x, p)
    return BatchDistribution(
        samples_hz=arr,
        n=int(arr.size),
        mean_hz=mean,
        stddev_hz=stddev,
        ecdf_x=x,
        ecdf_p=p,
        kolmogorov_d=stats.kolmogorov_d,
        kolmogorov_d_onesided=stats.kolmogorov_d_onesided,
        cdf_corr=stats.cdf_corr,
        ids=tuple(ids) if ids is not None else None,
    )
