"""Batch statistics and normality-analysis tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opampfit import analyze_batch, normal_reference_cdf
from opampfit.distribution import batch_stats

SQRT2 = math.sqrt(2.0)


def simpson_normal_cdf(x, panels=20000):
    """Quadrature oracle for the standard normal CDF, independent of the
    library's erf-based implementation."""
    if x == 0.0:
        return 0.5
    sign = 1.0 if x > 0.0 else -1.0
    xa = abs(x)
    grid = np.linspace(0.0, xa, 2 * panels + 1)
    values = np.exp(-0.5 * grid * grid)
    h = xa / (2 * panels)
    integral = (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )
    return 0.5 + sign * integral / math.sqrt(2.0 * math.pi)


class TestBatchStats:
    def test_textbook_case(self):
        mean, stddev = batch_stats([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert stddev == 1.0

    def test_seeded_normal_batch_within_sampling_bounds(self):
        rng = np.random.default_rng(400)
        samples = rng.normal(97.73e6, 1.62e6, 400)
        mean, stddev = batch_stats(samples)
        assert abs(mean - 97.73e6) <= 3.0 * 1.62e6 / math.sqrt(400)
        assert abs(stddev - 1.62e6) <= 0.18e6

    def test_degenerate_batch(self):
        _, stddev = batch_stats([5.0, 5.0, 5.0])
        assert stddev == 0.0

    @pytest.mark.filterwarnings("error")
    def test_equal_samples_have_no_spread_whatever_the_mean_rounding(self):
        # five copies of this value do not average back to it exactly
        value = 429496730.4095121
        mean, stddev = batch_stats([value] * 5)
        assert mean != value and stddev == 0.0
        with pytest.raises(ValueError, match="zero"):
            analyze_batch([value] * 5)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            batch_stats([1.0])

    @pytest.mark.parametrize("compute", [batch_stats, analyze_batch])
    @pytest.mark.parametrize("samples", [[1e308, 1.7e308, 1e308], [1.7e308, 1e-300]])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_moments_rejected(self, compute, samples):
        with pytest.raises(ValueError, match="overflows"):
            compute(samples)


class TestEmpiricalCdf:
    def test_two_point_hand_arithmetic(self):
        # mean 0.5, N-1 stddev sqrt(0.5): abscissae are -/+ 0.5/sqrt(0.5)
        dist = analyze_batch([0.0, 1.0])
        expected = 0.5 / math.sqrt(0.5)
        np.testing.assert_allclose(dist.ecdf_x, [-expected, expected], rtol=1e-12)
        assert dist.ecdf_p.tolist() == [0.5, 1.0]
        assert expected == pytest.approx(0.7071067811865475, rel=1e-15)

    def test_abscissae_nondecreasing_and_last_ordinate_one(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(10.0, 2.0, 101)
        dist = analyze_batch(samples)
        x, p = dist.ecdf_x, dist.ecdf_p
        assert np.all(np.diff(x) >= 0.0)
        assert p[-1] == 1.0
        assert p[0] == pytest.approx(1.0 / 101.0, rel=1e-15)

    def test_ties_preserved(self):
        x = analyze_batch([1.0, 2.0, 2.0, 3.0]).ecdf_x
        assert x.size == 4
        assert x[1] == x[2]

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError, match="standard deviation is zero"):
            analyze_batch([2.0, 2.0])


class TestNormalCdfFit:
    def test_two_point_erf_arithmetic(self):
        stats = analyze_batch([0.0, 1.0])
        x = stats.ecdf_x
        phi_lo = simpson_normal_cdf(x[0])
        phi_hi = simpson_normal_cdf(x[1])
        assert phi_lo == pytest.approx(0.2397500610934768, abs=1e-9)
        assert phi_hi == pytest.approx(0.7602499389065232, abs=1e-9)
        expected_d = max(abs(0.5 - phi_lo), abs(1.0 - phi_hi))
        assert stats.kolmogorov_d_onesided == pytest.approx(expected_d, abs=1e-9)
        assert stats.kolmogorov_d_onesided == pytest.approx(0.2602499389065232, abs=1e-9)
        # the lower staircase edge gives the same supremum here
        assert stats.kolmogorov_d == pytest.approx(stats.kolmogorov_d_onesided, abs=1e-9)

    def test_normal_ensembles_look_normal(self):
        corr_ok = 0
        d_ok = 0
        for rep in range(100):
            rng = np.random.default_rng([211, rep])
            stats = analyze_batch(rng.normal(97.73e6, 1.62e6, 400))
            if stats.cdf_corr >= 0.996:
                corr_ok += 1
            if stats.kolmogorov_d_sqrt_n < 1.358:
                d_ok += 1
        assert corr_ok >= 90
        assert d_ok >= 90

    def test_uniform_ensembles_are_distinguished(self):
        # same variance, different shape: uniform draws must show a clearly
        # larger Kolmogorov distance than normal draws
        d_normal, d_uniform = [], []
        for rep in range(60):
            rng = np.random.default_rng([223, rep])
            d_normal.append(analyze_batch(rng.normal(0.0, 1.0, 400)).kolmogorov_d)
            uniform = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), 400)
            d_uniform.append(analyze_batch(uniform).kolmogorov_d)
        assert np.median(d_uniform) > 1.5 * np.median(d_normal)


class TestInvariants:
    def test_affine_invariance(self):
        rng = np.random.default_rng(31)
        samples = rng.normal(5.0, 3.0, 200)
        base = analyze_batch(samples)
        moved = analyze_batch(2.5e6 * samples + 1.0e9)
        np.testing.assert_allclose(moved.ecdf_x, base.ecdf_x, rtol=1e-9, atol=1e-12)
        assert moved.kolmogorov_d == pytest.approx(base.kolmogorov_d, abs=1e-12)
        assert moved.cdf_corr == pytest.approx(base.cdf_corr, abs=1e-12)

    def test_statistic_ranges(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            samples = rng.exponential(1.0, 50)
            dist = analyze_batch(samples)
            assert 0.0 <= dist.kolmogorov_d <= 1.0
            assert -1.0 <= dist.cdf_corr <= 1.0

    def test_erf_cdf_against_quadrature(self):
        for x in np.arange(-6.0, 6.0 + 1e-9, 0.25):
            assert float(normal_reference_cdf(x)) == pytest.approx(
                simpson_normal_cdf(float(x)), abs=1e-7
            )

    def test_relative_spread_three_significant_figures(self):
        # 1.62 MHz / 97.73 MHz reads 1.66 % at three significant figures
        ratio = 1.62 / 97.73
        assert abs(100.0 * ratio - 1.66) < 0.005
        rng = np.random.default_rng(41)
        dist = analyze_batch(rng.normal(97.73e6, 1.62e6, 400))
        assert 100.0 * dist.relative_spread == pytest.approx(1.66, abs=0.2)


def scipy_normal_cdf(x):
    """The scipy.special.erf form of the standard normal CDF."""
    from scipy.special import erf

    return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / SQRT2))


class TestNormalReferenceCdf:
    def test_within_2_pow_minus_51_of_scipy_erf(self):
        x = np.linspace(-40.0, 40.0, 200001)
        np.testing.assert_allclose(normal_reference_cdf(x), scipy_normal_cdf(x),
                                   rtol=0.0, atol=2.0**-51)

    @pytest.mark.parametrize("x, shape", [
        (0.3, ()),
        (np.float64(-1.5), ()),
        (np.array(0.7), ()),
        (np.linspace(-2.0, 2.0, 6).reshape(2, 3), (2, 3)),
        (np.empty(0), (0,)),
        ([[1.0], [2.0]], (2, 1)),
    ])
    def test_keeps_shape_and_type(self, x, shape):
        got, ref = normal_reference_cdf(x), scipy_normal_cdf(x)
        assert type(got) is type(ref)
        assert np.shape(got) == shape and np.asarray(got).dtype == np.float64
        if shape == ():
            assert type(got) is np.float64

    def test_infinities_and_nan(self):
        got = normal_reference_cdf(np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == 1.0 and got[1] == 0.0 and np.isnan(got[2])
        assert normal_reference_cdf(math.inf) == 1.0
        assert normal_reference_cdf(-math.inf) == 0.0
        assert np.isnan(normal_reference_cdf(math.nan))


class TestNormalityFitEstimator:
    def test_analyze_batch_checks_ids(self):
        with pytest.raises(ValueError, match="ids"):
            analyze_batch([1.0, 2.0, 3.0], ids=("a", "b"))

    def test_analyze_batch_keeps_ids(self):
        dist = analyze_batch([1.0, 2.0, 3.0], ids=("a", "b", "c"))
        assert dist.ids == ("a", "b", "c")
        assert dist.n == 3


# Whole-Hz values in kHz steps: every sum of them is exact, so the mean is the
# same bit-for-bit in any order and only the sum of squares may round apart.
KHZ_BATCH = st.lists(st.integers(1, 10**6).map(lambda k: 1e3 * k), min_size=2, max_size=60)


@settings(max_examples=60)
@given(samples=KHZ_BATCH.filter(lambda s: min(s) < max(s)), data=st.data())
def test_analyze_batch_ignores_sample_order(samples, data):
    shuffled = data.draw(st.permutations(samples))
    a, b = analyze_batch(samples), analyze_batch(shuffled)
    assert a.n == b.n and a.mean_hz == b.mean_hz
    assert b.stddev_hz == pytest.approx(a.stddev_hz, rel=1e-12)
    np.testing.assert_allclose(b.ecdf_x, a.ecdf_x, rtol=0, atol=1e-9)
    assert np.array_equal(b.ecdf_p, a.ecdf_p)
    assert b.kolmogorov_d == pytest.approx(a.kolmogorov_d, abs=1e-9)
    assert b.kolmogorov_d_onesided == pytest.approx(a.kolmogorov_d_onesided, abs=1e-9)
    assert b.cdf_corr == pytest.approx(a.cdf_corr, abs=1e-9)
