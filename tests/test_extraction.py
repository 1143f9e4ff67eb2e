"""Regression and quick-method extraction tests.

Synthetic sweeps are generated from the closed-form response, which acts as
the independent oracle for every recovery check.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opampfit import (
    CalibrationWarning,
    CrossoverFrequencyFit,
    DeviceParams,
    FitError,
    QuickCrossoverFit,
    SweepRecord,
    Topology,
    SweepPlan,
    closed_loop_gain,
    fit_f0,
)
from opampfit.extraction import _LINE_REFUSALS, _fit_lines, _fit_rows, _roll_off_plane


def synthetic_record(f0, feedback_r, gain_r, f_min, f_max, n, sigma=0.0, seed=None,
                     with_meta=True):
    """Closed-form sweep, optionally with multiplicative gain noise."""
    dev = DeviceParams(f0=f0)
    topo = Topology(feedback_r=feedback_r, gain_r=gain_r)
    freqs = np.linspace(f_min, f_max, n)
    gains = np.array([abs(closed_loop_gain(dev, topo, float(f))) for f in freqs])
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        gains = gains * (1.0 + sigma * rng.standard_normal(n))
    return SweepRecord(frequency_hz=freqs, gain=gains, topology=topo if with_meta else None)


def quick_f0(record, n=2.0):
    """QuickCrossoverFit's f0 of a sweep record, with the record's topology."""
    est = QuickCrossoverFit(n=n, topology=record.topology)
    return est.fit(record.frequency_hz, record.gain).f0_hz_


def fitted_attributes(est):
    """An estimator's fitted, trailing-underscore attributes by name."""
    return {name: value for name, value in vars(est).items() if name.endswith("_")}


class TestSweepRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepRecord(frequency_hz=[1.0, 2.0], gain=[1.0, 1.0])  # too short
        with pytest.raises(ValueError):
            SweepRecord(frequency_hz=[1.0, 2.0, 2.0], gain=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            SweepRecord(frequency_hz=[0.0, 1.0, 2.0], gain=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            SweepRecord(frequency_hz=[1.0, 2.0, 3.0], gain=[1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            SweepRecord(frequency_hz=[1.0, 2.0, 3.0], gain=[1.0, 1.0])

    def test_arrays_read_only(self):
        rec = SweepRecord(frequency_hz=[1.0, 2.0, 3.0], gain=[3.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            rec.gain[0] = 5.0

    def test_expected_intercept(self):
        rec = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 1e5, 16)
        assert fit_f0(rec).intercept_expected_ == pytest.approx(101.0**-2, rel=1e-12)
        assert fit_f0(rec).intercept_expected_ == rec.topology.beta * rec.topology.beta
        bare = SweepRecord(rec.frequency_hz, rec.gain)
        assert fit_f0(bare).intercept_expected_ is None


@pytest.mark.parametrize("estimator", [CrossoverFrequencyFit(), QuickCrossoverFit()])
@pytest.mark.parametrize(
    "freqs,gains",
    [
        ([1.0, 2.0, 3.0], [1e-200, 0.9e-200, 0.5e-200]),  # 1/gain^2 overflows
        ([1.0, 2.0, 3.0], [1e200, 0.9e200, 0.5e200]),  # gain^2 overflows
        ([1e200, 2e200, 3e200], [3.0, 2.0, 1.0]),  # f^2 overflows
    ],
)
@pytest.mark.filterwarnings("error")
def test_sweep_outside_float_range_is_a_fit_error(estimator, freqs, gains):
    with pytest.raises(FitError, match="floating-point range"):
        estimator.fit(freqs, gains)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize(
    "freqs,gains",
    [
        ([1e4, 2e4, 3e4], [3e-100, 2e-100, 1e-100]),  # (1/gain^2)^2 overflows
        ([1e4, 2e4, 3e4], [3e100, 2e100, 1e100]),  # (1/gain^2)^2 underflows
        ([1e150, 2e150, 3e150], [3.0, 2.0, 1.0]),  # (f^2)^2 overflows
    ],
)
@pytest.mark.filterwarnings("error")
def test_regression_sums_outside_float_range_are_a_fit_error(weighted, freqs, gains):
    # the plane itself is in range; only the sums of squares leave it
    assert _roll_off_plane(np.array(freqs), np.array(gains))[2]
    with pytest.raises(FitError, match="floating-point range"):
        CrossoverFrequencyFit(weighted=weighted).fit(freqs, gains)


@pytest.mark.parametrize("estimator", [CrossoverFrequencyFit(), QuickCrossoverFit()])
@pytest.mark.parametrize(
    "freqs,gains",
    [
        ([1.0, 2.0], [3.0, 2.0]),  # too short
        ([1.0, 2.0, 3.0], [3.0, 2.0]),  # unequal lengths
        ([0.0, 2.0, 3.0], [3.0, 2.0, 1.0]),  # non-positive frequency
        ([1.0, 2.0, 3.0], [3.0, -2.0, 1.0]),  # non-positive gain
        ([1.0, math.nan, 3.0], [3.0, 2.0, 1.0]),  # not finite
        ([[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]]),  # not 1-D
        ([2.0, 1.0, 3.0], [3.0, 2.0, 1.0]),  # not increasing
        ([1.0, 2.0, 2.0, 3.0], [3.0, 2.0, 2.0, 1.0]),  # repeated frequency
    ],
)
def test_estimators_validate_their_sweep(estimator, freqs, gains):
    with pytest.raises(ValueError):
        estimator.fit(freqs, gains)


class TestFitF0:
    def test_noiseless_recovery(self):
        record = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 256)
        result = fit_f0(record)
        assert result.f0_hz_ == pytest.approx(39.6e6, rel=1e-9)
        assert result.corr_ >= 1.0 - 1e-12
        assert result.slope_ == pytest.approx(1.0 / 39.6e6**2, rel=1e-9)
        assert abs(result.intercept_rel_dev_) < 1e-6

    def test_three_collinear_points(self):
        # u = f^2 on (1, 2, 3): v = c + b*u must be reproduced exactly
        b, c = 0.125, 0.5
        u = np.array([1.0, 2.0, 3.0])
        f = np.sqrt(u)
        y = 1.0 / np.sqrt(c + b * u)
        result = fit_f0(SweepRecord(frequency_hz=f, gain=y))
        assert result.slope_ == pytest.approx(b, rel=1e-12)
        assert result.intercept_ == pytest.approx(c, rel=1e-12)

    def test_flat_sweep_rejected(self):
        rec = SweepRecord([1e4, 2e4, 3e4], [100.0, 100.0, 100.0])
        with pytest.raises(FitError, match="does not resolve roll-off"):
            fit_f0(rec)

    def test_descending_transformed_data_rejected(self):
        # gain increasing with frequency gives a negative slope
        rec = SweepRecord([1e4, 2e4, 3e4], [50.0, 75.0, 100.0])
        with pytest.raises(FitError, match="does not resolve roll-off"):
            fit_f0(rec)

    def test_weighted_fit_matches_on_noiseless_data(self):
        record = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 128)
        plain = fit_f0(record)
        weighted = fit_f0(record, weighted=True)
        assert weighted.f0_hz_ == pytest.approx(plain.f0_hz_, rel=1e-9)

    def test_monte_carlo_at_lockin_grade_noise(self):
        """At the 10-100 kHz geometry a 3e-5 relative gain noise reproduces
        the high-correlation regime: nearly every trial fits f0 to better
        than 1 % with corr >= 0.999."""
        truth = 9.773e7
        clean = synthetic_record(truth, 100.0, 1.0, 1e4, 1e5, 512)
        good = 0
        for trial in range(100):
            rng = np.random.default_rng([101, trial])
            gains = clean.gain * (1.0 + 3e-5 * rng.standard_normal(512))
            result = fit_f0(SweepRecord(clean.frequency_hz, gains))
            if result.corr_ >= 0.999 and abs(result.f0_hz_ - truth) / truth <= 0.01:
                good += 1
        assert good >= 95

    def test_error_propagation_at_larger_noise(self):
        """With 0.3 % gain noise the same 10-100 kHz geometry cannot sustain
        corr >= 0.999: the fitted-f0 spread matches straight error
        propagation sigma_b/b = 2*sigma*v_mean/(b*sigma_u*sqrt(N)), which is
        ~8.5 % on the slope (~4.3 % on f0), and the correlation collapses."""
        truth = 9.773e7
        clean = synthetic_record(truth, 100.0, 1.0, 1e4, 1e5, 512)
        u = clean.frequency_hz**2
        v = 1.0 / clean.gain**2
        slope = 1.0 / truth**2
        sigma = 0.003
        predicted_rel_spread = (2.0 * sigma * v.mean()) / (slope * u.std() * math.sqrt(512)) / 2.0

        estimates, corrs = [], []
        for trial in range(100):
            rng = np.random.default_rng([103, trial])
            gains = clean.gain * (1.0 + sigma * rng.standard_normal(512))
            result = fit_f0(SweepRecord(clean.frequency_hz, gains))
            estimates.append(result.f0_hz_)
            corrs.append(result.corr_)
        spread = np.std(estimates, ddof=1) / np.mean(estimates)
        assert spread == pytest.approx(predicted_rel_spread, rel=0.35)
        assert np.median(corrs) < 0.7


class TestFitInvariants:
    @pytest.mark.parametrize("f0", [10e6, 39.6e6, 97.73e6, 410e6])
    @pytest.mark.parametrize("beta_inv", [11.0, 101.0, 1001.0])
    def test_recovery_grid(self, f0, beta_inv):
        corner = f0 / beta_inv
        record = synthetic_record(f0, beta_inv - 1.0, 1.0, corner / 100.0, 3.0 * corner, 128)
        assert fit_f0(record).f0_hz_ == pytest.approx(f0, rel=1e-6)

    def test_frequency_unit_covariance(self):
        base = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 64, with_meta=False)
        scaled = SweepRecord(base.frequency_hz * 1e3, base.gain)
        r1, r2 = fit_f0(base), fit_f0(scaled)
        assert r2.f0_hz_ == pytest.approx(1e3 * r1.f0_hz_, rel=1e-12)
        assert r2.corr_ == pytest.approx(r1.corr_, abs=1e-12)

    @settings(max_examples=30)
    @given(c=st.floats(0.05, 20.0), f0=st.floats(1e7, 1e9))
    @example(c=0.8, f0=39.6e6)
    def test_gain_scale_sensitivity(self, c, f0):
        # calibrated gain is required: scaling y by c scales f0 by c
        base = synthetic_record(f0, 1989.0, 20.1, 1e4, 2e6, 64, with_meta=False)
        scaled = SweepRecord(base.frequency_hz, base.gain * c)
        r1, r2 = fit_f0(base), fit_f0(scaled)
        assert r2.slope_ == pytest.approx(r1.slope_ / c**2, rel=1e-12)
        assert r2.intercept_ == pytest.approx(r1.intercept_ / c**2, rel=1e-9)
        assert r2.f0_hz_ == pytest.approx(c * r1.f0_hz_, rel=1e-12)
        assert r2.corr_ == pytest.approx(r1.corr_, abs=1e-12)

    def test_noise_degrades_corr_monotonically(self):
        clean = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 2.5e6, 256)
        mean_corr = []
        for sigma in (1e-5, 1e-4, 1e-3):
            corrs = []
            for trial in range(30):
                rng = np.random.default_rng([107, trial])
                gains = clean.gain * (1.0 + sigma * rng.standard_normal(clean.n_points))
                corrs.append(fit_f0(SweepRecord(clean.frequency_hz, gains)).corr_)
            mean_corr.append(np.mean(corrs))
        assert mean_corr[0] > mean_corr[1] > mean_corr[2]

    def test_quick_and_fit_agree_within_noise(self):
        # disagreement between the two estimators stays within 3x its own
        # ensemble spread and shows no gross bias
        clean = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 2.5e6, 256)
        diffs = []
        for trial in range(100):
            rng = np.random.default_rng([109, trial])
            gains = clean.gain * (1.0 + 1e-4 * rng.standard_normal(clean.n_points))
            rec = SweepRecord(clean.frequency_hz, gains)
            diffs.append(quick_f0(rec) - fit_f0(rec).f0_hz_)
        diffs = np.array(diffs)
        spread = diffs.std(ddof=1)
        assert np.mean(np.abs(diffs) <= 3.0 * spread) >= 0.97
        assert abs(diffs.mean()) <= spread


class TestQuickFit:
    def test_matches_regression_on_noiseless_sweep(self):
        record = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 3e6, 512, with_meta=False)
        quick = quick_f0(record, n=2.0)
        regression = fit_f0(record).f0_hz_
        assert abs(quick - regression) / regression < 1e-3

    @pytest.mark.parametrize("n", [1.0, 0.5])
    def test_rejects_n_at_most_one(self, n):
        record = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 3e6, 64)
        with pytest.raises(ValueError):
            quick_f0(record, n=n)

    def test_narrow_sweep_reports_attainable_n(self):
        record = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 1e5, 64, with_meta=False)
        expected_max = record.gain[0] / record.gain.min()
        with pytest.raises(FitError, match=rf"sweep range too narrow for n = 2 \(largest "
                                           rf"attainable n is {expected_max:.4g}\)$"):
            quick_f0(record, n=2.0)

    def test_drop_beyond_float_range_is_a_range_error(self):
        # (n/y0)^2 overflows, so no sweep point can reach the drop
        record = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 3e6, 64, with_meta=False)
        with pytest.raises(FitError, match="too narrow for n = 1e\\+200"):
            quick_f0(record, n=1e200)

    def test_topology_variant_is_gain_scale_invariant(self):
        base = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 3e6, 256)  # carries meta
        base_free = SweepRecord(base.frequency_hz, base.gain)
        scaled_gain = base.gain * 0.9
        with_meta = SweepRecord(base.frequency_hz, scaled_gain, Topology(100.0, 1.0))
        without_meta = SweepRecord(base.frequency_hz, scaled_gain)
        # known topology pins the prefactor, so a miscalibrated gain cancels;
        # the measured-y0 variant inherits the scale error linearly
        assert quick_f0(with_meta) == pytest.approx(quick_f0(base), rel=1e-12)
        assert quick_f0(without_meta) == pytest.approx(
            0.9 * quick_f0(base_free), rel=1e-9
        )

    def test_repeater_reads_f0_at_unit_dc_gain(self):
        # beta = 1: the closed-form |Y| = 1/|1 + j*f/f0| halves at f0*sqrt(3)
        record = synthetic_record(9.773e7, 0.0, math.inf, 1e3, 3e8, 512)
        assert record.topology.beta == 1.0 and record.topology.ideal_dc_gain == 1.0
        assert quick_f0(record, n=2.0) == pytest.approx(9.773e7, rel=1e-9)

    def test_first_point_must_be_flat(self):
        # with n one ulp above 1, (n/y0)^2 rounds to 1/y0^2: the first point
        # has already "dropped" n-fold, and there is no point below it to
        # bracket the crossing with
        freqs = np.linspace(1e3, 2.6e4, 26)
        gains = np.linspace(254.01, 90.0, 26)
        record = SweepRecord(freqs, gains)
        n = 1.0 + 2.0**-52
        assert 1.0 / (gains[0] * gains[0]) >= (n / gains[0]) ** 2
        with pytest.raises(FitError, match=r"^gain ratio n = 1\.0000000000000002 is too close "
                                           r"to 1 for the first gain 254\.01"):
            quick_f0(record, n=n)

    def test_device_batch_spread_tracks_gain_noise(self):
        """Coarse oscilloscope-style sweeps with 3 % amplitude noise give a
        quick-method spread of a few percent around an unbiased mean."""
        f0, feedback_r, gain_r = 46.6e6, 1989.0, 20.1
        topo = Topology(feedback_r=feedback_r, gain_r=gain_r)
        f_half = math.sqrt(3.0) * topo.beta * f0
        clean = synthetic_record(f0, feedback_r, gain_r, 1e4, 3.0 * f_half, 25,
                                 with_meta=False)
        estimates = []
        for trial in range(300):
            rng = np.random.default_rng([113, trial])
            gains = clean.gain * (1.0 + 0.03 * rng.standard_normal(25))
            estimates.append(quick_f0(SweepRecord(clean.frequency_hz, gains)))
        estimates = np.array(estimates)
        rel_sigma = estimates.std(ddof=1) / estimates.mean()
        assert 0.015 < rel_sigma < 0.06
        assert abs(estimates.mean() / f0 - 1.0) < 0.02


class TestEstimatorApi:
    def test_fit_returns_self_and_predicts(self):
        record = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 64)
        est = CrossoverFrequencyFit()
        assert est.fit(record.frequency_hz, record.gain) is est
        f = record.frequency_hz
        predicted = 1.0 / np.sqrt(est.intercept_ + est.slope_ * f * f)
        np.testing.assert_allclose(predicted, record.gain, rtol=1e-9)

    def test_failed_fit_leaves_estimator_unfitted(self):
        # (R/r + 1)^-2 = 1e-400 underflows, which the fit refuses
        record = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 64)
        est = CrossoverFrequencyFit(Topology(feedback_r=1e200, gain_r=1.0))
        with pytest.raises(FitError, match="underflows"):
            est.fit(record.frequency_hz, record.gain)
        assert fitted_attributes(est) == {}

    def test_failed_refit_keeps_the_previous_fit(self):
        est = CrossoverFrequencyFit(Topology(feedback_r=1989.0, gain_r=20.1))
        first = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 64)
        before = fitted_attributes(est.fit(first.frequency_hz, first.gain))
        assert {"f0_hz_", "intercept_rel_dev_"} <= set(before)
        est.topology = Topology(feedback_r=1e200, gain_r=1.0)
        second = synthetic_record(97.73e6, 100.0, 1.0, 1e4, 2e6, 64)
        with pytest.raises(FitError, match="underflows"):
            est.fit(second.frequency_hz, second.gain)
        assert fitted_attributes(est) == before

    def test_quick_estimator_exposes_bracket(self):
        record = synthetic_record(9.773e7, 100.0, 1.0, 1e4, 3e6, 64, with_meta=False)
        est = QuickCrossoverFit(n=2.0).fit(record.frequency_hz, record.gain)
        f_lo, _ = est.bracket_lo_
        f_hi, _ = est.bracket_hi_
        assert f_lo < est.f_fraction_hz_ < f_hi
        assert est.baseline_gain_ == record.gain[0]

    def test_calibration_warning_on_miscalibrated_gain(self):
        record = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 64, with_meta=False)
        est = CrossoverFrequencyFit(Topology(feedback_r=1989.0, gain_r=20.1))
        with pytest.warns(CalibrationWarning):
            est.fit(record.frequency_hz, record.gain * 2.0)
        assert abs(est.intercept_rel_dev_) > 0.2

    @pytest.mark.parametrize("build", [
        lambda: SweepRecord([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], feedback_r=1.0),
        lambda: CrossoverFrequencyFit(feedback_r=100.0),
        lambda: QuickCrossoverFit(gain_r=1.0),
    ], ids=["SweepRecord", "CrossoverFrequencyFit", "QuickCrossoverFit"])
    def test_feedback_network_is_one_topology_not_a_resistor(self, build):
        # a half pair of resistors cannot be written, so no check is skipped
        with pytest.raises(TypeError):
            build()

    def test_no_warning_when_calibrated(self):
        record = synthetic_record(39.6e6, 1989.0, 20.1, 1e4, 2e6, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CalibrationWarning)
            fit_f0(record)


@st.composite
def gain_matrix(draw):
    """``(f, gains)``: a closed-form sweep of 3-40 points and 1-6 noisy
    copies of its gains as rows, some of them constant; wide noise over a
    narrow band fits non-positive slopes, so refusals are drawn too."""
    n = draw(st.integers(3, 40))
    f_max = draw(st.sampled_from([1.01e4, 1e5, 2e6]))
    sigma = draw(st.sampled_from([0.0, 1e-5, 1e-3, 0.05]))
    record = synthetic_record(97.73e6, 100.0, 1.0, 1e4, f_max, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = []
    for constant in draw(st.lists(st.booleans(), min_size=1, max_size=6)):
        if constant:
            rows.append(np.full(n, record.gain[0]))
        else:
            rows.append(record.gain * (1.0 + sigma * rng.standard_normal(n)))
    return record.frequency_hz, np.abs(np.array(rows))


def regression_40_digits(u, v, weighted):
    """Slope and intercept of the least-squares line through the floats
    ``(u, v)``, weighted by ``1/v^2`` or not, at 40 digits with mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        u = [mp.mpf(x) for x in u.tolist()]
        v = [mp.mpf(x) for x in v.tolist()]
        w = [1 / (y * y) if weighted else mp.mpf(1) for y in v]
        w_sum = mp.fsum(w)
        u_bar = mp.fsum(a * b for a, b in zip(w, u)) / w_sum
        v_bar = mp.fsum(a * b for a, b in zip(w, v)) / w_sum
        cross = mp.fsum(a * (x - u_bar) * (y - v_bar) for a, x, y in zip(w, u, v))
        denom = mp.fsum(a * (x - u_bar) ** 2 for a, x in zip(w, u))
        slope = cross / denom
        return float(slope), float(v_bar - slope * u_bar)


class TestBatchedLineFit:
    @settings(max_examples=60)
    @given(sweeps=gain_matrix(), weighted=st.booleans())
    def test_rows_equal_one_row_fits_bit_for_bit(self, sweeps, weighted):
        f, gains = sweeps
        u, v, in_range = _roll_off_plane(f, gains)
        assert in_range.all()
        slope, intercept, corr, refusal = _fit_lines(u, v, weighted)
        assert slope.shape == intercept.shape == corr.shape == refusal.shape == (len(gains),)
        for row, gain in enumerate(gains):
            est = CrossoverFrequencyFit(weighted=weighted)
            try:
                est.fit(f, gain)
            except FitError as err:
                assert refusal[row] > 0 and str(err) == _LINE_REFUSALS[refusal[row] - 1]
                continue
            assert refusal[row] == 0
            assert est.slope_.hex() == float(slope[row]).hex()
            assert est.intercept_.hex() == float(intercept[row]).hex()
            assert est.corr_.hex() == float(corr[row]).hex()

    def test_each_row_reports_its_own_refusal(self):
        # a falling, a constant and a rising gain over one band
        f = np.linspace(1e4, 1.01e4, 3)
        gains = np.array([[101.0, 100.0, 99.0], [100.0, 100.0, 100.0], [99.0, 100.0, 101.0]])
        *_, refusal = _fit_lines(*_roll_off_plane(f, gains)[:2], weighted=False)
        assert refusal.tolist() == [0, 2, 3]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("f, expected", [
        ([1e4, 2e4, 3e4], [0, 4, 4, 2, 2]),
        ([1e4, 1e4, 1e4], [1, 1, 1, 1, 1]),  # no frequency spread in any row
        ([0.3, 0.3, 0.3], [1, 1, 1, 1, 1]),  # equal, though f^2 does not average back
        ([1e-160, 2e-160, 3e-160], [4, 4, 4, 4, 4]),  # (f^2)^2 underflows
    ])
    @pytest.mark.filterwarnings("error")
    def test_lost_sums_refuse_their_rows(self, weighted, f, expected):
        # a falling row, rows whose sums of squares overflow and underflow,
        # and constant rows at the same scales, which are truly constant
        gains = np.array([[101.0, 100.0, 99.0], [3e-100, 2e-100, 1e-100],
                          [3e100, 2e100, 1e100], [1e-100] * 3, [1e100] * 3])
        *_, refusal = _fit_lines(*_roll_off_plane(np.array(f), gains)[:2], weighted)
        assert refusal.tolist() == expected
        assert "floating-point range" in _LINE_REFUSALS[3]

    @given(
        f0=st.floats(1e4, 1e10),
        g0=st.one_of(st.just(math.inf), st.floats(1.5, 1e7)),
        feedback_r=st.floats(0.1, 1e4),
        gain_r=st.floats(0.1, 1e4),
        # f_max over the loop's corner, as a power of ten, and f_min over f_max
        top_exp=st.floats(-2.0, 2.0),
        bottom=st.floats(1e-3, 1.0 - 1e-6),
        n_points=st.integers(3, 128),
        spacing=st.sampled_from(["linear", "log"]),
    )
    def test_lines_are_within_4_n_eps_kappa_of_a_40_digit_regression(
        self, f0, g0, feedback_r, gain_r, top_exp, bottom, n_points, spacing,
    ):
        """On a noiseless sweep of ``n`` points, the slope is within
        ``4*n*eps*kappa`` relative of the regression of the same floats at
        40 digits, and the intercept within that much of the line's top
        value ``v(f_max)``; ``kappa = v(f_max)/(v(f_max) - v(f_min))``.

        A sum of ``n`` terms rounds by at most ``n*eps`` relative, and the
        slope is the ratio of two sums of centred products.  Centring
        cancels all but ``1/kappa`` of ``v``, and of ``u = f^2`` too, since
        ``v`` rises with ``u`` from the intercept up.  The weights 1/v^2 add
        a few ``eps``.  The intercept ``v_bar - slope*u_bar`` adds the
        slope's error times ``slope*u_bar <= v(f_max)``."""
        dev = DeviceParams(f0=f0, g0=g0)
        topo = Topology(feedback_r=feedback_r, gain_r=gain_r)
        f_max = f0 * (topo.beta + dev.inv_g0) * 10.0**top_exp
        f = SweepPlan(bottom * f_max, f_max, n_points, spacing).frequencies()
        gains = np.array([abs(closed_loop_gain(dev, topo, float(x))) for x in f])
        u, v, in_range = _roll_off_plane(f, gains)
        assert in_range
        kappa = v[-1] / (v[-1] - v[0])
        bound = 4.0 * n_points * np.finfo(float).eps * kappa
        for weighted in (False, True):
            slope, intercept, _, refusal = _fit_lines(u, v[np.newaxis], weighted)
            assert refusal[0] == 0
            exact_slope, exact_intercept = regression_40_digits(u, v, weighted)
            assert abs(slope[0] - exact_slope) <= bound * exact_slope
            assert abs(intercept[0] - exact_intercept) <= bound * v[-1]

    def test_plane_names_the_rows_in_range(self):
        f = np.array([1e4, 2e4, 3e4])
        gains = np.array([[100.0, 90.0, 80.0], [100.0, 1e-200, 80.0], [1e200, 90.0, 80.0]])
        *_, in_range = _roll_off_plane(f, gains)
        assert in_range.tolist() == [True, False, False]
        with pytest.raises(FitError, match="out of floating-point range"):
            CrossoverFrequencyFit().fit(f, gains[1])


class TestOutOfRangeReadouts:
    @pytest.mark.filterwarnings("error")
    def test_deviation_out_of_range_is_refused(self):
        # a normal ideal intercept of 1e-300 against a fitted one near -8e138
        est = CrossoverFrequencyFit(Topology(feedback_r=1e150, gain_r=1.0))
        with pytest.raises(FitError, match="deviation .* out of floating-point range"):
            est.fit([1e4, 2e4, 3e4], [3e-70, 2e-70, 1e-70])
        assert fitted_attributes(est) == {}

    @pytest.mark.filterwarnings("error")
    def test_rows_are_refused_at_their_first_out_of_range_deviation(self):
        f = np.array([1e4, 2e4, 3e4])
        gains = np.array([[3.0, 2.0, 1.0], [3e-70, 2e-70, 1e-70], [3e-80, 2e-80, 1e-80]])
        *_, rel_dev, refusal = _fit_rows(f, gains, False, Topology(feedback_r=1e150, gain_r=1.0))
        assert np.isfinite(rel_dev[0]) and refusal[0] == 1
        assert "deviation" in refusal[1]

    @pytest.mark.parametrize("freqs,gains,resistors", [
        # the topology's prefactor times f_(1/n) overflows
        ([1e100, 2e100, 3e100], [100.0, 90.0, 40.0], (1e300, 1.0)),
        # the crossing's interpolation overflows
        ([1e100, 2e100, 3e100], [1e-100, 0.9e-100, 0.4e-100], ()),
        # f^2 underflows to zero, so the crossing is at zero
        ([1e-170, 2e-170, 3e-170], [2.0, 1.0, 0.5], ()),
    ])
    @pytest.mark.filterwarnings("error")
    def test_quick_f0_out_of_range_is_refused(self, freqs, gains, resistors):
        est = QuickCrossoverFit(n=2.0, topology=Topology(*resistors) if resistors else None)
        with pytest.raises(FitError, match="crossover frequency is out of floating-point range"):
            est.fit(freqs, gains)
        assert fitted_attributes(est) == {}
