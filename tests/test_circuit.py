"""Closed-form circuit model tests."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from opampfit import (
    DeviceParams,
    Topology,
    closed_loop_gain,
    quick_f0_general,
)

TWO_PI = 2.0 * math.pi
REPEATER = Topology(feedback_r=0.0, gain_r=math.inf)  # unity-gain voltage follower


def random_device_topology(rng):
    f0 = 10.0 ** rng.uniform(6.0, 9.0)
    feedback_r = 10.0 ** rng.uniform(1.0, 4.0)
    gain_r = 10.0 ** rng.uniform(0.0, 2.0)
    return DeviceParams(f0=f0), Topology(feedback_r=feedback_r, gain_r=gain_r)


class TestDeviceParams:
    def test_tau0_derived_from_f0(self):
        dev = DeviceParams(f0=39.6e6)
        assert dev.tau0 == 1.0 / (TWO_PI * 39.6e6)
        assert dev.tau0 * TWO_PI * dev.f0 == pytest.approx(1.0, rel=3e-16)

    def test_f0_derived_from_tau0(self):
        # the identity read backwards: 1/(2*pi*tau0) recovers the given f0
        dev = DeviceParams(f0=1.0e8, g0=1e5)
        assert dev.tau0 == pytest.approx(1.5915494309189535e-9, rel=1e-12)
        assert 1.0 / (TWO_PI * dev.tau0) == pytest.approx(dev.f0, rel=1e-12)
        assert dev.g0 == 1e5

    @pytest.mark.parametrize("kwargs", [dict(), dict(tau0=1e-9), dict(f0=1e6, tau0=1e-9)])
    def test_is_built_from_f0_only(self, kwargs):
        with pytest.raises(TypeError):
            DeviceParams(**kwargs)

    def test_stored_member_round_trips_bitwise(self):
        for f0 in (39.6e6, 97.73e6, 410e6, 46.6e6):
            dev = DeviceParams(f0=f0)
            assert dev.f0 == f0
            again = DeviceParams(f0=dev.f0)
            assert again.tau0 == dev.tau0
            via_tau = DeviceParams(f0=1.0 / (TWO_PI * dev.tau0))
            assert via_tau.tau0 == dev.tau0

    def test_product_identity_within_one_ulp(self):
        rng = np.random.default_rng(2)
        for f0 in 10.0 ** rng.uniform(3.0, 9.0, size=200):
            dev = DeviceParams(f0=float(f0))
            assert dev.tau0 * TWO_PI * dev.f0 == pytest.approx(1.0, rel=3e-16)

    def test_ideal_limit(self):
        dev = DeviceParams(f0=1e8)
        assert math.isinf(dev.g0)
        assert dev.inv_g0 == 0.0
        assert DeviceParams(f0=1e8, g0=1e5).inv_g0 == 1e-5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f0=0.0),
            dict(f0=-1e6),
            dict(f0=math.inf),
            dict(f0=math.nan),
            dict(f0=-math.inf),
            dict(f0=5e-324),  # tau0 overflows
            dict(f0=1e308),  # tau0 underflows to 0
            dict(f0=1e6, g0=1.0),
            dict(f0=1e6, g0=0.5),
            dict(f0=1e6, g0=-10.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DeviceParams(**kwargs)


class TestTopology:
    def test_beta_and_dc_gain(self):
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        assert topo.beta == pytest.approx(1.0 / 101.0, rel=1e-15)
        assert topo.ideal_dc_gain == 101.0
        assert not topo.is_repeater

    def test_repeater_normalization(self):
        # both encodings collapse to beta = 1
        assert Topology(feedback_r=0.0, gain_r=50.0).beta == 1.0
        assert Topology(feedback_r=100.0, gain_r=math.inf).beta == 1.0
        rep = Topology(feedback_r=0.0, gain_r=math.inf)
        assert rep.is_repeater and rep.beta == 1.0 and rep.ideal_dc_gain == 1.0

    def test_beta_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            _, topo = random_device_topology(rng)
            assert 0.0 < topo.beta <= 1.0
            assert topo.ideal_dc_gain == pytest.approx(1.0 / topo.beta, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(feedback_r=-1.0, gain_r=1.0),
            dict(feedback_r=math.inf, gain_r=1.0),
            dict(feedback_r=1.0, gain_r=0.0),
            dict(feedback_r=1.0, gain_r=-5.0),
            # beta is not positive: the resistor sum overflows, the ratio underflows
            dict(feedback_r=1e308, gain_r=1e308),
            dict(feedback_r=1e300, gain_r=1e-300),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Topology(**kwargs)


class TestClosedLoopGain:
    def test_dc_gain_ideal_device(self):
        # oracle: plain arithmetic on the resistor values
        dev = DeviceParams(f0=39.6e6)
        topo = Topology(feedback_r=1989.0, gain_r=20.1)
        g = closed_loop_gain(dev, topo, 0.0)
        assert g.imag == 0.0
        assert abs(g) == pytest.approx(1989.0 / 20.1 + 1.0, rel=1e-12)

    def test_repeater_at_f0(self):
        dev = DeviceParams(f0=1e8)
        g = closed_loop_gain(dev, REPEATER, 1e8)
        assert abs(g) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_finite_g0_dc(self):
        dev = DeviceParams(f0=1e8, g0=1e5)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        expected = 1.0 / (1.0 / 101.0 + 1e-5)
        assert abs(closed_loop_gain(dev, topo, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_frequency(self):
        dev = DeviceParams(f0=1e8)
        with pytest.raises(ValueError):
            closed_loop_gain(dev, REPEATER, -1.0)

    def test_strictly_decreasing_in_frequency(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dev, topo = random_device_topology(rng)
            freqs = np.sort(10.0 ** rng.uniform(2.0, 9.5, size=40))
            mags = [abs(closed_loop_gain(dev, topo, float(f))) for f in freqs]
            assert np.all(np.diff(mags) < 0.0)

    def test_finite_g0_dc_deviation_small(self):
        # g0 = 1e5 vs ideal shifts |Y(0)| by less than 0.11 % at gain 101
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        ideal = abs(closed_loop_gain(DeviceParams(f0=1e8), topo, 0.0))
        finite = abs(closed_loop_gain(DeviceParams(f0=1e8, g0=1e5), topo, 0.0))
        assert abs(ideal - finite) / ideal < 0.0011


def inverse_gain_squared(dev, topo, f):
    """1/|Y(f)|^2 of the closed-form gain: the ordinate of the fit plane."""
    return abs(closed_loop_gain(dev, topo, f)) ** -2.0


class TestInverseGainSquared:
    # the ideal device's closed-form gain lies on the straight line
    # 1/Y^2 = beta^2 + (f/f0)^2 in the (f^2, 1/Y^2) plane
    def test_dc_intercept(self):
        # oracle: plain arithmetic on the resistor values
        dev = DeviceParams(f0=39.6e6)
        topo = Topology(feedback_r=1989.0, gain_r=20.1)
        expected = 1.0 / (1989.0 / 20.1 + 1.0) ** 2
        assert inverse_gain_squared(dev, topo, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_feedback_fraction_at_f0(self):
        dev = DeviceParams(f0=2.5e7)
        topo = Topology(feedback_r=1e9, gain_r=1.0)  # beta ~ 1e-9, intercept ~ 1e-18
        assert inverse_gain_squared(dev, topo, 2.5e7) == pytest.approx(1.0, rel=1e-12)

    def test_matches_closed_loop_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dev, topo = random_device_topology(rng)
            f = 10.0 ** rng.uniform(3.0, 9.0)
            line = topo.beta**2 + (f / dev.f0) ** 2
            assert inverse_gain_squared(dev, topo, f) == pytest.approx(line, rel=1e-12)

    def test_slope_identity(self):
        # subtracting the intercept leaves exactly (f/f0)^2
        rng = np.random.default_rng(6)
        for _ in range(50):
            dev, topo = random_device_topology(rng)
            f = dev.f0 * 10.0 ** rng.uniform(-4.0, 1.0)
            diff = inverse_gain_squared(dev, topo, f) - inverse_gain_squared(dev, topo, 0.0)
            assert diff == pytest.approx((f / dev.f0) ** 2, rel=1e-9)


def root_found_fraction_point(dev, topo, n):
    """The frequency where the closed-form gain has dropped n-fold."""
    y0 = abs(closed_loop_gain(dev, topo, 0.0))
    return brentq(
        lambda f: abs(closed_loop_gain(dev, topo, f)) - y0 / n,
        1e3, 1e9, xtol=1e-6, rtol=8.9e-16,
    )


class TestQuickF0:
    def test_resistor_values_recover_f0(self):
        # oracle: invert the formula at the target crossover frequency
        topo = Topology(feedback_r=1989.0, gain_r=20.1)
        f_half = math.sqrt(3.0) * 39.6e6 / topo.ideal_dc_gain
        assert quick_f0_general(topo.ideal_dc_gain, 2.0, f_half) == pytest.approx(
            39.6e6, rel=1e-12)

    def test_prefactor_cancels(self):
        topo = Topology(feedback_r=math.sqrt(3.0) - 1.0, gain_r=1.0)
        assert quick_f0_general(topo.ideal_dc_gain, 2.0, 1e6) == pytest.approx(1e6, rel=1e-12)

    def test_against_root_found_half_gain_point(self):
        dev = DeviceParams(f0=9.773e7)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        f_half = root_found_fraction_point(dev, topo, 2.0)
        assert quick_f0_general(topo.ideal_dc_gain, 2.0, f_half) == pytest.approx(
            dev.f0, rel=1e-9)

    def test_repeater_against_root_found_fraction_points(self):
        # beta = 1: |Y| = 1/|1 + j*f/f0| drops n-fold at f0*sqrt(n^2 - 1)
        dev = DeviceParams(f0=9.773e7)
        for n in (math.sqrt(2.0), 2.0, 3.0):
            f_fraction = root_found_fraction_point(dev, REPEATER, n)
            assert quick_f0_general(REPEATER.ideal_dc_gain, n, f_fraction) == pytest.approx(
                dev.f0, rel=1e-9)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            quick_f0_general(101.0, 2.0, 0.0)


class TestQuickF0General:
    def test_sqrt2_case(self):
        # sqrt(n^2 - 1) reads one ulp above 1 at n = sqrt(2), so the -3 dB
        # relation dc_gain * f_3db holds to within two ulps
        topo = Topology(feedback_r=1000.0, gain_r=10.0)
        assert quick_f0_general(topo.ideal_dc_gain, math.sqrt(2.0), 1e6) == pytest.approx(
            topo.ideal_dc_gain * 1e6, rel=2.0 * 2.0**-52)

    @pytest.mark.parametrize("n", [1.0, 0.5, -2.0])
    def test_rejects_n_at_most_one(self, n):
        with pytest.raises(ValueError):
            quick_f0_general(101.0, n, 1e6)

    def test_repeater_is_the_relation_at_unit_dc_gain(self):
        # the repeater is refused nowhere: its DC gain is 1 and the relation
        # is the same one, at n = sqrt(2) as at any other n
        assert quick_f0_general(REPEATER.ideal_dc_gain, math.sqrt(2.0), 410e6) == \
            pytest.approx(410e6, rel=1e-15)
        assert quick_f0_general(REPEATER.ideal_dc_gain, 3.0, 410e6) == 410e6 / math.sqrt(8.0)

    def test_scale_covariance(self):
        topo = Topology(feedback_r=47.0, gain_r=3.3)
        one = quick_f0_general(topo.ideal_dc_gain, 3.0, 1.25e5)
        assert quick_f0_general(topo.ideal_dc_gain, 3.0, 2.5e5) == 2.0 * one

    def test_infinite_dc_gain_is_not_refused(self):
        # an ideal DC gain that overflowed is the estimator's refusal to make
        assert quick_f0_general(math.inf, 2.0, 1e6) == math.inf


class TestCrossoverFromMinus3db:
    """The -3 dB relation, ``f0 = dc_gain * f_3db``: the quick relation at
    ``n = sqrt(2)``, which reads ``sqrt(n^2 - 1)`` one ulp above 1."""

    def test_gain_101(self):
        topo = Topology(feedback_r=1000.0, gain_r=10.0)
        assert quick_f0_general(topo.ideal_dc_gain, math.sqrt(2.0), 1e6) == pytest.approx(
            101e6, rel=1e-12)

    def test_repeater_identity(self):
        # unity-gain case: crossover and -3 dB frequencies coincide
        topo = Topology(feedback_r=0.0, gain_r=10.0)
        assert quick_f0_general(topo.ideal_dc_gain, math.sqrt(2.0), 410e6) == pytest.approx(
            410e6, rel=1e-15)

    def test_equal_resistors_double(self):
        topo = Topology(feedback_r=220.0, gain_r=220.0)
        assert quick_f0_general(topo.ideal_dc_gain, math.sqrt(2.0), 5e6) == pytest.approx(
            10e6, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quick_f0_general(REPEATER.ideal_dc_gain, math.sqrt(2.0), 0.0)


def test_minus3db_gain_squared_mismatch():
    """The exact -3 dB point and the 1/sqrt(2) point differ in gain power by
    10**-0.3 - 0.5 ~ 1.19e-3; locate both numerically and check to three
    significant figures."""
    dev = DeviceParams(f0=9.773e7)
    topo = Topology(feedback_r=1000.0, gain_r=10.0)
    y0_sq = abs(closed_loop_gain(dev, topo, 0.0)) ** 2

    def power_ratio(f):
        return abs(closed_loop_gain(dev, topo, f)) ** 2 / y0_sq

    f_exact = brentq(lambda f: power_ratio(f) - 10.0**-0.3, 1e3, 1e9, rtol=8.9e-16)
    f_sqrt2 = brentq(lambda f: power_ratio(f) - 0.5, 1e3, 1e9, rtol=8.9e-16)
    assert f_exact < f_sqrt2
    mismatch = power_ratio(f_exact) - power_ratio(f_sqrt2)
    assert mismatch == pytest.approx(10.0**-0.3 - 0.5, rel=1e-9)
    assert abs(mismatch - 1.19e-3) < 5e-6  # 1.19e-3 to 3 significant figures
