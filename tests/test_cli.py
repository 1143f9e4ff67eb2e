"""Command-line interface tests, exercised through click's test runner."""

import contextlib
import gc
import io
import json
import math
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from opampfit import (
    CalibrationWarning,
    DeviceParams,
    FitError,
    RunConfig,
    SimulationError,
    SweepPlan,
    SweepRecord,
    Topology,
    add_gain_noise,
    closed_loop_gain,
    fit_f0,
    read_batch_file,
    read_sweep_file,
    run_sweep,
    write_batch_file,
    write_sweep_file,
)
from opampfit import cli, distribution
from opampfit.cli import MAX_TRIALS, main
from opampfit.distribution import batch_stats
from opampfit.simulate import MAX_DRIVE_SAMPLES, MAX_SWEEP_POINTS


def parse_metadata(comments) -> dict[str, str]:
    """The key/value pairs of '# key = value' comment lines."""
    pairs = (line.lstrip("#").partition("=") for line in comments)
    return {key.strip(): value.strip() for key, eq, value in pairs if eq}


@pytest.fixture
def runner():
    return CliRunner()


def assert_clean_failure(result, code):
    """The command exited with ``code`` and an error line, raising nothing."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert any(line.lower().startswith("error:") for line in result.stderr.splitlines())
    assert "Traceback" not in result.output


def parse_report(text):
    data = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            data[key.strip()] = value.strip()
    return data


class TestSynth:
    def test_writes_deterministic_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["synth", str(out), "--points", "16", "--seed", "42"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        first = out.read_bytes()
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert out.read_bytes() == first

    def test_default_gains_match_closed_form(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["synth", str(out), "--points", "16"])
        assert result.exit_code == 0, result.output
        record, comments = read_sweep_file(out)
        assert record.n_points == 16
        dev = DeviceParams(f0=97.73e6)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        low = abs(closed_loop_gain(dev, topo, 1e4))
        high = abs(closed_loop_gain(dev, topo, 1e5))
        assert record.gain[0] == pytest.approx(low, rel=1e-3)
        assert record.gain[-1] == pytest.approx(high, rel=1e-3)
        assert record.gain[0] == pytest.approx(100.9946, rel=1e-4)
        assert record.gain[-1] == pytest.approx(100.4649, rel=1e-4)
        assert any("truth_f0_hz" in line for line in comments)
        assert any("seed" in line for line in comments)

    def test_too_few_points_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", str(tmp_path / "s.csv"), "--points", "2"])
        assert result.exit_code == 2
        assert "n_points" in result.stderr

    def test_config_file_drives_synthesis(self, runner, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            '{"f0_hz": 39.6e6, "feedback_r_ohm": 1989.0, "gain_r_ohm": 20.1,'
            ' "n_points": 16, "f_min_hz": 1e4, "f_max_hz": 1e6}',
            encoding="utf-8",
        )
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["synth", str(out), "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        record, _ = read_sweep_file(out)
        oracle = abs(
            closed_loop_gain(DeviceParams(f0=39.6e6), Topology(1989.0, 20.1), 1e4)
        )
        assert record.gain[0] == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("field", ["settle_periods", "measure_periods"])
    def test_removed_window_fields_are_unknown(self, runner, tmp_path, field):
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"{field}": 4}}', encoding="utf-8")
        result = runner.invoke(main, ["synth", str(tmp_path / "s.csv"), "--config", str(cfg)])
        assert result.exit_code == 3
        assert "unknown config field" in result.stderr

    @pytest.mark.parametrize("command", ["synth", "mc"])
    @pytest.mark.parametrize("field", ["divider_r1_ohm", "divider_r2_ohm"])
    def test_removed_divider_fields_are_unknown(self, runner, tmp_path, command, field):
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"{field}": 10.0}}', encoding="utf-8")
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [command, str(out), "--config", str(cfg)])
        assert_clean_failure(result, 3)
        assert result.stderr.splitlines() == [f"error: unknown config field {field!r}"]
        assert not out.exists()

    def test_point_over_drive_cap_is_numeric_error(self, runner, tmp_path):
        # 16 steps per closed-loop time constant put one 23 Hz period of the
        # default loop at ~4.2 M steps: a drive just over the per-point cap
        rate = Topology(feedback_r=100.0, gain_r=1.0).beta / DeviceParams(f0=97.73e6).tau0
        samples = 2 * math.ceil(16 * (1.0 / 23.0) * rate) + 1
        assert MAX_DRIVE_SAMPLES < samples < 1.01 * MAX_DRIVE_SAMPLES
        out = tmp_path / "s.csv"
        result = runner.invoke(
            main, ["synth", str(out), "--fmin", "23", "--fmax", "1e5", "--points", "3"]
        )
        assert result.exit_code == 4
        assert "at 23 Hz" in result.stderr and f"{samples}-sample" in result.stderr
        assert not out.exists()

    def test_non_positive_noisy_gain_is_numeric_error(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["synth", str(out), "--points", "16", "--noise", "10"])
        assert result.exit_code == 4
        assert result.stderr.startswith("error: gain noise (sigma_rel 10.0) made the gain at ")
        assert "non-positive" in result.stderr and "Traceback" not in result.output
        assert not out.exists()


    def test_synth_header_carries_run_provenance(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["synth", str(out), "--points", "8", "--fmin", "2e4", "--fmax", "3e5",
                "--spacing", "log", "--seed", "6", "--noise", "1e-4"]
        assert runner.invoke(main, args).exit_code == 0
        meta = parse_metadata(read_sweep_file(out)[1])
        assert meta["generator"] == "opampfit synth"
        assert (meta["seed"], meta["sigma_rel"], meta["spacing"]) == ("6", "0.0001", "log")
        assert int(meta["n_points"]) == 8
        assert float(meta["f_min_hz"]) == 2e4 and float(meta["f_max_hz"]) == 3e5
        assert int(meta["steps_per_period"]) == 256
        assert int(meta["steps_per_tau"]) == 16


class TestFit:
    def test_round_trip_report(self, runner, tmp_path):
        # the truth embedded in the synthetic file's comment block is the
        # reference the fitted value is checked against
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "64"]).exit_code == 0
        _, comments = read_sweep_file(out)
        truth = float(parse_metadata(comments)["truth_f0_hz"])
        assert truth == 97.73e6
        result = runner.invoke(main, ["fit", str(out), "--R", "100", "--r", "1"])
        assert result.exit_code == 0, result.output
        report = parse_report(result.stdout)
        assert float(report["f0_hz"]) == pytest.approx(truth, rel=1e-4)
        assert float(report["f0_mhz"]) == pytest.approx(truth / 1e6, rel=1e-4)
        assert float(report["corr"]) >= 0.999999
        assert float(report["intercept_expected"]) == pytest.approx(101.0**-2, rel=1e-4)
        assert abs(float(report["intercept_rel_dev"])) < 1e-6

    def test_parse_error_names_row(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "frequency_hz,gain\n1000.0,10.0\n3000.0,9.0\n2000.0,8.0\n", encoding="utf-8"
        )
        result = runner.invoke(main, ["fit", str(bad)])
        assert result.exit_code == 3
        assert ":4:" in result.stderr

    def test_unresolved_rolloff_is_numeric_error(self, runner, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "frequency_hz,gain\n1000.0,10.0\n2000.0,10.0\n3000.0,10.0\n", encoding="utf-8"
        )
        result = runner.invoke(main, ["fit", str(flat)])
        assert result.exit_code == 4
        assert "roll-off" in result.stderr

    def test_topology_flags_must_pair(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "16"]).exit_code == 0
        result = runner.invoke(main, ["fit", str(out), "--R", "100"])
        assert result.exit_code == 2

    def test_plot_data_emission(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "32"]).exit_code == 0
        plot_dir = tmp_path / "plots"
        result = runner.invoke(main, ["fit", str(out), "--plot-data", str(plot_dir)])
        assert result.exit_code == 0, result.output
        report = parse_report(result.stdout)
        points = (plot_dir / "fit_points.csv").read_text(encoding="utf-8").splitlines()
        line = (plot_dir / "fit_line.csv").read_text(encoding="utf-8").splitlines()
        assert points[0] == "f_squared_hz2,inv_gain_squared"
        assert len(points) == 33
        assert line[0] == "f_squared_hz2,inv_gain_squared"
        assert len(line) == 257
        # fitted line endpoints reproduce intercept + slope * u
        slope = float(report["slope_per_hz2"])
        intercept = float(report["intercept"])
        u0, v0 = (float(tok) for tok in line[1].split(","))
        assert v0 == pytest.approx(intercept + slope * u0, rel=1e-6)

    def test_miscalibrated_gain_warns(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "16"]).exit_code == 0
        record, _ = read_sweep_file(out)
        doubled = tmp_path / "doubled.csv"
        write_sweep_file(
            doubled,
            SweepRecord(record.frequency_hz, record.gain * 2.0),
            (),
        )
        result = runner.invoke(main, ["fit", str(doubled), "--R", "100", "--r", "1"])
        assert result.exit_code == 0
        assert "calibration" in result.stderr.lower() or "suspect" in result.stderr.lower()

    def test_only_calibration_warnings_are_reported(self, runner, tmp_path, monkeypatch):
        # under the suite's "error" filter the RuntimeWarning would end the
        # fit before the command could misreport it
        def leaky_fit(record, weighted=False):
            warnings.warn("overflow encountered in divide", RuntimeWarning)
            warnings.warn("fitted intercept deviates", CalibrationWarning)
            return fit_f0(record, weighted)

        out = tmp_path / "sweep.csv"
        write_sweep_file(out, SweepRecord([1e4, 2e4, 3e4], [101.0, 100.0, 98.0]))
        monkeypatch.setattr(cli, "fit_f0", leaky_fit)
        with warnings.catch_warnings(record=True) as passed_on:
            warnings.simplefilter("default")
            result = runner.invoke(main, ["fit", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == ["warning: fitted intercept deviates"]
        assert [(w.category, str(w.message)) for w in passed_on] == [
            (RuntimeWarning, "overflow encountered in divide")]


class TestQuick:
    def test_agrees_with_fit(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["synth", str(out), "--points", "256", "--fmax", "3e6"]
        assert runner.invoke(main, args).exit_code == 0
        fit_result = runner.invoke(main, ["fit", str(out)])
        quick_result = runner.invoke(main, ["quick", str(out), "--n", "2"])
        assert quick_result.exit_code == 0, quick_result.output
        f0_fit = float(parse_report(fit_result.stdout)["f0_hz"])
        quick_report = parse_report(quick_result.stdout)
        f0_quick = float(quick_report["f0_hz"])
        assert abs(f0_quick - f0_fit) / f0_fit < 1e-3
        assert "bracket_below" in quick_report and "bracket_above" in quick_report

    def test_bad_ratio_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "16"]).exit_code == 0
        result = runner.invoke(main, ["quick", str(out), "--n", "0.5"])
        assert result.exit_code == 2

    def test_topology_flags_must_pair(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "16"]).exit_code == 0
        result = runner.invoke(main, ["quick", str(out), "--R", "100"])
        assert result.exit_code == 2

    def test_narrow_sweep_reports_attainable_n(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        assert runner.invoke(main, ["synth", str(out), "--points", "64"]).exit_code == 0
        result = runner.invoke(main, ["quick", str(out), "--n", "2"])
        assert result.exit_code == 4
        assert "too narrow" in result.stderr
        assert result.stderr.count("largest attainable n") == 1


class TestBatch:
    def test_three_value_batch(self, runner, tmp_path):
        path = tmp_path / "batch.csv"
        write_batch_file(path, ["a", "b", "c"], [1e6, 2e6, 3e6])
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 0, result.output
        report = parse_report(result.stdout)
        assert float(report["mean_hz"]) == 2e6
        assert float(report["mean_mhz"]) == 2.0
        assert float(report["stddev_hz"]) == 1e6

    def test_degenerate_batch_message(self, runner, tmp_path):
        path = tmp_path / "batch.csv"
        write_batch_file(path, ["a", "b"], [5e6, 5e6])
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 0
        assert "degenerate batch" in result.stdout
        assert "cdf_corr" not in result.stdout

    @pytest.mark.filterwarnings("error")
    def test_equal_values_are_degenerate_whatever_the_mean_rounding(self, runner, tmp_path):
        path = tmp_path / "batch.csv"
        write_batch_file(path, list("abcde"), [429496730.4095121] * 5)
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 0, result.output
        assert "stddev_hz = 0\n" in result.stdout and "degenerate batch" in result.stdout

    def test_seeded_normal_batch_report(self, runner, tmp_path):
        rng = np.random.default_rng(777)
        samples = rng.normal(97.73e6, 1.62e6, 400)
        path = tmp_path / "batch.csv"
        write_batch_file(path, [str(i + 1) for i in range(400)], samples)
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 0, result.output
        report = parse_report(result.stdout)
        assert int(report["n"]) == 400
        assert abs(float(report["stddev_over_mean_pct"]) - 1.66) <= 0.2
        assert float(report["cdf_corr"]) >= 0.996
        assert float(report["kolmogorov_d_sqrt_n"]) < 1.358

    def test_plot_data_emission(self, runner, tmp_path):
        rng = np.random.default_rng(123)
        path = tmp_path / "batch.csv"
        write_batch_file(path, [str(i) for i in range(50)], rng.normal(1e8, 1e6, 50))
        plot_dir = tmp_path / "plots"
        result = runner.invoke(main, ["batch", str(path), "--plot-data", str(plot_dir)])
        assert result.exit_code == 0
        ecdf_lines = (plot_dir / "ecdf.csv").read_text(encoding="utf-8").splitlines()
        cdf_lines = (plot_dir / "normal_cdf.csv").read_text(encoding="utf-8").splitlines()
        assert ecdf_lines[0] == "deviation_sigma,probability"
        assert len(ecdf_lines) == 51
        assert len(cdf_lines) == 257
        last_x, last_p = (float(t) for t in ecdf_lines[-1].split(","))
        assert last_p == 1.0

    def test_reads_the_batch_moments_once(self, runner, tmp_path, monkeypatch):
        def second_pass(*args, **kwargs):
            raise AssertionError("batch computed its moments twice")

        monkeypatch.setattr(cli, "batch_stats", second_pass)
        path = tmp_path / "batch.csv"
        write_batch_file(path, ["a", "b", "c"], [1e6, 2e6, 3e6])
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 0, result.output
        assert "cdf_corr = " in result.stdout

    @pytest.mark.parametrize("size", [400, 10_000])
    def test_report_matches_the_scipy_erf_reference(self, runner, tmp_path, monkeypatch, size):
        # normal_reference_cdf uses math.erf, which may differ from scipy's
        # erf in the last bit; the printed statistics must not
        from scipy.special import erf

        rng = np.random.default_rng(size)
        path = tmp_path / "batch.csv"
        write_batch_file(path, [str(i + 1) for i in range(size)],
                         rng.normal(97.73e6, 1.62e6, size))
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 0, result.output
        def scipy_normal_cdf(x):
            return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / math.sqrt(2.0)))

        monkeypatch.setattr(distribution, "normal_reference_cdf", scipy_normal_cdf)
        reference = runner.invoke(main, ["batch", str(path)])
        assert reference.exit_code == 0, reference.output
        assert result.stdout == reference.stdout

    def test_parse_error_exit_code(self, runner, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text("sample_id,f0_hz\na,1e6\na,2e6\n", encoding="utf-8")
        result = runner.invoke(main, ["batch", str(path)])
        assert result.exit_code == 3
        assert "duplicate" in result.stderr


class TestMc:
    def test_single_trial_batch(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        result = runner.invoke(
            main, ["mc", str(out), "--trials", "1", "--points", "16", "--seed", "3"]
        )
        assert result.exit_code == 0, result.output
        ids, values, _ = read_batch_file(out)
        assert ids == ["1"]
        assert values.size == 1
        assert values[0] == pytest.approx(97.73e6, rel=1e-3)

    def test_deterministic_and_reports_pass_fraction(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        args = [
            "mc", str(out), "--trials", "3", "--points", "16", "--seed", "4",
            "--noise", "1e-4", "--corr-threshold", "0.9993",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        report = parse_report(result.stdout)
        assert 0.0 <= float(report["corr_pass_fraction"]) <= 1.0
        assert float(report["corr_threshold"]) == 0.9993
        first = out.read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert out.read_bytes() == first

    def test_matches_per_trial_synth_and_fit(self, runner, tmp_path):
        # oracle: simulate the noisy sweep from scratch for every trial
        out = tmp_path / "mc.csv"
        args = ["mc", str(out), "--trials", "3", "--points", "16", "--seed", "4",
                "--noise", "1e-4"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        dev = DeviceParams(f0=97.73e6)
        topo = Topology(feedback_r=100.0, gain_r=1.0)
        plan = SweepPlan(1e4, 1e5, 16)
        oracle = [
            fit_f0(add_gain_noise(run_sweep(dev, topo, plan), 1e-4, (4, trial))).f0_hz_
            for trial in range(3)
        ]
        ids, values, _ = read_batch_file(out)
        assert ids == ["1", "2", "3"]
        assert values.tolist() == oracle

    def test_header_carries_run_provenance(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        args = ["mc", str(out), "--trials", "2", "--points", "8", "--fmin", "2e4",
                "--fmax", "3e5", "--spacing", "log", "--R", "1989", "--r", "20.1",
                "--seed", "6", "--noise", "1e-4"]
        assert runner.invoke(main, args).exit_code == 0
        _, _, comments = read_batch_file(out)
        meta = parse_metadata(comments)
        assert meta["generator"] == "opampfit mc"
        assert (meta["seed"], meta["trials"], meta["sigma_rel"]) == ("6", "2", "0.0001")
        assert int(meta["n_points"]) == 8
        assert float(meta["f_min_hz"]) == 2e4 and float(meta["f_max_hz"]) == 3e5
        assert meta["spacing"] == "log"
        assert float(meta["feedback_r_ohm"]) == 1989.0
        assert float(meta["gain_r_ohm"]) == 20.1
        assert float(meta["g0"]) == math.inf
        assert int(meta["steps_per_period"]) == 256
        assert int(meta["steps_per_tau"]) == 16

    def test_simulation_error_is_not_a_trial_error(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        result = runner.invoke(main, ["mc", str(out), "--fmin", "23"])
        assert result.exit_code == 4
        assert result.stderr.startswith("error: at 23 Hz")
        assert "trial" not in result.stderr
        assert not out.exists()

    def test_fit_error_names_its_trial(self, runner, tmp_path):
        # three points 100 Hz apart leave the roll-off below the noise, and
        # trial 2 of seed 1 fits a non-positive slope
        out = tmp_path / "mc.csv"
        args = ["mc", str(out), "--trials", "5", "--points", "3", "--fmax", "1.01e4",
                "--noise", "1e-3", "--seed", "1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert result.stderr.startswith("error: trial 2: sweep does not resolve roll-off")
        assert not out.exists()

    def test_non_positive_noisy_gain_names_its_trial(self, runner, tmp_path):
        out = tmp_path / "mc.csv"
        args = ["mc", str(out), "--trials", "3", "--points", "16", "--noise", "10"]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert result.stderr.startswith("error: trial 0: gain noise (sigma_rel 10.0) made ")
        assert "non-positive" in result.stderr
        assert not out.exists()

    def test_calibration_warnings_name_their_trial(self, runner, tmp_path):
        # trial 0 of seed 14 fits an intercept far from the topology's value;
        # trial 2 then fails to resolve the roll-off
        out = tmp_path / "mc.csv"
        args = ["mc", str(out), "--trials", "5", "--points", "3", "--fmax", "1.01e4",
                "--noise", "1e-3", "--seed", "14"]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        lines = result.stderr.splitlines()
        assert lines[0].startswith("warning: trial 0: fitted intercept deviates")
        assert lines[-1].startswith("error: trial 2: ")
        assert all(line.startswith(("warning: trial ", "error: ")) for line in lines)
        assert "CalibrationWarning:" not in result.stderr
        assert ".py:" not in result.stderr

    def test_too_many_points_refused_before_simulating(self, runner, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called for a refused plan")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "mc.csv"
        points = str(MAX_SWEEP_POINTS + 1)
        assert points == "65537"
        for command in ("mc", "synth"):
            result = runner.invoke(main, [command, str(out), "--points", points])
            assert result.exit_code == 2
            assert "n_points" in result.stderr and points in result.stderr
        assert not out.exists()

    def test_too_many_trials_refused_before_simulating(self, runner, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called for a refused trial count")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "mc.csv"
        assert MAX_TRIALS == 2**20
        for trials in (MAX_TRIALS + 1, 10**12):
            result = runner.invoke(main, ["mc", str(out), "--trials", str(trials), "--points",
                                          "32", "--noise", "3e-4"])
            assert result.exit_code == 2
            assert "--trials" in result.stderr and "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "mc"])
    def test_noisy_header_names_the_noise_stream(self, runner, tmp_path, command):
        noisy, clean = tmp_path / "noisy.csv", tmp_path / "clean.csv"
        args = ["--points", "8", "--seed", "2"]
        assert runner.invoke(main, [command, str(noisy), *args, "--noise", "1e-4"]).exit_code == 0
        assert runner.invoke(main, [command, str(clean), *args]).exit_code == 0
        read = read_batch_file if command == "mc" else read_sweep_file
        assert parse_metadata(read(noisy)[-1])["noise_stream"] == "per-record"
        assert "noise_stream" not in parse_metadata(read(clean)[-1])

    def test_full_pipeline_reproduces_device_spread(self, runner, tmp_path):
        """End-to-end: 400 noisy synth+fit trials tuned for a ~1.66 %
        fitted-f0 spread feed the batch analysis, which must look normal."""
        out = tmp_path / "mc.csv"
        result = runner.invoke(
            main,
            [
                "mc", str(out), "--trials", "400", "--points", "32",
                "--noise", "3.23e-4", "--seed", "5",
            ],
        )
        assert result.exit_code == 0, result.output
        report = parse_report(result.stdout)
        spread_pct = float(report["spread_over_mean_pct"])
        assert abs(spread_pct - 1.66) <= 0.3
        batch_result = runner.invoke(main, ["batch", str(out)])
        assert batch_result.exit_code == 0, batch_result.output
        batch_report = parse_report(batch_result.stdout)
        assert float(batch_report["cdf_corr"]) >= 0.99
        assert int(batch_report["n"]) == 400


def per_trial_mc(output, trials, cfg, corr_threshold):
    """``mc`` as a loop over trials, each drawn with ``add_gain_noise`` and
    fitted with ``fit_f0``, its calibration warnings echoed: returns the exit
    code, stdout and stderr, and writes the batch file on success."""
    try:
        clean = run_sweep(cfg.device, cfg.topology, cfg.plan, cfg=cfg.sim)
    except SimulationError as err:
        return 4, "", f"error: {err}\n"
    stderr, values, corr_pass = [], [], 0
    for trial in range(trials):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CalibrationWarning)
            try:
                result = fit_f0(add_gain_noise(clean, cfg.sigma_rel, (cfg.seed, trial)))
            except (SimulationError, FitError) as err:
                stderr.append(f"error: trial {trial}: {err}")
                return 4, "", "".join(line + "\n" for line in stderr)
        stderr += [f"warning: trial {trial}: {w.message}" for w in caught]
        values.append(result.f0_hz_)
        corr_pass += result.corr_ >= corr_threshold
    write_batch_file(output, [str(trial + 1) for trial in range(trials)], values,
                     cli._provenance("mc", cfg, trials=trials))
    stdout = [f"trials = {trials}"]
    if trials >= 2:
        mean, spread = batch_stats(np.array(values))
        stdout += [f"mean_f0_hz = {mean:.6g}", f"stddev_f0_hz = {spread:.6g}",
                   f"spread_over_mean_pct = {100.0 * spread / mean:.6g}"]
    else:
        stdout.append(f"mean_f0_hz = {values[0]:.6g}")
    stdout += [f"corr_threshold = {corr_threshold:.6g}",
               f"corr_pass_fraction = {corr_pass / trials:.6g}", f"wrote {output}"]
    return 0, "".join(line + "\n" for line in stdout), "".join(line + "\n" for line in stderr)


MC_FLAGS = {"n_points": "--points", "sigma_rel": "--noise", "seed": "--seed",
            "f_max_hz": "--fmax", "feedback_r_ohm": "--R", "gain_r_ohm": "--r"}


def assert_mc_matches_per_trial_loop(tmp_path, trials, corr_threshold, fields):
    """``mc`` with ``fields`` (RunConfig names; ``g0`` goes through --config)
    prints, exits and writes exactly what :func:`per_trial_mc` does."""
    argv = ["mc", "mc.csv", "--trials", str(trials), "--corr-threshold", repr(corr_threshold)]
    for name, value in fields.items():
        argv += [MC_FLAGS[name], repr(value)] if name in MC_FLAGS else []
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        if "g0" in fields:
            Path("run.json").write_text(json.dumps({"g0": fields["g0"]}))
            argv += ["--config", "run.json"]
        result = runner.invoke(main, argv)
        written = Path("mc.csv").read_bytes() if Path("mc.csv").exists() else None
    cfg = replace(RunConfig(), **fields)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        expected = per_trial_mc("mc.csv", trials, cfg, corr_threshold)
        expected_written = Path("mc.csv").read_bytes() if Path("mc.csv").exists() else None
    assert (result.exit_code, result.stdout, result.stderr) == expected
    assert written == expected_written
    return result


TOPOLOGY_FIELDS = st.sampled_from([
    {}, {}, {}, {"feedback_r_ohm": 1989.0, "gain_r_ohm": 20.1},
    # a loop that a finite g0 keeps simulable, but whose ideal intercept underflows
    {"feedback_r_ohm": 1e200, "gain_r_ohm": 1.0, "g0": 1e5},
])


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    trials=st.integers(1, 12),
    corr_threshold=st.sampled_from([0.999, 0.9993, 0.0, -1.0, 1.0]),
    fields=st.fixed_dictionaries(
        {"n_points": st.one_of(st.just(3), st.integers(3, 48)),
         "sigma_rel": st.sampled_from([0.0, 1e-4, 3.23e-4, 1e-3, 3e-3, 0.3, 10.0]),
         "seed": st.integers(0, 2**128)},
        optional={"f_max_hz": st.sampled_from([1.01e4, 1.01e4, 1e6, 3e7]),
                  "g0": st.sampled_from([1e5])},
    ).flatmap(lambda fields: TOPOLOGY_FIELDS.map(lambda topology: {**fields, **topology})),
)
# the plans that refuse a noisy gain, fail a fit, and warn before failing
@example(trials=3, corr_threshold=0.999, fields={"n_points": 16, "sigma_rel": 10.0, "seed": 0})
@example(trials=5, corr_threshold=0.999,
         fields={"n_points": 3, "sigma_rel": 1e-3, "seed": 1, "f_max_hz": 1.01e4})
@example(trials=5, corr_threshold=0.999,
         fields={"n_points": 3, "sigma_rel": 1e-3, "seed": 14, "f_max_hz": 1.01e4})
def test_mc_equals_a_per_trial_loop(tmp_path, trials, corr_threshold, fields):
    assert_mc_matches_per_trial_loop(tmp_path, trials, corr_threshold, fields)


@pytest.mark.parametrize("trials,fields,first_failing,warns_in_both_blocks", [
    # 2^16 points make blocks of 16 trials: a run that fits two blocks, one
    # whose first noise refusal opens the second block, one refused by
    # noise and one by the fit inside it
    (20, {"sigma_rel": 0.2, "f_max_hz": 3e7, "seed": 3}, None, True),
    (24, {"sigma_rel": 0.2, "f_max_hz": 3e7, "seed": 0}, 16, False),
    (24, {"sigma_rel": 0.2, "f_max_hz": 3e7, "seed": 7}, 23, True),
    (24, {"sigma_rel": 5e-5, "f_max_hz": 1.01e4, "seed": 11}, 22, False),
])
def test_mc_blocks_keep_the_per_trial_order(tmp_path, trials, fields, first_failing,
                                            warns_in_both_blocks):
    fields = {"n_points": 2**16, **fields}
    assert cli._MC_BLOCK_GAINS // fields["n_points"] == 16
    result = assert_mc_matches_per_trial_loop(tmp_path, trials, 0.999, fields)
    lines = result.stderr.splitlines()
    if first_failing is None:
        assert result.exit_code == 0
    else:
        assert lines[-1].startswith(f"error: trial {first_failing}: ")
    warned = [int(line.split()[2].rstrip(":")) for line in lines if line.startswith("warning")]
    assert (min(warned, default=16) < 16 <= max(warned, default=0)) == warns_in_both_blocks


@pytest.mark.parametrize("argv", [["mc", "mc.csv", "--trials", "2", "--points", "8"],
                                  ["mc", "mc.csv", "--trials", "2", "--noise", "10"]])
def test_in_process_runs_release_their_output_streams(tmp_path, monkeypatch, argv):
    # a command run in process with swapped streams must not keep them (and
    # the output they hold) alive once the caller drops them
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit):
            main.main(argv, standalone_mode=True)
    assert out.getvalue() or err.getvalue()
    streams = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in streams] == [None, None]


@pytest.mark.parametrize("argv,builds", [
    # the --config file builds the run's parts once, and no flag rebuilds them
    (["synth", "out.csv", "--config", "run.json"], 1),
    # the defaults build them once, and the flags laid over them once more
    (["mc", "out.csv", "--points", "8", "--trials", "2"], 2),
])
def test_run_parts_are_built_once_per_configuration(runner, tmp_path, monkeypatch, argv,
                                                    builds):
    built = []
    check = SweepPlan.__post_init__

    def counted(plan):
        built.append(plan)
        check(plan)

    monkeypatch.setattr(SweepPlan, "__post_init__", counted)
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text('{"n_points": 8}', encoding="utf-8")
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert len(built) == builds


class TestExitCodes:
    @pytest.mark.parametrize("flags,fields", [
        (["--R", "-1"], {"feedback_r_ohm": -1.0}),
        (["--r", "0"], {"gain_r_ohm": 0.0}),
        (["--points", "2"], {"n_points": 2}),
        (["--noise", "-1"], {"sigma_rel": -1.0}),
        (["--fmin", "inf"], {"f_min_hz": math.inf}),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    @pytest.mark.parametrize("command", ["synth", "mc"])
    def test_a_bad_flag_is_a_usage_error_and_a_bad_field_a_parse_error(
            self, runner, tmp_path, command, flags, fields):
        out, config = tmp_path / "out.csv", tmp_path / "run.json"
        config.write_text(json.dumps(fields), encoding="utf-8")
        by_flag = runner.invoke(main, [command, str(out), *flags])
        by_field = runner.invoke(main, [command, str(out), "--config", str(config)])
        assert_clean_failure(by_flag, 2)
        assert_clean_failure(by_field, 3)
        # the same text, as click's usage error and as the parse error line
        (message,) = by_field.stderr.splitlines()
        assert by_flag.stderr.splitlines()[-1] == "Error: " + message.removeprefix("error: ")
        assert not out.exists()

    def test_usage_parse_and_numeric_codes_are_distinct(self, runner, tmp_path):
        usage = runner.invoke(main, ["quick"])  # missing argument
        assert usage.exit_code == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n", encoding="utf-8")
        parse = runner.invoke(main, ["fit", str(bad)])
        assert parse.exit_code == 3
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "frequency_hz,gain\n1.0,2.0\n2.0,2.0\n3.0,2.0\n", encoding="utf-8"
        )
        numeric = runner.invoke(main, ["fit", str(flat)])
        assert numeric.exit_code == 4
        assert len({usage.exit_code, parse.exit_code, numeric.exit_code, 0}) == 4


PROBE_FILES = {
    "sweep.csv": b"frequency_hz,gain\n1e4,100.0\n2e4,90.0\n3e4,50.0\n",
    "latin1.csv": b"frequency_hz,gain\n1e4,100.0\n# caf\xe9\n",
    "latin1_batch.csv": b"sample_id,f0_hz\n# caf\xe9\n",
    "ratio.csv": b"frequency_hz,u_in_v,u_out_v\n1.0,1e-300,1e300\n2.0,1,1\n3.0,1,1\n",
    "tiny.csv": b"frequency_hz,gain\n1.0,1e-200\n2.0,0.9e-200\n3.0,0.5e-200\n",
    "huge_batch.csv": b"sample_id,f0_hz\na,1e308\nb,1.7e308\nc,1e308\n",
    "b3.csv": b"sample_id,f0_hz\na,9.7e7\nb,9.8e7\nc,9.6e7\n",
    "tiny_f0.json": b'{"f0_hz": 1e-320}',
    "inf_fmax.json": b'{"f_max_hz": Infinity}',
    "huge_r.json": b'{"feedback_r_ohm": 1e308, "gain_r_ohm": 1e308}',
    "small_gain.csv": b"frequency_hz,gain\n1e4,3e-100\n2e4,2e-100\n3e4,1e-100\n",
    "large_gain.csv": b"frequency_hz,gain\n1e4,3e100\n2e4,2e100\n3e4,1e100\n",
    "large_freq.csv": b"frequency_hz,gain\n1e150,3\n2e150,2\n3e150,1\n",
    "tiny_line.csv": b"frequency_hz,gain\n1e4,3e-70\n2e4,2e-70\n3e4,1e-70\n",
    "huge_freq.csv": b"frequency_hz,gain\n1e100,100\n2e100,90\n3e100,40\n",
    "huge_plane.csv": b"frequency_hz,gain\n1e100,1e-100\n2e100,0.9e-100\n3e100,0.4e-100\n",
    "tiny_freq.csv": b"frequency_hz,gain\n1e-170,2\n2e-170,1\n3e-170,0.5\n",
    "deep_drop.csv": b"frequency_hz,gain\n1,1e10\n2,1e-100\n3,1e-151\n",
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
    "long_int.json": b'{"seed": ' + b"1" * 5001 + b"}",
    "latin1.json": b'{"f0_hz": 1e8, "spacing": "caf\xe9"}',
}


PROBES = [
    (["quick", "sweep.csv", "--n", "1e200"], 4),
    (["fit", "sweep.csv", "--R", "-5", "--r", "1"], 2),
    (["fit", "sweep.csv", "--R", "100", "--r", "0"], 2),
    (["quick", "sweep.csv", "--R", "-5", "--r", "1"], 2),
    # a flag that makes the run's configuration bad is a usage error, and
    # the same value in the --config file a parse error
    (["synth", "out.csv", "--fmax", "inf"], 2),
    (["synth", "out.csv", "--config", "inf_fmax.json"], 3),
    (["synth", "out.csv", "--noise", "1e308"], 4),
    (["mc", "out.csv", "--noise", "1e308"], 4),
    (["synth", "out.csv", "--points", "3", "--fmin", "1e-320", "--fmax", "1e-319"], 4),
    (["fit", "latin1.csv"], 3),
    (["batch", "latin1_batch.csv"], 3),
    (["fit", "ratio.csv"], 3),
    (["fit", "tiny.csv"], 4),
    (["quick", "tiny.csv"], 4),
    (["batch", "huge_batch.csv"], 4),
    (["synth", "missing/out.csv", "--points", "8"], 3),
    (["mc", "missing/out.csv", "--points", "8", "--trials", "2"], 3),
    (["synth", "out.csv", "--points", "3", "--noise", "1e308", "--seed", "2"], 4),
    (["synth", "out.csv", "--points", "3", "--fmin", "1e307", "--fmax", "1e308"], 4),
    (["fit", "sweep.csv", "--plot-data", "sweep.csv/sub"], 3),
    (["batch", "b3.csv", "--plot-data", "b3.csv/sub"], 3),
    # found by the generated-call property below
    (["synth", "out.csv", "--R", "1e308", "--r", "1e308"], 2),
    (["synth", "out.csv", "--config", "huge_r.json"], 3),
    (["synth", "out.csv", "--config", "tiny_f0.json"], 3),
    (["synth", "out.csv", "--fmin", "1e-320", "--r", "1e-320"], 4),
    (["synth", "out.csv", "--fmax", "1.7976931348623157e308"], 4),
    (["fit", "sweep.csv", "--R", "0.001", "--r", "1.2442072448496355e-203"], 4),
    # the plane is in range but the regression's sums of squares are not
    (["fit", "small_gain.csv"], 4),
    (["fit", "small_gain.csv", "--weighted"], 4),
    (["fit", "large_gain.csv"], 4),
    (["fit", "large_gain.csv", "--weighted"], 4),
    (["fit", "large_freq.csv"], 4),
    (["fit", "large_freq.csv", "--weighted"], 4),
    # the ideal intercept is subnormal, and the fitted one's deviation from
    # a normal 1e-300 overflows
    (["fit", "sweep.csv", "--R", "1e155", "--r", "1"], 4),
    (["fit", "sweep.csv", "--R", "1e160", "--r", "1"], 4),
    (["fit", "tiny_line.csv", "--R", "1e150", "--r", "1"], 4),
    # quick's f0 overflows: the prefactor times f_(1/n), and the crossing
    (["quick", "huge_freq.csv", "--n", "2", "--R", "1e300", "--r", "1"], 4),
    (["quick", "huge_plane.csv"], 4),
    # quick's f0 underflows to zero: f^2 at the crossing, and n^2 overflowing
    (["quick", "tiny_freq.csv"], 4),
    (["quick", "deep_drop.csv", "--n", "1e160"], 4),
    # a correlation lies in [-1, 1], so no other threshold means anything
    (["mc", "out.csv", "--trials", "1", "--corr-threshold", "inf"], 2),
    (["mc", "out.csv", "--trials", "1", "--corr-threshold", "nan"], 2),
    (["mc", "out.csv", "--trials", "1", "--corr-threshold", "1.5"], 2),
    # config files that JSON's decoder refuses past its syntax errors
    (["synth", "out.csv", "--config", "deep.json"], 3),
    (["synth", "out.csv", "--config", "long_int.json"], 3),
    (["mc", "out.csv", "--config", "latin1.json"], 3),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,code", PROBES, ids=[" ".join(argv) for argv, _ in PROBES])
def test_bad_input_exits_with_documented_code(runner, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    for name, data in PROBE_FILES.items():
        (tmp_path / name).write_bytes(data)
    assert_clean_failure(runner.invoke(main, argv), code)


# The CLI contract over generated input: a subcommand with its flags (numbers
# drawn to include non-finite, zero, negative, tiny and huge values), an
# optional --config JSON and the bytes of the input file.  --points, --trials
# and the config's n_points stay at most 64 (or far over the plan bound, which
# is refused before any work), so every run fits the budget below.
BUDGET_S = 5.0

NUMBER = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-320, 1e-3, 1.0, 2.0, 23.0, 1e4, 1e5, 3e6, 1e150, 1e155,
                     1e160, 1e307, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)
POINTS = st.one_of(st.integers(-1, 64), st.sampled_from([MAX_SWEEP_POINTS + 1, 10**30]))
OUTPUT = st.sampled_from(["out.csv", "out.csv", "out.csv", "missing/out.csv", "in.csv/out.csv"])
PLOT_DIR = st.sampled_from(["plots", "in.csv/sub"])

CONFIG_VALUE = st.one_of(NUMBER, st.integers(-2, 10**6), st.none(), st.booleans(),
                         st.sampled_from(["inf", "log", "linear", ""]))
CONFIG = st.one_of(
    st.binary(max_size=40),
    # nesting past the decoder's recursion limit, an integer past int()'s
    # digit limit, and a byte that is not UTF-8 inside a valid object
    st.sampled_from([b"[" * 100_000 + b"]" * 100_000, b'{"seed": ' + b"1" * 5001 + b"}",
                     b'{"n_points": 8, "spacing": "lin\xffear"}']),
    st.fixed_dictionaries({}, optional={
        **{name: CONFIG_VALUE for name in (
            "f0_hz", "g0", "feedback_r_ohm", "gain_r_ohm", "divider_r1_ohm", "divider_r2_ohm",
            "f_min_hz", "f_max_hz", "spacing", "sigma_rel", "steps_per_period",
            "steps_per_tau", "seed", "bogus")},
        "n_points": POINTS,
    }).map(lambda fields: json.dumps(fields).encode()),
)


@st.composite
def input_bytes(draw, command):
    """Raw bytes, rows of generated fields, or a well-formed file: a sampled
    single-pole roll-off with alternating relative noise for a sweep, or
    positive values for a batch."""
    kind = draw(st.sampled_from(["raw", "rows", "model"]))
    if kind == "raw":
        return draw(st.binary(max_size=120))
    if command == "batch":
        header = "sample_id,f0_hz"
        if kind == "model":
            values = draw(st.lists(st.floats(1e6, 1e9), min_size=1, max_size=30))
            rows = [f"d{k},{value!r}" for k, value in enumerate(values)]
        else:
            rows = draw(st.lists(st.tuples(st.text(max_size=4), NUMBER.map(repr))
                                 .map(",".join), max_size=12))
    else:
        header = "frequency_hz,gain"
        if kind == "model":
            freqs = sorted(draw(st.lists(st.floats(1.0, 1e9), min_size=3, max_size=12,
                                         unique=True)))
            g0, fc = draw(st.floats(1.0, 1e4)), draw(st.floats(1e2, 1e10))
            noise = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.5]))
            rows = [f"{f!r},{g0 / math.sqrt(1.0 + (f / fc) ** 2) * (1.0 + noise * (-1) ** k)!r}"
                    for k, f in enumerate(freqs)]
        else:
            rows = draw(st.lists(st.tuples(NUMBER.map(repr), NUMBER.map(repr))
                                 .map(",".join), max_size=12))
    return "\n".join([header, *rows]).encode()


@st.composite
def cli_call(draw):
    """``(argv, files)``: a generated command line and the files it reads."""
    command = draw(st.sampled_from(["synth", "mc", "fit", "quick", "batch"]))
    files = {}
    if command in ("synth", "mc"):
        argv = [command, draw(OUTPUT)]
        files["in.csv"] = b"frequency_hz,gain\n"  # so that in.csv/out.csv lies under a file
        if command == "mc":
            argv += ["--trials", str(draw(st.integers(0, 5))),
                     "--corr-threshold", repr(draw(NUMBER))]
        if draw(st.booleans()):
            files["run.json"] = draw(CONFIG)
            argv += ["--config", "run.json"]
        flags = draw(st.dictionaries(
            st.sampled_from(["--noise", "--fmin", "--fmax", "--R", "--r"]), NUMBER, max_size=3))
        for flag, value in flags.items():
            argv += [flag, repr(value)]
        if draw(st.booleans()):
            argv += ["--points", str(draw(POINTS))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(-1, 2**70)))]
        if draw(st.booleans()):
            argv += ["--spacing", draw(st.sampled_from(["linear", "log", "cubic"]))]
        return argv, files
    files["in.csv"] = draw(input_bytes(command))
    argv = [command, "in.csv"]
    if command != "batch" and draw(st.booleans()):
        argv += ["--R", repr(draw(NUMBER)), "--r", repr(draw(NUMBER))]
    if command == "quick":
        if draw(st.booleans()):
            argv += ["--n", repr(draw(NUMBER))]
    elif draw(st.booleans()):
        if command == "fit" and draw(st.booleans()):
            argv.append("--weighted")
        argv += ["--plot-data", draw(PLOT_DIR)]
    return argv, files


# 200 examples in the default profile, the loaded profile's count if that is
# larger (HYPOTHESIS_PROFILE=long, see conftest.py)
@settings(max_examples=max(200, settings().max_examples),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(call=cli_call())
def test_any_generated_call_keeps_the_exit_code_contract(tmp_path, call):
    argv, files = call
    runner = CliRunner()
    # warnings are errors inside the run only: a leaked one ends it with exit 1
    with runner.isolated_filesystem(temp_dir=tmp_path), warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, data in files.items():
            Path(name).write_bytes(data)
        start = time.perf_counter()
        result = runner.invoke(main, argv)
        elapsed = time.perf_counter() - start
    assert result.exit_code in (0, 2, 3, 4), (result.exit_code, result.exception, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    if result.exit_code in (3, 4):
        assert result.stderr.splitlines()[-1].startswith("error: ")
    if result.exit_code == 0:
        # a successful command only warns on stderr, every number it prints
        # is finite, and every f0 it prints is positive
        for line in result.stderr.splitlines():
            assert line.startswith("warning: "), line
        for name, value in parse_report(result.stdout).items():
            try:
                number = float(value)
            except ValueError:
                continue
            assert math.isfinite(number), (name, value)
            if name in ("f0_hz", "mean_f0_hz"):
                assert number > 0.0, (name, value)
    assert elapsed < BUDGET_S
