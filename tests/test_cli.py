"""Command-line interface tests, exercised through click's test runner."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from opampfit import (
    DeviceParams,
    NoiseModel,
    SweepPlan,
    SweepRecord,
    Topology,
    closed_loop_gain,
    fit_f0,
    read_batch_file,
    read_sweep_file,
    run_sweep,
    write_batch_file,
    write_sweep_file,
)
from opampfit import cli
from opampfit.cli import main
from opampfit.fileio import parse_metadata
from opampfit.simulate import MAX_DRIVE_SAMPLES, MAX_SWEEP_POINTS


@pytest.fixture
def runner():
    return CliRunner()


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
        assert result.exit_code == 3
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
        assert "largest attainable n" in result.stderr


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
            fit_f0(run_sweep(dev, topo, plan, NoiseModel(1e-4), seed=(4, trial))).f0_hz
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
        # trial 0 of seed 0 fits an intercept far from the topology's value;
        # trial 2 then fails to resolve the roll-off
        out = tmp_path / "mc.csv"
        args = ["mc", str(out), "--trials", "5", "--points", "3", "--fmax", "1.01e4",
                "--noise", "1e-3", "--seed", "0"]
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
            assert result.exit_code == 3
            assert "n_points" in result.stderr and points in result.stderr
        assert not out.exists()

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


class TestExitCodes:
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
