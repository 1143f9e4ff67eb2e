"""Command-line surface tying the pipeline together.

Subcommands: ``synth`` (simulate a sweep to CSV), ``fit`` (regression
readout of a sweep file), ``quick`` (regression-free readout), ``batch``
(distribution report over many fitted f0 values), ``mc`` (one noiseless
sweep, then seeded noise and a fit per trial, producing a batch file).
Exit codes: 0 success, 2 usage errors, 3 file/config parse errors,
4 numerical/fit errors.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path

import click
import numpy as np

from .distribution import analyze_batch, batch_stats, normal_reference_cdf
from .extraction import (
    CalibrationWarning,
    FitError,
    QuickCrossoverFit,
    SweepRangeError,
    fit_f0,
)
from .fileio import (
    ParseError,
    RunConfig,
    format_metadata,
    read_batch_file,
    read_sweep_file,
    write_batch_file,
    write_sweep_file,
)
from .simulate import SimulationError, add_gain_noise, run_sweep

EXIT_PARSE = 3
EXIT_NUMERIC = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_config(config_path) -> RunConfig:
    if config_path is None:
        return RunConfig()
    try:
        return RunConfig.from_file(config_path)
    except (ParseError, ValueError, OSError) as err:
        _fail(EXIT_PARSE, str(err))


def _apply_overrides(cfg: RunConfig, seed, noise, points, fmin, fmax, spacing, big_r, small_r):
    if seed is not None:
        cfg.seed = seed
    if noise is not None:
        cfg.sigma_rel = noise
    if points is not None:
        cfg.n_points = points
    if fmin is not None:
        cfg.f_min_hz = fmin
    if fmax is not None:
        cfg.f_max_hz = fmax
    if spacing is not None:
        cfg.spacing = spacing
    if big_r is not None:
        cfg.feedback_r_ohm = big_r
    if small_r is not None:
        cfg.gain_r_ohm = small_r
    try:
        cfg.validate()
    except ValueError as err:
        _fail(EXIT_PARSE, str(err))
    return cfg


def _config_options(command):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="JSON run configuration file."),
        click.option("--seed", type=click.IntRange(min=0), default=None,
                     help="Random seed (u64)."),
        click.option("--noise", type=float, default=None,
                     help="Relative gain-noise sigma."),
        click.option("--points", type=int, default=None, help="Number of sweep points."),
        click.option("--fmin", type=float, default=None, help="Lowest sweep frequency in Hz."),
        click.option("--fmax", type=float, default=None, help="Highest sweep frequency in Hz."),
        click.option("--spacing", type=click.Choice(["linear", "log"]), default=None,
                     help="Sweep point spacing."),
        click.option("--R", "big_r", type=float, default=None,
                     help="Feedback resistance in ohms."),
        click.option("--r", "small_r", type=float, default=None,
                     help="Gain resistance in ohms."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@click.group()
def main():
    """Single-pole op-amp toolkit: simulate gain sweeps, extract the
    crossover frequency, and analyse batches of measured devices."""


@main.command()
@click.argument("output", type=click.Path(dir_okay=False, writable=True))
@_config_options
def synth(output, config_path, seed, noise, points, fmin, fmax, spacing, big_r, small_r):
    """Simulate a frequency sweep and write it as a sweep CSV."""
    cfg = _load_config(config_path)
    _apply_overrides(cfg, seed, noise, points, fmin, fmax, spacing, big_r, small_r)
    try:
        record = run_sweep(
            cfg.device(), cfg.topology(), cfg.sweep_plan(), cfg.noise(),
            cfg.sim_config(), seed=cfg.seed,
        )
    except SimulationError as err:
        _fail(EXIT_NUMERIC, str(err))
    meta = {
        "generator": "opampfit synth",
        "seed": cfg.seed,
        "truth_f0_hz": repr(cfg.f0_hz),
        "g0": repr(cfg.g0),
        "feedback_r_ohm": repr(cfg.feedback_r_ohm),
        "gain_r_ohm": repr(cfg.gain_r_ohm),
        "sigma_rel": repr(cfg.sigma_rel),
        "spacing": cfg.spacing,
    }
    if cfg.divider_r1_ohm is not None:
        meta["divider_r1_ohm"] = repr(cfg.divider_r1_ohm)
        meta["divider_r2_ohm"] = repr(cfg.divider_r2_ohm)
    write_sweep_file(output, record, format_metadata(meta))
    click.echo(f"wrote {output}: {record.n_points} points, seed = {cfg.seed}, "
               f"truth f0 = {cfg.f0_hz!r} Hz")


def _echo_fit_report(result):
    click.echo(f"points = {result.n_points}")
    click.echo(f"f0_hz = {result.f0_hz:.6g}")
    click.echo(f"f0_mhz = {result.f0_hz / 1e6:.6g}")
    click.echo(f"slope_per_hz2 = {result.slope:.6g}")
    click.echo(f"intercept = {result.intercept:.6g}")
    if result.intercept_expected is not None:
        click.echo(f"intercept_expected = {result.intercept_expected:.6g}")
        click.echo(f"intercept_rel_dev = {result.intercept_rel_dev:.6g}")
    click.echo(f"corr = {result.corr:.6g}")


def _write_plot_data(directory, record, result):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    u = record.frequency_hz**2
    v = 1.0 / record.gain**2
    points_path = directory / "fit_points.csv"
    with points_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("f_squared_hz2,inv_gain_squared\n")
        for ui, vi in zip(u, v):
            fh.write(f"{float(ui)!r},{float(vi)!r}\n")
    line_path = directory / "fit_line.csv"
    u_line = np.linspace(u[0], u[-1], 256)
    with line_path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("f_squared_hz2,inv_gain_squared\n")
        for ui in u_line:
            fh.write(f"{float(ui)!r},{float(result.intercept + result.slope * ui)!r}\n")
    click.echo(f"wrote {points_path} and {line_path}")


@main.command()
@click.argument("sweep_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--R", "big_r", type=float, default=None, help="Feedback resistance in ohms.")
@click.option("--r", "small_r", type=float, default=None, help="Gain resistance in ohms.")
@click.option("--weighted", is_flag=True, help="Weight the fit for constant relative noise.")
@click.option("--plot-data", "plot_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for transformed-points and fitted-line CSVs.")
def fit(sweep_path, big_r, small_r, weighted, plot_dir):
    """Fit the crossover frequency of a sweep file by linear regression."""
    try:
        record, _ = read_sweep_file(sweep_path)
    except ParseError as err:
        _fail(EXIT_PARSE, str(err))
    if big_r is not None or small_r is not None:
        if big_r is None or small_r is None:
            raise click.UsageError("give both --R and --r or neither")
        record = type(record)(
            frequency_hz=record.frequency_hz, gain=record.gain,
            feedback_r=big_r, gain_r=small_r, label=record.label,
        )
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CalibrationWarning)
            result = fit_f0(record, weighted=weighted)
    except FitError as err:
        _fail(EXIT_NUMERIC, str(err))
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)
    _echo_fit_report(result)
    if plot_dir is not None:
        _write_plot_data(plot_dir, record, result)


@main.command()
@click.argument("sweep_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "ratio", type=float, default=2.0, show_default=True,
              help="Gain-drop ratio locating f_(1/n); must exceed 1.")
@click.option("--R", "big_r", type=float, default=None, help="Feedback resistance in ohms.")
@click.option("--r", "small_r", type=float, default=None, help="Gain resistance in ohms.")
@click.option("--baseline", type=click.Choice(["first", "low_decile"]), default="first",
              show_default=True, help="How the flat-region gain y0 is taken.")
def quick(sweep_path, ratio, big_r, small_r, baseline):
    """Quick crossover frequency from the n-fold gain-drop point."""
    if not ratio > 1.0:
        raise click.BadParameter("must exceed 1", param_hint="--n")
    if (big_r is None) != (small_r is None):
        raise click.UsageError("give both --R and --r or neither")
    try:
        record, _ = read_sweep_file(sweep_path)
    except ParseError as err:
        _fail(EXIT_PARSE, str(err))
    est = QuickCrossoverFit(n=ratio, feedback_r=big_r, gain_r=small_r, baseline=baseline)
    try:
        est.fit(record.frequency_hz, record.gain)
    except SweepRangeError as err:
        _fail(EXIT_NUMERIC, f"{err} -- largest attainable n is {err.max_attainable_n:.4g}")
    except (FitError, ValueError) as err:
        _fail(EXIT_NUMERIC, str(err))
    click.echo(f"f0_hz = {est.f0_hz_:.6g}")
    click.echo(f"f0_mhz = {est.f0_hz_ / 1e6:.6g}")
    click.echo(f"baseline_gain = {est.baseline_gain_:.6g}")
    click.echo(f"f_fraction_hz = {est.f_fraction_hz_:.6g}")
    click.echo(f"bracket_below = ({est.bracket_lo_[0]:.6g} Hz, gain {est.bracket_lo_[1]:.6g})")
    click.echo(f"bracket_above = ({est.bracket_hi_[0]:.6g} Hz, gain {est.bracket_hi_[1]:.6g})")


@main.command()
@click.argument("batch_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--plot-data", "plot_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for ECDF and fitted-CDF CSVs.")
def batch(batch_path, plot_dir):
    """Distribution report over a batch of fitted f0 values."""
    try:
        ids, values, _ = read_batch_file(batch_path)
    except ParseError as err:
        _fail(EXIT_PARSE, str(err))
    if len(values) < 2:
        _fail(EXIT_NUMERIC, f"need at least 2 samples, got {len(values)}")
    mean, stddev = batch_stats(values)
    click.echo(f"n = {len(values)}")
    click.echo(f"mean_hz = {mean:.6g}")
    click.echo(f"mean_mhz = {mean / 1e6:.6g}")
    click.echo(f"stddev_hz = {stddev:.6g}")
    if stddev == 0.0:
        click.echo("degenerate batch: zero spread, no ECDF or normality statistics")
        return
    dist = analyze_batch(values, ids=tuple(ids))
    click.echo(f"stddev_over_mean_pct = {100.0 * dist.relative_spread:.6g}")
    click.echo(f"kolmogorov_d = {dist.kolmogorov_d:.6g}")
    click.echo(f"kolmogorov_d_onesided = {dist.kolmogorov_d_onesided:.6g}")
    click.echo(f"kolmogorov_d_sqrt_n = {dist.kolmogorov_d * math.sqrt(dist.n):.6g}")
    click.echo(f"cdf_corr = {dist.cdf_corr:.6g}")
    if plot_dir is not None:
        directory = Path(plot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        ecdf_path = directory / "ecdf.csv"
        with ecdf_path.open("w", encoding="utf-8", newline="") as fh:
            fh.write("deviation_sigma,probability\n")
            for x, p in zip(dist.ecdf_x, dist.ecdf_p):
                fh.write(f"{float(x)!r},{float(p)!r}\n")
        cdf_path = directory / "normal_cdf.csv"
        grid = np.linspace(dist.ecdf_x[0], dist.ecdf_x[-1], 256)
        phi = normal_reference_cdf(grid)
        with cdf_path.open("w", encoding="utf-8", newline="") as fh:
            fh.write("deviation_sigma,probability\n")
            for x, p in zip(grid, phi):
                fh.write(f"{float(x)!r},{float(p)!r}\n")
        click.echo(f"wrote {ecdf_path} and {cdf_path}")


@main.command()
@click.argument("output", type=click.Path(dir_okay=False, writable=True))
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True,
              help="Number of synth+fit repetitions.")
@click.option("--corr-threshold", type=float, default=0.999, show_default=True,
              help="Correlation threshold for the reported pass fraction.")
@_config_options
def mc(output, trials, corr_threshold, config_path, seed, noise, points, fmin, fmax,
       spacing, big_r, small_r):
    """Monte-Carlo harness: simulate the noiseless sweep once, then per
    trial redraw the gain noise with seed ``(seed, trial)`` and fit it;
    writes the fitted f0 values as a batch CSV (one row per trial).  The
    result equals running synth+fit per trial, bit-for-bit."""
    cfg = _load_config(config_path)
    _apply_overrides(cfg, seed, noise, points, fmin, fmax, spacing, big_r, small_r)
    noise_model = cfg.noise()
    try:
        clean = run_sweep(cfg.device(), cfg.topology(), cfg.sweep_plan(), None,
                          cfg.sim_config())
    except SimulationError as err:
        _fail(EXIT_NUMERIC, str(err))
    f0_values = np.empty(trials)
    corr_pass = 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CalibrationWarning)
            for trial in range(trials):
                record = add_gain_noise(clean, noise_model, seed=(cfg.seed, trial))
                seen = len(caught)
                result = fit_f0(record)
                for w in caught[seen:]:
                    click.echo(f"warning: trial {trial}: {w.message}", err=True)
                f0_values[trial] = result.f0_hz
                if result.corr >= corr_threshold:
                    corr_pass += 1
    except (SimulationError, FitError) as err:
        _fail(EXIT_NUMERIC, f"trial {trial}: {err}")
    ids = [str(trial + 1) for trial in range(trials)]
    meta = {
        "generator": "opampfit mc",
        "seed": cfg.seed,
        "trials": trials,
        "truth_f0_hz": repr(cfg.f0_hz),
        "sigma_rel": repr(cfg.sigma_rel),
        "g0": repr(cfg.g0),
        "feedback_r_ohm": repr(cfg.feedback_r_ohm),
        "gain_r_ohm": repr(cfg.gain_r_ohm),
        "n_points": repr(cfg.n_points),
        "f_min_hz": repr(cfg.f_min_hz),
        "f_max_hz": repr(cfg.f_max_hz),
        "spacing": cfg.spacing,
        "steps_per_period": repr(cfg.steps_per_period),
        "steps_per_tau": repr(cfg.steps_per_tau),
    }
    if cfg.divider_r1_ohm is not None:
        meta["divider_r1_ohm"] = repr(cfg.divider_r1_ohm)
        meta["divider_r2_ohm"] = repr(cfg.divider_r2_ohm)
    write_batch_file(output, ids, f0_values, format_metadata(meta))
    click.echo(f"trials = {trials}")
    if trials >= 2:
        mean, spread = batch_stats(f0_values)
        click.echo(f"mean_f0_hz = {mean:.6g}")
        click.echo(f"stddev_f0_hz = {spread:.6g}")
        click.echo(f"spread_over_mean_pct = {100.0 * spread / mean:.6g}")
    else:
        click.echo(f"mean_f0_hz = {f0_values[0]:.6g}")
    click.echo(f"corr_threshold = {corr_threshold:.6g}")
    click.echo(f"corr_pass_fraction = {corr_pass / trials:.6g}")
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
