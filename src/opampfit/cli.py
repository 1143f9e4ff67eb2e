"""Command-line surface tying the pipeline together.

Subcommands: ``synth`` (simulate a sweep to CSV), ``fit`` (regression
readout of a sweep file), ``quick`` (regression-free readout), ``batch``
(distribution report over many fitted f0 values), ``mc`` (one noiseless
sweep, then seeded noise and a fit per trial, producing a batch file).
Exit codes: 0 success, 2 usage errors, 3 file/config parse errors,
4 numerical/fit errors.  Commands raise the library's typed errors and
``main``'s group class, :class:`_Commands`, is the one place that maps them
to exit codes; only a config ``ValueError``, ``batch``'s statistics and
``mc``'s per-trial prefix are handled where they arise.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .circuit import Topology
from .distribution import _ZeroSpreadError, analyze_batch, batch_stats, normal_reference_cdf
from .extraction import CalibrationWarning, FitError, QuickCrossoverFit, fit_f0
from .fileio import (
    ParseError,
    RunConfig,
    _write_csv,
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


def _run_config(config_path, overrides: dict) -> RunConfig:
    """The ``--config`` file's configuration (or the defaults) with every
    given flag laid over it; named by their ``RunConfig`` fields."""
    try:
        cfg = RunConfig() if config_path is None else RunConfig.from_file(config_path)
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        cfg.validate()
    except ValueError as err:
        _fail(EXIT_PARSE, str(err))
    return cfg


def _provenance(command: str, cfg: RunConfig, **extra) -> list[str]:
    """'# key = value' header lines recording the run configuration, enough
    to run ``command`` again."""
    names = ("sigma_rel", "g0", "feedback_r_ohm", "gain_r_ohm", "n_points", "f_min_hz",
             "f_max_hz", "spacing", "steps_per_period", "steps_per_tau")
    if cfg.divider_r1_ohm is not None:
        names += ("divider_r1_ohm", "divider_r2_ohm")
    # str() of a float is its repr, the shortest form that reads back exactly
    return format_metadata({"generator": f"opampfit {command}", "seed": cfg.seed, **extra,
                            "truth_f0_hz": cfg.f0_hz, **{n: getattr(cfg, n) for n in names}})


def _check_topology_flags(big_r, small_r) -> None:
    """--R and --r must come as a pair that makes a valid Topology."""
    if (big_r is None) != (small_r is None):
        raise click.UsageError("give both --R and --r or neither")
    if big_r is not None:
        try:
            Topology(feedback_r=big_r, gain_r=small_r)
        except ValueError as err:
            raise click.BadParameter(str(err), param_hint="'--R' / '--r'") from None


def _config_options(command):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="JSON run configuration file."),
        click.option("--seed", type=click.IntRange(min=0), default=None,
                     help="Random seed (u64)."),
        click.option("--noise", "sigma_rel", type=float, default=None,
                     help="Relative gain-noise sigma."),
        click.option("--points", "n_points", type=int, default=None,
                     help="Number of sweep points."),
        click.option("--fmin", "f_min_hz", type=float, default=None,
                     help="Lowest sweep frequency in Hz."),
        click.option("--fmax", "f_max_hz", type=float, default=None,
                     help="Highest sweep frequency in Hz."),
        click.option("--spacing", type=click.Choice(["linear", "log"]), default=None,
                     help="Sweep point spacing."),
        click.option("--R", "feedback_r_ohm", type=float, default=None,
                     help="Feedback resistance in ohms."),
        click.option("--r", "gain_r_ohm", type=float, default=None,
                     help="Gain resistance in ohms."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


class _Commands(click.Group):
    """Runs a subcommand and turns the library's typed errors into an
    ``error:`` line and the documented exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ParseError, OSError) as err:
            _fail(EXIT_PARSE, str(err))
        except (SimulationError, FitError) as err:
            _fail(EXIT_NUMERIC, str(err))


@click.group(cls=_Commands)
def main():
    """Single-pole op-amp toolkit: simulate gain sweeps, extract the
    crossover frequency, and analyse batches of measured devices."""


@main.command()
@click.argument("output", type=click.Path(dir_okay=False, writable=True))
@_config_options
def synth(output, config_path, **overrides):
    """Simulate a frequency sweep and write it as a sweep CSV."""
    cfg = _run_config(config_path, overrides)
    record = run_sweep(
        cfg.device(), cfg.topology(), cfg.sweep_plan(), cfg.noise(),
        cfg.sim_config(), seed=cfg.seed,
    )
    write_sweep_file(output, record, _provenance("synth", cfg))
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


def _write_plot_data(directory, header: str, files: dict) -> None:
    """Write each ``name: columns`` of ``files`` as a CSV in ``directory``,
    creating it as needed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, columns in files.items():
        _write_csv(directory / name, header, columns)
    click.echo(f"wrote {' and '.join(str(directory / name) for name in files)}")


@main.command()
@click.argument("sweep_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--R", "big_r", type=float, default=None, help="Feedback resistance in ohms.")
@click.option("--r", "small_r", type=float, default=None, help="Gain resistance in ohms.")
@click.option("--weighted", is_flag=True, help="Weight the fit for constant relative noise.")
@click.option("--plot-data", "plot_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for transformed-points and fitted-line CSVs.")
def fit(sweep_path, big_r, small_r, weighted, plot_dir):
    """Fit the crossover frequency of a sweep file by linear regression."""
    _check_topology_flags(big_r, small_r)
    record, _ = read_sweep_file(sweep_path)
    if big_r is not None:
        record = replace(record, feedback_r=big_r, gain_r=small_r)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CalibrationWarning)
        result = fit_f0(record, weighted=weighted)
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)
    _echo_fit_report(result)
    if plot_dir is not None:
        u = record.frequency_hz**2
        u_line = np.linspace(u[0], u[-1], 256)
        _write_plot_data(plot_dir, "f_squared_hz2,inv_gain_squared", {
            "fit_points.csv": (u, 1.0 / record.gain**2),
            "fit_line.csv": (u_line, result.intercept + result.slope * u_line),
        })


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
    _check_topology_flags(big_r, small_r)
    record, _ = read_sweep_file(sweep_path)
    est = QuickCrossoverFit(n=ratio, feedback_r=big_r, gain_r=small_r, baseline=baseline)
    est.fit(record.frequency_hz, record.gain)
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
    ids, values, _ = read_batch_file(batch_path)
    try:
        dist = analyze_batch(values, ids=tuple(ids))
        mean, stddev = dist.mean_hz, dist.stddev_hz
    except _ZeroSpreadError as err:
        dist, mean, stddev = None, err.mean, 0.0
    except ValueError as err:
        _fail(EXIT_NUMERIC, str(err))
    click.echo(f"n = {len(values)}")
    click.echo(f"mean_hz = {mean:.6g}")
    click.echo(f"mean_mhz = {mean / 1e6:.6g}")
    click.echo(f"stddev_hz = {stddev:.6g}")
    if dist is None:
        click.echo("degenerate batch: zero spread, no ECDF or normality statistics")
        return
    click.echo(f"stddev_over_mean_pct = {100.0 * dist.relative_spread:.6g}")
    click.echo(f"kolmogorov_d = {dist.kolmogorov_d:.6g}")
    click.echo(f"kolmogorov_d_onesided = {dist.kolmogorov_d_onesided:.6g}")
    click.echo(f"kolmogorov_d_sqrt_n = {dist.kolmogorov_d * math.sqrt(dist.n):.6g}")
    click.echo(f"cdf_corr = {dist.cdf_corr:.6g}")
    if plot_dir is not None:
        grid = np.linspace(dist.ecdf_x[0], dist.ecdf_x[-1], 256)
        _write_plot_data(plot_dir, "deviation_sigma,probability", {
            "ecdf.csv": (dist.ecdf_x, dist.ecdf_p),
            "normal_cdf.csv": (grid, normal_reference_cdf(grid)),
        })


@main.command()
@click.argument("output", type=click.Path(dir_okay=False, writable=True))
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True,
              help="Number of synth+fit repetitions.")
@click.option("--corr-threshold", type=float, default=0.999, show_default=True,
              help="Correlation threshold for the reported pass fraction.")
@_config_options
def mc(output, trials, corr_threshold, config_path, **overrides):
    """Monte-Carlo harness: simulate the noiseless sweep once, then per
    trial redraw the gain noise with seed ``(seed, trial)`` and fit it;
    writes the fitted f0 values as a batch CSV (one row per trial).  The
    fit reads the amplifier's gain from its input, so a configured input
    divider's attenuation is taken out first; without one the result
    equals running synth+fit per trial, bit-for-bit."""
    cfg = _run_config(config_path, overrides)
    noise_model = cfg.noise()
    topo = cfg.topology()
    clean = run_sweep(cfg.device(), topo, cfg.sweep_plan(), None, cfg.sim_config())
    if topo.divider is not None:
        clean = replace(clean, gain=clean.gain / topo.divider_ratio)
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
    write_batch_file(output, ids, f0_values, _provenance("mc", cfg, trials=trials))
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
