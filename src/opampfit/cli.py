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

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .circuit import Topology
from .distribution import _ZeroSpreadError, analyze_batch, batch_stats, normal_reference_cdf
from .extraction import (
    CalibrationWarning,
    FitError,
    QuickCrossoverFit,
    _calibration,
    _fit_rows,
    fit_f0,
)
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
from .simulate import SimulationError, _noisy_gains, add_gain_noise, run_sweep

EXIT_PARSE = 3
EXIT_NUMERIC = 4

# Most trials one ``mc`` run may ask for; its time is linear in trials x
# points, and a larger count is refused before anything is simulated.
MAX_TRIALS = 2**20

# ``mc`` draws and fits its trials in blocks of at most this many gains, so
# its memory stays bounded whatever the trial count.
_MC_BLOCK_GAINS = 2**20


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current ``sys.stdout`` (``sys.stderr`` with
    ``err``).  Left to find the stream itself, click caches a wrapper per
    stream object that keeps the stream alive, so each command run in
    process with swapped streams, as under a test runner, would keep its
    output for the life of the process."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fail(code: int, message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _run_config(config_path, overrides: dict) -> RunConfig:
    """The ``--config`` file's configuration (or the defaults) with every
    given flag laid over it; named by their ``RunConfig`` fields.  A bad
    file exits 3; flags that make it bad are a usage error, exit 2."""
    try:
        cfg = RunConfig() if config_path is None else RunConfig.from_file(config_path)
    except ValueError as err:
        _fail(EXIT_PARSE, str(err))
    flags = {k: v for k, v in overrides.items() if v is not None}
    try:
        return replace(cfg, **flags) if flags else cfg
    except ValueError as err:
        raise click.UsageError(str(err)) from None


def _provenance(command: str, cfg: RunConfig, **extra) -> list[str]:
    """'# key = value' header lines recording the run configuration, enough
    to run ``command`` again."""
    names = ("sigma_rel", "g0", "feedback_r_ohm", "gain_r_ohm", "n_points", "f_min_hz",
             "f_max_hz", "spacing", "steps_per_period", "steps_per_tau")
    # a noisy file names its noise stream, so files drawn with another
    # stream can be told apart; a noiseless one draws none
    stream = {"noise_stream": "per-record"} if cfg.sigma_rel else {}
    # str() of a float is its repr, the shortest form that reads back exactly
    return format_metadata({"generator": f"opampfit {command}", "seed": cfg.seed, **extra,
                            "truth_f0_hz": cfg.f0_hz, **{n: getattr(cfg, n) for n in names},
                            **stream})


def _topology_flags(big_r, small_r) -> Topology | None:
    """The Topology of --R and --r, which must come as a valid pair or not
    at all."""
    if (big_r is None) != (small_r is None):
        raise click.UsageError("give both --R and --r or neither")
    if big_r is None:
        return None
    try:
        return Topology(feedback_r=big_r, gain_r=small_r)
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint="'--R' / '--r'") from None


# every command that takes a feedback network takes it from these two options
_FEEDBACK_R = click.option("--R", "feedback_r_ohm", type=float, default=None,
                           help="Feedback resistance in ohms.")
_GAIN_R = click.option("--r", "gain_r_ohm", type=float, default=None,
                       help="Gain resistance in ohms.")


def _config_options(command):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="JSON run configuration file."),
        click.option("--seed", type=click.IntRange(min=0), default=None,
                     help="Random seed (a non-negative integer)."),
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
        _FEEDBACK_R, _GAIN_R,
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
    record = add_gain_noise(run_sweep(cfg.device, cfg.topology, cfg.plan, cfg=cfg.sim),
                            cfg.sigma_rel, cfg.seed)
    write_sweep_file(output, record, _provenance("synth", cfg))
    _echo(f"wrote {output}: {record.n_points} points, seed = {cfg.seed}, "
          f"truth f0 = {cfg.f0_hz!r} Hz")


def _echo_fit_report(est):
    _echo(f"points = {est.n_points_}")
    _echo(f"f0_hz = {est.f0_hz_:.6g}")
    _echo(f"f0_mhz = {est.f0_hz_ / 1e6:.6g}")
    _echo(f"slope_per_hz2 = {est.slope_:.6g}")
    _echo(f"intercept = {est.intercept_:.6g}")
    if est.intercept_expected_ is not None:
        _echo(f"intercept_expected = {est.intercept_expected_:.6g}")
        _echo(f"intercept_rel_dev = {est.intercept_rel_dev_:.6g}")
    _echo(f"corr = {est.corr_:.6g}")


def _write_plot_data(directory, header: str, files: dict) -> None:
    """Write each ``name: columns`` of ``files`` as a CSV in ``directory``,
    creating it as needed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, columns in files.items():
        _write_csv(directory / name, header, columns)
    _echo(f"wrote {' and '.join(str(directory / name) for name in files)}")


@main.command()
@click.argument("sweep_path", type=click.Path(exists=True, dir_okay=False))
@_FEEDBACK_R
@_GAIN_R
@click.option("--weighted", is_flag=True, help="Weight the fit for constant relative noise.")
@click.option("--plot-data", "plot_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for transformed-points and fitted-line CSVs.")
def fit(sweep_path, feedback_r_ohm, gain_r_ohm, weighted, plot_dir):
    """Fit the crossover frequency of a sweep file by linear regression."""
    topology = _topology_flags(feedback_r_ohm, gain_r_ohm)
    record, _ = read_sweep_file(sweep_path)
    if topology is not None:
        record = replace(record, topology=topology)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CalibrationWarning)
        est = fit_f0(record, weighted=weighted)
    # only the calibration diagnostic is part of the report; any other
    # warning goes back to the warning filters in force outside
    for w in caught:
        if issubclass(w.category, CalibrationWarning):
            _echo(f"warning: {w.message}", err=True)
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    _echo_fit_report(est)
    if plot_dir is not None:
        u = record.frequency_hz**2
        u_line = np.linspace(u[0], u[-1], 256)
        _write_plot_data(plot_dir, "f_squared_hz2,inv_gain_squared", {
            "fit_points.csv": (u, 1.0 / record.gain**2),
            "fit_line.csv": (u_line, est.intercept_ + est.slope_ * u_line),
        })


@main.command()
@click.argument("sweep_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "ratio", type=float, default=2.0, show_default=True,
              help="Gain-drop ratio locating f_(1/n); must exceed 1.")
@_FEEDBACK_R
@_GAIN_R
@click.option("--baseline", type=click.Choice(["first", "low_decile"]), default="first",
              show_default=True, help="How the flat-region gain y0 is taken.")
def quick(sweep_path, ratio, feedback_r_ohm, gain_r_ohm, baseline):
    """Quick crossover frequency from the n-fold gain-drop point."""
    if not ratio > 1.0:
        raise click.BadParameter("must exceed 1", param_hint="--n")
    topology = _topology_flags(feedback_r_ohm, gain_r_ohm)
    record, _ = read_sweep_file(sweep_path)
    est = QuickCrossoverFit(n=ratio, topology=topology, baseline=baseline)
    est.fit(record.frequency_hz, record.gain)
    _echo(f"f0_hz = {est.f0_hz_:.6g}")
    _echo(f"f0_mhz = {est.f0_hz_ / 1e6:.6g}")
    _echo(f"baseline_gain = {est.baseline_gain_:.6g}")
    _echo(f"f_fraction_hz = {est.f_fraction_hz_:.6g}")
    _echo(f"bracket_below = ({est.bracket_lo_[0]:.6g} Hz, gain {est.bracket_lo_[1]:.6g})")
    _echo(f"bracket_above = ({est.bracket_hi_[0]:.6g} Hz, gain {est.bracket_hi_[1]:.6g})")


@main.command()
@click.argument("batch_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--plot-data", "plot_dir", type=click.Path(file_okay=False), default=None,
              help="Directory for ECDF and fitted-CDF CSVs.")
def batch(batch_path, plot_dir):
    """Distribution report over a batch of fitted f0 values."""
    _, values, _ = read_batch_file(batch_path)
    try:
        dist = analyze_batch(values)
        mean, stddev = dist.mean_hz, dist.stddev_hz
    except _ZeroSpreadError as err:
        dist, mean, stddev = None, err.mean, 0.0
    except ValueError as err:
        _fail(EXIT_NUMERIC, str(err))
    _echo(f"n = {len(values)}")
    _echo(f"mean_hz = {mean:.6g}")
    _echo(f"mean_mhz = {mean / 1e6:.6g}")
    _echo(f"stddev_hz = {stddev:.6g}")
    if dist is None:
        _echo("degenerate batch: zero spread, no ECDF or normality statistics")
        return
    _echo(f"stddev_over_mean_pct = {100.0 * dist.relative_spread:.6g}")
    _echo(f"kolmogorov_d = {dist.kolmogorov_d:.6g}")
    _echo(f"kolmogorov_d_onesided = {dist.kolmogorov_d_onesided:.6g}")
    _echo(f"kolmogorov_d_sqrt_n = {dist.kolmogorov_d_sqrt_n:.6g}")
    _echo(f"cdf_corr = {dist.cdf_corr:.6g}")
    if plot_dir is not None:
        grid = np.linspace(dist.ecdf_x[0], dist.ecdf_x[-1], 256)
        _write_plot_data(plot_dir, "deviation_sigma,probability", {
            "ecdf.csv": (dist.ecdf_x, dist.ecdf_p),
            "normal_cdf.csv": (grid, normal_reference_cdf(grid)),
        })


@main.command()
@click.argument("output", type=click.Path(dir_okay=False, writable=True))
@click.option("--trials", type=click.IntRange(1, MAX_TRIALS), default=100, show_default=True,
              help="Number of synth+fit repetitions.")
@click.option("--corr-threshold", type=float, default=0.999, show_default=True,
              help="Correlation threshold for the reported pass fraction.")
@_config_options
def mc(output, trials, corr_threshold, config_path, **overrides):
    """Monte-Carlo harness: simulate the noiseless sweep once, then per
    trial redraw the gain noise with seed ``(seed, trial)`` and fit it;
    writes the fitted f0 values as a batch CSV (one row per trial).  The
    trials are drawn and fitted as arrays, a block of them at a time, and
    the result equals running synth+fit per trial, bit-for-bit."""
    if not -1.0 <= corr_threshold <= 1.0:  # NaN too: a correlation lies in [-1, 1]
        raise click.BadParameter("must lie in [-1, 1]", param_hint="--corr-threshold")
    cfg = _run_config(config_path, overrides)
    clean = run_sweep(cfg.device, cfg.topology, cfg.plan, cfg=cfg.sim)
    f0_values = np.empty(trials)
    corr_pass = 0
    block = max(1, _MC_BLOCK_GAINS // clean.n_points)
    for start in range(0, trials, block):
        seeds = [(cfg.seed, trial) for trial in range(start, min(start + block, trials))]
        # a trial is refused at its first failing check, noise first, and
        # the run at its first refused trial, so only the trials before a
        # noise refusal are fitted
        gains, noise_refusal = _noisy_gains(clean, cfg.sigma_rel, seeds)
        if noise_refusal is not None:
            gains = gains[:noise_refusal[0]]
        slope, _, corr, _, rel_dev, fit_refusal = _fit_rows(
            clean.frequency_hz, gains, False, clean.topology)
        refusal = fit_refusal or noise_refusal
        passed = len(seeds) if refusal is None else refusal[0]
        f0_values[start:start + passed] = 1.0 / np.sqrt(slope[:passed])
        corr_pass += int(np.count_nonzero(corr[:passed] >= corr_threshold))
        if rel_dev is not None:
            for row, message in _calibration(rel_dev[:passed]):
                _echo(f"warning: trial {start + row}: {message}", err=True)
        if refusal is not None:
            _fail(EXIT_NUMERIC, f"trial {start + refusal[0]}: {refusal[1]}")
    ids = [str(trial + 1) for trial in range(trials)]
    write_batch_file(output, ids, f0_values, _provenance("mc", cfg, trials=trials))
    _echo(f"trials = {trials}")
    if trials >= 2:
        mean, spread = batch_stats(f0_values)
        _echo(f"mean_f0_hz = {mean:.6g}")
        _echo(f"stddev_f0_hz = {spread:.6g}")
        _echo(f"spread_over_mean_pct = {100.0 * spread / mean:.6g}")
    else:
        _echo(f"mean_f0_hz = {f0_values[0]:.6g}")
    _echo(f"corr_threshold = {corr_threshold:.6g}")
    _echo(f"corr_pass_fraction = {corr_pass / trials:.6g}")
    _echo(f"wrote {output}")


if __name__ == "__main__":
    main()
