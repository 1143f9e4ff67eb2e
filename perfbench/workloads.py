"""Seeded inputs, command lines and output checks for the benchmark workloads.

Each workload class writes its inputs into a directory when constructed
(that is the benchmark's set-up) and then hands out one ``Op`` per index: the
``opampfit`` argument vector plus a check of the command's exit code, its
captured output and the files it wrote.  The inputs are a pure function of
the workload seed, so the same seed writes byte-identical files.

Checks are independent of the code under test where they can be: fitted
frequencies are recomputed with numpy least squares, batch statistics with
numpy, and expected gains come from the closed form ``closed_loop_gain``.
A check returns ``None`` when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from opampfit.circuit import DeviceParams, Topology, closed_loop_gain

# Device-to-device spread of the paper's batch: f0 ~ Normal(97.73 MHz, 1.62 MHz).
BATCH_MEAN_HZ = 97.73e6
BATCH_STDDEV_HZ = 1.62e6
# The CLI's default topology (R = 100 ohm, r = 1 ohm): ideal DC gain 101.
TOPOLOGY = Topology(feedback_r=100.0, gain_r=1.0)
# Devices drawn per synth/mc run.  A run only reuses a device after this many
# ops, ten times what either workload completes in a run at the seed commit.
DEVICE_POOL = 256
MC_TRIALS = 8
MC_NOISE = 3.23e-4
# At MC_NOISE one 32-point trial fits f0 with the batch's own relative spread
# (that is how the README's noise level was chosen), so the mean of
# MC_TRIALS trials is checked to six of its standard errors.
MC_MEAN_RTOL = 6.0 * (BATCH_STDDEV_HZ / BATCH_MEAN_HZ) / math.sqrt(MC_TRIALS)
READOUT_NOISE = 3.23e-4

# relative tolerance for a number the CLI prints with 6 significant digits
PRINTED_RTOL = 1e-5


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its outcome."""

    argv: tuple[str, ...]
    check: Callable[[int, str, str], str | None]  # (exit code, stdout, stderr)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")


def _seed_stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def closed_form_gain(f0_hz: float, freqs) -> np.ndarray:
    """|closed_loop_gain| of an ideal device in the default topology."""
    dev = DeviceParams(f0=float(f0_hz))
    return np.array([abs(closed_loop_gain(dev, TOPOLOGY, float(f))) for f in freqs])


def numpy_f0(freqs, gains, weighted: bool = False) -> float:
    """Least-squares f0 from the straight line 1/gain^2 = a + f^2/f0^2."""
    u = np.asarray(freqs, dtype=float) ** 2
    v = 1.0 / np.asarray(gains, dtype=float) ** 2
    # polyfit weights the unsquared residuals, so 1/v gives 1/v^2 weighting
    slope, _ = np.polyfit(u, v, 1, w=1.0 / v if weighted else None)
    return 1.0 / math.sqrt(slope)


def numpy_quick_f0(freqs, gains, n: float, prefactor: float | None) -> float:
    """Regression-free f0 from the first point where the gain has dropped
    n-fold, interpolated linearly in the (f^2, 1/gain^2) plane."""
    u = np.asarray(freqs, dtype=float) ** 2
    v = 1.0 / np.asarray(gains, dtype=float) ** 2
    y0 = float(gains[0])
    target = (n / y0) ** 2
    hi = int(np.argmax(v >= target))
    lo = hi - 1
    u_cross = u[lo] + (target - v[lo]) * (u[hi] - u[lo]) / (v[hi] - v[lo])
    scale = y0 if prefactor is None else prefactor
    return scale * math.sqrt(u_cross) / math.sqrt(n * n - 1.0)


def read_csv(path: Path) -> tuple[str, list[list[str]]]:
    """Header and data rows of a CSV with '#' comment lines."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def printed_values(stdout: str) -> dict[str, str]:
    """``key = value`` lines of a command's report."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = value.strip()
    return values


def _rel_dev(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)


def _count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def _expect_printed(stdout: str, key: str, reference: float, what: str) -> str | None:
    printed = printed_values(stdout).get(key)
    if printed is None:
        return f"no '{key}' line in the report"
    dev = _rel_dev(float(printed), reference)
    if dev > PRINTED_RTOL:
        return f"{key} = {printed} differs from {what} {reference!r} by {dev:.2e}"
    return None


# --------------------------------------------------------------------- synth

class Synth:
    """``opampfit synth --config`` on a new device every op.

    Two of every three ops use the README default plan (512 linear points
    over 10-100 kHz, noiseless) and the third the criterion-3 plan (512
    points over 10 kHz-1 MHz, sigma_rel 0.003).  The 2:1 cycle keeps the
    median op inside one plan, so ``latency_p50_s`` does not jump between
    the two plans' latencies from run to run.
    """

    PLANS = (
        {"f_min_hz": 1.0e4, "f_max_hz": 1.0e5, "n_points": 512, "sigma_rel": 0.0},
        {"f_min_hz": 1.0e4, "f_max_hz": 1.0e5, "n_points": 512, "sigma_rel": 0.0},
        {"f_min_hz": 1.0e4, "f_max_hz": 1.0e6, "n_points": 512, "sigma_rel": 0.003},
    )

    def __init__(self, seed: int, workdir: Path):
        rng = _seed_stream(seed, 1)
        self.f0 = rng.normal(BATCH_MEAN_HZ, BATCH_STDDEV_HZ, DEVICE_POOL)
        noise_seeds = rng.integers(0, 2**63, DEVICE_POOL)
        self.workdir = workdir
        self.output = workdir / "synth_out.csv"
        for k in range(DEVICE_POOL):
            plan = self.PLANS[k % len(self.PLANS)]
            _write_json(self._config(k), {
                "f0_hz": float(self.f0[k]), "seed": int(noise_seeds[k]), **plan,
            })

    def _config(self, k: int) -> Path:
        return self.workdir / f"synth_{k:04d}.json"

    def op(self, i: int) -> Op:
        k = i % DEVICE_POOL
        plan = self.PLANS[k % len(self.PLANS)]
        f0 = float(self.f0[k])
        output = self.output

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit code {code}: {stderr.strip()}"
            return check_synth_output(output, f0, plan)

        return Op(("synth", str(output), "--config", str(self._config(k))), check)


def check_synth_output(path: Path, f0_hz: float, plan: dict) -> str | None:
    """A synth sweep file is on the planned grid and matches the device.

    Noiseless sweeps must match ``closed_loop_gain`` point by point to 1e-3
    (acceptance criterion 1) and fit f0 to 1e-4; noisy sweeps must fit f0
    to 1 %.
    """
    header, rows = read_csv(path)
    if header != "frequency_hz,gain":
        return f"unexpected header {header!r}"
    data = np.array(rows, dtype=float)
    expected_f = np.linspace(plan["f_min_hz"], plan["f_max_hz"], plan["n_points"])
    if data.shape != (plan["n_points"], 2):
        return f"expected {plan['n_points']} rows of 2 columns, got shape {data.shape}"
    if not np.allclose(data[:, 0], expected_f, rtol=1e-12, atol=0.0):
        return "frequencies are not the planned grid"
    f0_fit = numpy_f0(data[:, 0], data[:, 1])
    if plan["sigma_rel"] == 0.0:
        worst = float(np.max(np.abs(data[:, 1] / closed_form_gain(f0_hz, expected_f) - 1.0)))
        if worst > 1e-3:
            return f"gain deviates {worst:.2e} from closed_loop_gain (limit 1e-3)"
        limit = 1e-4
    else:
        limit = 1e-2
    dev = _rel_dev(f0_fit, f0_hz)
    if dev > limit:
        return f"fitted f0 {f0_fit!r} deviates {dev:.2e} from {f0_hz!r} (limit {limit:g})"
    return None


# ------------------------------------------------------------------------ mc

class Mc:
    """``opampfit mc`` in the README's shape on a new device every op.

    Each op runs ``MC_TRIALS`` trials of 32 points over 10-100 kHz with
    ``--noise 3.23e-4`` and a ``--seed`` drawn from the workload seed; the
    device's f0 arrives through ``--config``.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = _seed_stream(seed, 2)
        self.f0 = rng.normal(BATCH_MEAN_HZ, BATCH_STDDEV_HZ, DEVICE_POOL)
        self.seeds = rng.integers(0, 2**63, DEVICE_POOL)
        self.workdir = workdir
        self.output = workdir / "mc_out.csv"
        for k in range(DEVICE_POOL):
            _write_json(self._config(k), {"f0_hz": float(self.f0[k])})

    def _config(self, k: int) -> Path:
        return self.workdir / f"mc_{k:04d}.json"

    def op(self, i: int) -> Op:
        k = i % DEVICE_POOL
        f0 = float(self.f0[k])
        output = self.output

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit code {code}: {stderr.strip()}"
            return check_mc_output(output, stdout, f0)

        argv = ("mc", str(output), "--config", str(self._config(k)),
                "--trials", str(MC_TRIALS), "--points", "32", "--noise", repr(MC_NOISE),
                "--seed", str(int(self.seeds[k])))
        return Op(argv, check)


def check_mc_output(path: Path, stdout: str, f0_hz: float) -> str | None:
    header, rows = read_csv(path)
    if header != "sample_id,f0_hz":
        return f"unexpected header {header!r}"
    if [r[0] for r in rows] != [str(t) for t in range(1, MC_TRIALS + 1)]:
        return f"expected sample ids 1..{MC_TRIALS}, got {len(rows)} rows"
    values = np.array([r[1] for r in rows], dtype=float)
    mean = float(values.mean())
    dev = _rel_dev(mean, f0_hz)
    if dev > MC_MEAN_RTOL:
        return (f"mean fitted f0 {mean!r} deviates {dev:.2e} from {f0_hz!r} "
                f"(limit {MC_MEAN_RTOL:.2e})")
    return _expect_printed(stdout, "mean_f0_hz", mean, "the file's numpy mean")


# ------------------------------------------------------------------- readout

class Readout:
    """``fit``, ``quick`` and ``batch`` over a pool of files, in a fixed cycle.

    Sweeps are closed-form gains times seeded noise, so nothing is
    simulated.  The pool holds sweeps of 32, 512 and 4096 points in both
    header forms, batches of 400 and 10,000 devices, and three bad inputs
    whose documented outcome is exit code 3 (parse error) or 4 (sweep too
    narrow).  Some fit and batch ops also write ``--plot-data`` CSVs.
    """

    SWEEP_SIZES = (32, 512, 4096)
    BATCH_SIZES = (400, 10_000)
    F_MIN_HZ = 1.0e4
    F_MAX_HZ = 4.0e6  # past the 3-fold gain drop of every device in the batch spread

    def __init__(self, seed: int, workdir: Path):
        rng = _seed_stream(seed, 3)
        self.sweeps: dict[str, tuple[Path, float, np.ndarray, np.ndarray]] = {}
        for size in self.SWEEP_SIZES:
            for form in ("g", "p"):
                f0 = float(rng.normal(BATCH_MEAN_HZ, BATCH_STDDEV_HZ))
                freqs = np.linspace(self.F_MIN_HZ, self.F_MAX_HZ, size)
                gains = closed_form_gain(f0, freqs) * (
                    1.0 + READOUT_NOISE * rng.standard_normal(size))
                path = workdir / f"sweep_{size}{form}.csv"
                if form == "g":
                    rows = [f"{f!r},{y!r}" for f, y in zip(freqs.tolist(), gains.tolist())]
                    header = "frequency_hz,gain"
                else:
                    u_in = rng.uniform(0.05, 0.2, size)
                    u_out = gains * u_in
                    gains = u_out / u_in  # what the reader reconstructs
                    rows = [f"{f!r},{a!r},{b!r}"
                            for f, a, b in zip(freqs.tolist(), u_in.tolist(), u_out.tolist())]
                    header = "frequency_hz,u_in_v,u_out_v"
                _write_lines(path, [f"# truth_f0_hz = {f0!r}", "# source = closed form",
                                    header, *rows])
                self.sweeps[f"{size}{form}"] = (path, f0, freqs, gains)
        self.batches: dict[int, tuple[Path, np.ndarray]] = {}
        for size in self.BATCH_SIZES:
            values = rng.normal(BATCH_MEAN_HZ, BATCH_STDDEV_HZ, size)
            path = workdir / f"batch_{size}.csv"
            _write_lines(path, ["sample_id,f0_hz",
                                *(f"dev{i:05d},{v!r}" for i, v in enumerate(values.tolist()))])
            self.batches[size] = (path, values)

        lines = self.sweeps["512g"][0].read_text(encoding="utf-8").splitlines()
        lines[100] = lines[100].split(",")[0] + ",abc"
        self.bad_token = workdir / "bad_token.csv"
        _write_lines(self.bad_token, lines)
        narrow_f = np.linspace(1.0e4, 1.0e5, 512)
        self.narrow = workdir / "narrow.csv"
        _write_lines(self.narrow, ["frequency_hz,gain", *(
            f"{f!r},{y!r}" for f, y in zip(narrow_f.tolist(),
                                          closed_form_gain(BATCH_MEAN_HZ, narrow_f).tolist()))])
        self.dup_ids = workdir / "dup_ids.csv"
        _write_lines(self.dup_ids, ["sample_id,f0_hz", "a,9.7e7", "b,9.8e7", "a,9.6e7"])
        self.plot_fit = workdir / "plot_fit"
        self.plot_batch = workdir / "plot_batch"
        self.cycle = self._cycle()

    def _cycle(self) -> list[Op]:
        rr = ("--R", "100", "--r", "1")
        fit, quick, batch, fail = self._fit, self._quick, self._batch, self._fail
        return [
            fit("512g"),
            quick("512g", 2.0, rr),
            fit("32p", rr),
            batch(400),
            fit("4096g", plot=True),
            quick("32g", 2.0),
            fit("512p", weighted=True),
            quick("4096p", math.sqrt(2.0), rr),
            batch(10_000),
            fit("32g"),
            fit("4096p", rr),
            quick("512p", 3.0),
            batch(400, plot=True),
            fail(("fit", str(self.bad_token)), 3),
            quick("32p", 2.0, rr),
            fit("512g", rr, plot=True),
            batch(10_000, plot=True),
            fail(("quick", str(self.narrow), "--n", "2"), 4),
            fit("4096g"),
            fail(("batch", str(self.dup_ids)), 3),
        ]

    def op(self, i: int) -> Op:
        return self.cycle[i % len(self.cycle)]

    def _fit(self, key: str, extra: tuple = (), weighted: bool = False, plot: bool = False) -> Op:
        path, f0, freqs, gains = self.sweeps[key]
        expected = numpy_f0(freqs, gains, weighted=weighted)
        plot_dir = self.plot_fit
        argv = ("fit", str(path), *extra)
        if weighted:
            argv += ("--weighted",)
        if plot:
            argv += ("--plot-data", str(plot_dir))

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit code {code}: {stderr.strip()}"
            values = printed_values(stdout)
            if values.get("points") != str(freqs.size):
                return f"points = {values.get('points')}, expected {freqs.size}"
            problem = _expect_printed(stdout, "f0_hz", expected, "the numpy fit")
            if problem is None and _rel_dev(expected, f0) > 1e-2:
                problem = f"numpy fit {expected!r} is not within 1 % of truth {f0!r}"
            if problem is None and plot:
                problem = _check_plot_files(plot_dir, {"fit_points.csv": freqs.size + 1,
                                                       "fit_line.csv": 257})
            return problem

        return Op(argv, check)

    def _quick(self, key: str, n: float, extra: tuple = ()) -> Op:
        path, f0, freqs, gains = self.sweeps[key]
        prefactor = TOPOLOGY.ideal_dc_gain if extra else None
        expected = numpy_quick_f0(freqs, gains, n, prefactor)

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit code {code}: {stderr.strip()}"
            problem = _expect_printed(stdout, "f0_hz", expected, "the numpy readout")
            if problem is None and _rel_dev(expected, f0) > 1e-2:
                problem = f"numpy readout {expected!r} is not within 1 % of truth {f0!r}"
            return problem

        return Op(("quick", str(path), "--n", repr(n), *extra), check)

    def _batch(self, size: int, plot: bool = False) -> Op:
        path, values = self.batches[size]
        mean = float(values.mean())
        stddev = float(values.std(ddof=1))
        plot_dir = self.plot_batch
        argv = ("batch", str(path)) + (("--plot-data", str(plot_dir)) if plot else ())

        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != 0:
                return f"exit code {code}: {stderr.strip()}"
            printed = printed_values(stdout)
            if printed.get("n") != str(size):
                return f"n = {printed.get('n')}, expected {size}"
            problem = (_expect_printed(stdout, "mean_hz", mean, "the numpy mean")
                       or _expect_printed(stdout, "stddev_hz", stddev, "the numpy stddev"))
            if problem is None and _rel_dev(mean, BATCH_MEAN_HZ) > 1e-2:
                problem = f"batch mean {mean!r} is not within 1 % of {BATCH_MEAN_HZ!r}"
            if problem is None and _rel_dev(stddev, BATCH_STDDEV_HZ) > 0.2:
                problem = f"batch stddev {stddev!r} is not within 20 % of {BATCH_STDDEV_HZ!r}"
            if problem is None and float(printed.get("cdf_corr", "nan")) < 0.99:
                problem = f"cdf_corr = {printed.get('cdf_corr')} for normal data"
            if problem is None and plot:
                problem = _check_plot_files(plot_dir, {"ecdf.csv": size + 1,
                                                       "normal_cdf.csv": 257})
            return problem

        return Op(argv, check)

    @staticmethod
    def _fail(argv: tuple, expected_code: int) -> Op:
        def check(code: int, stdout: str, stderr: str) -> str | None:
            if code != expected_code:
                return f"exit code {code}, expected {expected_code}"
            if not stderr.startswith("error: "):
                return f"no 'error: ' message on stderr: {stderr[:80]!r}"
            return None

        return Op(argv, check)


def _check_plot_files(directory: Path, line_counts: dict[str, int]) -> str | None:
    for name, expected in line_counts.items():
        path = directory / name
        if not path.is_file():
            return f"--plot-data did not write {path.name}"
        got = _count_lines(path)
        if got != expected:
            return f"{path.name} has {got} lines, expected {expected}"
    return None


def _write_lines(path: Path, lines) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


WORKLOADS = {"synth": Synth, "mc": Mc, "readout": Readout}
