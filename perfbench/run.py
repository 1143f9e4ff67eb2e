"""End-to-end benchmark of the opampfit command line.

    python3 perfbench/run.py --workload {synth,mc,readout} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The benchmark imports opampfit from
``src/`` (nothing is installed), writes the workload's inputs from the seed
into ``.perfbench_work/``, and then, from one closed-loop client, calls the
CLI entry point ``opampfit.cli:main`` in process - the same function the
``opampfit`` console script calls - one command after another for S
seconds.  Every command's exit code, report and output files are checked
outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half of the run is untraced and half
traced, and the JSON carries the per-layer metrics (see ``tracing.py``) while
the spans go to ``.perfbench_work/trace-<workload>-seed<N>.jsonl``.  Exits
with code 2, printing no result, when the checkout has no ``src/opampfit``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("synth", "mc", "readout")
# (name, unit); every one is printed on every workload
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cold_start_s", "s"),
)
# Extra set-ups in fresh interpreters (setup_s is the median of 1 + this) and
# CLI launches (cold_start_s is their median), spread over the timed run.
SETUP_PROBES = 2
COLD_START_RUNS = 6
WARMUP_S = 1.0
# Machine-speed calibration: the reference work runs every CALIBRATE_EVERY_S
# of the timed run, and REFERENCE_S is its median duration on the machine the
# bounds were set on (2-vCPU Xeon VM, 2.1 GHz, Python 3.11, numpy 2.4).  A
# command is scaled by the reference runs within LOCAL_S seconds of it.
CALIBRATE_EVERY_S = 0.2
REFERENCE_S = 0.01
LOCAL_S = 2.5
# Process-launch calibration: every set-up and CLI launch runs between two
# launches of a fresh interpreter that imports numpy, and is scaled to a
# machine where that reference launch takes REFERENCE_LAUNCH_S (the same
# machine as REFERENCE_S).
REFERENCE_LAUNCH_S = 0.18
TAIL_BEYOND = 10  # latency_tail_s is the highest percentile with this many ops beyond it


def _src_is_present() -> bool:
    return (SRC / "opampfit" / "__init__.py").is_file()


def setup(workload: str, seed: int, inputs: Path):
    """Import the program and write the workload's inputs; returns the
    workload object and the seconds this took."""
    started = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import opampfit.cli  # noqa: F401  the commands' import cost is part of set-up
    import workloads

    inputs.mkdir(parents=True)
    wl = workloads.WORKLOADS[workload](seed, inputs)
    return wl, time.perf_counter() - started


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, where nothing is imported yet."""
    elapsed, proc = _launch([str(Path(__file__).resolve()), "--workload", workload,
                             "--seed", str(seed), "--setup-only"], timeout=120)
    proc.check_returncode()
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def invoke(entry, argv) -> tuple[float, int, str, str]:
    """Run one CLI command in process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            entry(args=list(argv), prog_name="opampfit")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        elapsed = time.perf_counter() - started
    return elapsed, code, out.getvalue(), err.getvalue()


def reference_work() -> float:
    """Seconds taken by a fixed mix of numpy and interpreted work.

    On a shared host the machine's speed drifts by about 10 % over minutes,
    more than a run can average out, while the ratio of the program's time
    to this reference's time stays within a few percent.  Time metrics are
    therefore scaled to a machine that runs the reference in REFERENCE_S
    (see ``Loop.slowdown``).  The reference is part of the benchmark, so
    changes to the program cannot move it.
    """
    import numpy as np

    x = np.linspace(0.0, 100.0, 50_000)
    started = time.perf_counter()
    for _ in range(8):
        np.sin(x).sum()
    acc = 0
    for i in range(40_000):
        acc += i * i
    return time.perf_counter() - started


class Loop:
    """Closed-loop client: the next command starts when the previous one
    has returned and been checked.  Op indices never repeat within a run."""

    def __init__(self, wl):
        self.wl = wl
        self.next_index = 0
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.failures: list[str] = []
        self.references: list[tuple[float, float]] = []  # (when, reference seconds)

    def run(self, entry, seconds: float, record: bool = True, pauses=(),
            calibrate: bool = False) -> float:
        """Run commands for ``seconds`` of wall time (one command at least);
        returns the summed command time.

        ``pauses`` are callables run at evenly spaced points of the run, with
        the clock stopped, so that what they measure samples the machine
        over the whole run rather than at one end of it.  With ``calibrate``
        the reference work also runs, clock stopped, once per
        CALIBRATE_EVERY_S of the run.
        """
        busy = paused = 0.0
        pending = list(pauses)
        if calibrate:
            self.references.append((time.perf_counter(), reference_work()))
        next_reference = CALIBRATE_EVERY_S
        ops = 0
        started = time.perf_counter()
        while True:
            active = time.perf_counter() - started - paused
            if pending and active >= seconds * (len(pauses) - len(pending)) / len(pauses):
                pause_started = time.perf_counter()
                pending.pop(0)()
                paused += time.perf_counter() - pause_started
                # the reference runs fast on a core that has just idled, so
                # the next one waits until commands have run again
                next_reference = active + CALIBRATE_EVERY_S
                continue
            if calibrate and active >= next_reference:
                pause_started = time.perf_counter()
                self.references.append((pause_started, reference_work()))
                paused += time.perf_counter() - pause_started
                # after a long command several references are due: they all
                # run, so the reference is about the same share of every run
                next_reference += CALIBRATE_EVERY_S
                continue
            if ops and active >= seconds:
                return busy
            op = self.wl.op(self.next_index)
            self.next_index += 1
            op_started = time.perf_counter()
            elapsed, code, stdout, stderr = invoke(entry, op.argv)
            problem = op.check(code, stdout, stderr)
            ops += 1
            if record:
                busy += elapsed
                self.latencies.append(elapsed)
                self.starts.append(op_started)
                if problem is not None:
                    self.failures.append(f"{' '.join(op.argv)}: {problem}")

    def slowdown(self, when: float) -> float:
        """Median reference time within LOCAL_S of ``when`` (of the whole
        run if none is that close), over REFERENCE_S."""
        near = [ref for at, ref in self.references if abs(at - when) <= LOCAL_S]
        return statistics.median(near or [ref for _, ref in self.references]) / REFERENCE_S


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops
    beyond it; the maximum, as percentile 100, when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def _launch(argv, timeout: float = 60) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter that sees ``src/``; returns (wall seconds, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - started, proc


def reference_launch() -> float:
    """Wall time for a fresh interpreter to import numpy and exit."""
    elapsed, proc = _launch(["-c", "import numpy"])
    proc.check_returncode()
    return elapsed


def launch_scaled(measure):
    """Calls ``measure`` between two reference launches; returns its first
    result scaled by REFERENCE_LAUNCH_S over their mean, then what it returned.

    Launch and import times drift by 20-30 % between runs on a shared host,
    with memory and page-cache load that the CPU reference does not track;
    the ratio to a launch right before and after stays within a few percent.
    The reference imports only numpy, so changes to the program cannot move it.
    """
    before = reference_launch()
    result = measure()
    after = reference_launch()
    return (result[0] * 2.0 * REFERENCE_LAUNCH_S / (before + after), *result)


def cold_start() -> tuple[float, str | None]:
    """Wall time for a fresh interpreter to start the CLI and exit, and a
    reason if it did not exit cleanly with its usage text."""
    elapsed, proc = _launch(["-m", "opampfit.cli", "--help"])
    if proc.returncode != 0 or "Usage:" not in proc.stdout:
        return elapsed, f"cold start exited {proc.returncode}: {proc.stderr[-200:]}"
    return elapsed, None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print {\"setup_s\": ...} and exit (used internally)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not _src_is_present():
        print(f"error: no opampfit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            _, setup_s = setup(args.workload, args.seed, workdir / "inputs")
            print(json.dumps({"setup_s": setup_s}))
            return 0
        scaled_s, setup_s, wl = launch_scaled(
            lambda: setup(args.workload, args.seed, workdir / "inputs")[::-1])
        import opampfit
        if Path(opampfit.__file__).resolve().parent != (SRC / "opampfit").resolve():
            print(f"error: imported opampfit from {opampfit.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        return _benchmark(args, wl, [(scaled_s, setup_s)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _benchmark(args, wl, setups: list[tuple[float, float]]) -> int:
    """``setups`` holds (launch-scaled, unscaled) seconds of the set-ups so far."""
    from opampfit.cli import main as entry

    loop = Loop(wl)
    loop.run(entry, WARMUP_S, record=False)  # keeps one-off first-call costs out of the run
    info = provenance(args)
    print("provenance " + json.dumps(info, sort_keys=True))

    # (launch-scaled, unscaled) seconds; cold-start launches count as attempted commands
    launches: list[tuple[float, float]] = []
    launch_failures: list[str] = []
    if args.trace:
        from tracing import PER_LAYER, Tracer

        half = args.seconds / 2.0
        untraced_busy = loop.run(entry, half)
        untraced_ops = len(loop.latencies)  # the warm-up recorded none
        with Tracer() as tracer:
            traced_entry = tracer.root(entry)
            traced_busy = loop.run(traced_entry, half)
        layers = tracer.layer_metrics()
        rate_off = untraced_ops / untraced_busy
        rate_on = len(tracer.exit_codes) / traced_busy
        print(f"tracing overhead: {rate_off:.6g} ops/s untraced, {rate_on:.6g} ops/s traced, "
              f"difference {rate_off - rate_on:.6g} ops/s ({1.0 - rate_on / rate_off:.2%})")
        simulated = sum(layers[k] for k in ("simulate.drive_s", "simulate.rk4_s",
                                            "simulate.lockin_s", "simulate.sweep_self_s"))
        print(f"simulate share of traced op time: {simulated / layers['cli.op_s']:.4f}")
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"provenance": info, "layers": layers})
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        metrics = {name: _metric(layers[name], unit) for name, unit, *_ in PER_LAYER}
    else:
        def probe():
            setups.append(launch_scaled(lambda: (probe_setup(args.workload, args.seed),)))

        def launch():
            scaled, elapsed, problem = launch_scaled(cold_start)
            launches.append((scaled, elapsed))
            if problem is not None:
                launch_failures.append(problem)

        loop.run(entry, args.seconds,
                 pauses=[probe, launch] * SETUP_PROBES
                 + [launch] * (COLD_START_RUNS - SETUP_PROBES),
                 calibrate=True)

        overall = loop.slowdown(math.inf)
        latencies = [seconds / loop.slowdown(when)
                     for when, seconds in zip(loop.starts, loop.latencies)]
        tail_pct, tail_s = tail(latencies)
        correct = len(latencies) - len(loop.failures)
        values = {
            "ops_per_s": correct / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cold_start_s": statistics.median(scaled for scaled, _ in launches),
        }
        print(f"latency_tail_s is p{tail_pct:.4g} of {len(latencies)} ops; "
              f"setup_s is the median of {len(setups)} set-ups; "
              f"cold_start_s is the median of {len(launches)} launches")
        print(f"machine slowdown {overall:.4f} (median of {len(loop.references)} reference "
              f"runs / {REFERENCE_S} s); unscaled: ops_per_s "
              f"{correct / sum(loop.latencies):.6g}, "
              f"latency_p50_s {statistics.median(loop.latencies):.6g}, "
              f"setup_s {statistics.median(raw for _, raw in setups):.6g}, "
              f"cold_start_s {statistics.median(raw for _, raw in launches):.6g}")
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}

    attempted = len(loop.latencies) + len(launches)
    failures = loop.failures + launch_failures
    failed = len(failures)
    for problem in failures[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
