"""Outside-in tracing of the opampfit modules.

``Tracer`` swaps the module and class attributes that opampfit's callers
look up (``opampfit.cli.run_sweep``, ``opampfit.simulate.lfilter``, ...) for
wrappers that record one span per call, and puts the originals back on
exit.  Nothing in ``src/`` is edited.  Spans are kept in memory as
``[name, start, end, parent, op]`` lists and written out once the run is
over; counters are taken at the same call boundaries.

The program is single-threaded, so a stack gives each span its parent and
no layer ever waits on another: a layer's cost is its busy time, and a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import Counter

import opampfit.cli as cli
import opampfit.extraction as extraction
import opampfit.fileio as fileio
import opampfit.simulate as simulate

# Per-layer metrics: (name, unit, better, what it covers, what it should move).
# Times and counts are per traced op; cli.commands is the traced op count.
PER_LAYER = (
    ("cli.op_s", "s/op", "lower", "whole command, root span", "latency_p50_s, all workloads"),
    ("cli.self_s", "s/op", "lower",
     "click parsing, overrides, echo, plot-data CSVs", "readout latency_p50_s"),
    ("cli.commands", "count", "higher", "traced commands", "-"),
    ("cli.exit_nonzero", "count/op", "lower", "commands exiting with code != 0", "-"),
    ("fileio.read_s", "s/op", "lower", "read_sweep_file + read_batch_file", "readout ops_per_s"),
    ("fileio.rows_read", "count/op", "lower", "data rows parsed", "readout ops_per_s"),
    ("fileio.bytes_read", "B/op", "lower", "size of the files parsed", "readout ops_per_s"),
    ("fileio.write_s", "s/op", "lower", "write_sweep_file + write_batch_file",
     "synth, mc ops_per_s (expected negligible)"),
    ("fileio.bytes_written", "B/op", "lower", "size of the files written", "-"),
    ("fileio.config_s", "s/op", "lower", "RunConfig.from_file", "synth ops_per_s"),
    ("simulate.points", "count/op", "lower", "simulate_steady_state calls", "-"),
    ("simulate.drive_s", "s/op", "lower",
     "simulate_steady_state self time: planning, drive sin, forcing", "synth, mc ops_per_s"),
    ("simulate.rk4_s", "s/op", "lower", "opampfit.simulate.lfilter", "synth, mc ops_per_s"),
    ("simulate.rk4_steps", "count/op", "lower", "lfilter input length", "synth, mc ops_per_s"),
    ("simulate.lockin_s", "s/op", "lower", "lockin_demodulate", "synth, mc ops_per_s"),
    ("simulate.samples_demodulated", "count/op", "lower", "lock-in input samples",
     "synth, mc ops_per_s"),
    ("simulate.sweep_self_s", "s/op", "lower",
     "run_sweep self time: reference trace, noise draws", "mc ops_per_s"),
    ("simulate.kept_step_frac", "frac", "higher",
     "measured-window steps / integrated steps (4/9 at the defaults)", "synth ops_per_s"),
    ("simulate.distinct_sweep_frac", "frac", "higher",
     "distinct (device, topology, plan, sim config) / run_sweep calls, per command",
     "mc ops_per_s"),
    ("extraction.fit_s", "s/op", "lower", "fit_f0", "readout ops_per_s; mc (under 1 %)"),
    ("extraction.quick_s", "s/op", "lower", "QuickCrossoverFit.fit", "readout ops_per_s"),
    ("extraction.fits", "count/op", "lower", "fit_f0 + QuickCrossoverFit.fit calls", "-"),
    ("extraction.fit_errors", "count/op", "lower", "fits that raised", "-"),
    ("distribution.analyze_s", "s/op", "lower", "analyze_batch + batch_stats",
     "readout ops_per_s (batch ops)"),
    ("distribution.samples", "count/op", "lower", "samples passed to analyze_batch + batch_stats",
     "readout ops_per_s (batch ops)"),
)

# Layer time metric -> span name, and whether it is the span's self time.
_TIMES = {
    "cli.op_s": ("cli", False),
    "cli.self_s": ("cli", True),
    "fileio.read_s": ("fileio.read", False),
    "fileio.write_s": ("fileio.write", False),
    "fileio.config_s": ("fileio.config", False),
    "simulate.drive_s": ("simulate.steady", True),
    "simulate.rk4_s": ("simulate.rk4", False),
    "simulate.lockin_s": ("simulate.lockin", False),
    "simulate.sweep_self_s": ("simulate.sweep", True),
    "extraction.fit_s": ("extraction.fit", False),
    "extraction.quick_s": ("extraction.quick", False),
    "distribution.analyze_s": ("distribution.analyze", False),
}


class Tracer:
    """Context manager that traces every opampfit call made inside it.

    ``root(fn)`` wraps the CLI entry point so that each call of it is one op
    with its own id and a root span named ``cli``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # span name -> calls that raised
        self.exit_codes: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = -1
        self._sweep_keys: list[str] = []
        self._sweep_fracs: list[float] = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(idx)
                self.errors[name] += 1
                raise
            self._close(idx)
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, entry):
        """Wrap the CLI entry point: one call is one op."""
        def traced(*args, **kwargs):
            self._op += 1
            self._sweep_keys = []
            idx = self._open("cli")
            code = 0
            try:
                return entry(*args, **kwargs)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
                raise
            finally:
                self._close(idx)
                self.exit_codes.append(code)
                if self._sweep_keys:
                    self._sweep_fracs.append(
                        len(set(self._sweep_keys)) / len(self._sweep_keys))

        return traced

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        raw = vars(owner)[attr]
        wrapped = self._wrap(name, getattr(owner, attr), count)
        if isinstance(raw, classmethod):
            wrapped = staticmethod(wrapped)  # getattr above already bound the class
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def __enter__(self) -> "Tracer":
        c = self.counts
        sweep_signature = inspect.signature(cli.run_sweep)

        def sweep(args, kwargs, result):
            # noise and seed only perturb the deterministic sweep, so they
            # are not part of what makes two sweeps the same work
            bound = sweep_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = {k: v for k, v in bound.arguments.items() if k not in ("noise", "seed")}
            self._sweep_keys.append(repr(key))

        def steady(args, kwargs, result):
            c["simulate.points"] += 1
            c["simulate.kept_steps"] += result.samples.size - 1

        def rk4(args, kwargs, result):
            c["simulate.rk4_steps"] += len(args[2])

        def lockin(args, kwargs, result):
            c["simulate.samples_demodulated"] += args[0].samples.size

        def fit(args, kwargs, result):
            c["extraction.fits"] += 1

        def read_sweep(args, kwargs, result):
            c["fileio.rows_read"] += result[0].n_points
            c["fileio.bytes_read"] += os.path.getsize(args[0])

        def read_batch(args, kwargs, result):
            c["fileio.rows_read"] += len(result[0])
            c["fileio.bytes_read"] += os.path.getsize(args[0])

        def written(args, kwargs, result):
            c["fileio.bytes_written"] += os.path.getsize(args[0])

        def samples(args, kwargs, result):
            c["distribution.samples"] += len(args[0])

        self._patch(cli, "run_sweep", "simulate.sweep", sweep)
        self._patch(simulate, "simulate_steady_state", "simulate.steady", steady)
        self._patch(simulate, "lfilter", "simulate.rk4", rk4)
        self._patch(simulate, "lockin_demodulate", "simulate.lockin", lockin)
        self._patch(cli, "fit_f0", "extraction.fit", fit)
        self._patch(extraction.QuickCrossoverFit, "fit", "extraction.quick", fit)
        self._patch(cli, "read_sweep_file", "fileio.read", read_sweep)
        self._patch(cli, "read_batch_file", "fileio.read", read_batch)
        self._patch(cli, "write_sweep_file", "fileio.write", written)
        self._patch(cli, "write_batch_file", "fileio.write", written)
        self._patch(fileio.RunConfig, "from_file", "fileio.config")
        self._patch(cli, "analyze_batch", "distribution.analyze", samples)
        self._patch(cli, "batch_stats", "distribution.analyze", samples)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -------------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, normalised per traced op."""
        ops = len(self.exit_codes)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[idx]
        per_op = 1.0 / ops if ops else 0.0
        c = self.counts
        out = {metric: (own if is_self else total)[span] * per_op
               for metric, (span, is_self) in _TIMES.items()}
        out["cli.commands"] = float(ops)
        out["cli.exit_nonzero"] = sum(1 for code in self.exit_codes if code != 0) * per_op
        for key in ("fileio.rows_read", "fileio.bytes_read", "fileio.bytes_written",
                    "simulate.points", "simulate.rk4_steps", "simulate.samples_demodulated",
                    "extraction.fits", "distribution.samples"):
            out[key] = c[key] * per_op
        out["extraction.fit_errors"] = (
            self.errors["extraction.fit"] + self.errors["extraction.quick"]) * per_op
        steps = c["simulate.rk4_steps"]
        out["simulate.kept_step_frac"] = c["simulate.kept_steps"] / steps if steps else 0.0
        fracs = self._sweep_fracs
        out["simulate.distinct_sweep_frac"] = sum(fracs) / len(fracs) if fracs else 0.0
        return {name: out[name] for name, *_ in PER_LAYER}

    def write(self, path, header: dict) -> None:
        """Write ``header`` as the first JSON line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
