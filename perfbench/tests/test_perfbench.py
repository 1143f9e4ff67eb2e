"""Tests of the benchmark itself: checks, metric names, tracing, inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opampfit.cli import main as entry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _rewrite_gains(path: Path, factor: float) -> None:
    """Scale every gain of a frequency_hz,gain sweep file by ``factor``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    out = []
    for line in lines:
        if line.startswith("#") or line.startswith("frequency_hz"):
            out.append(line)
        else:
            f, y = line.split(",")
            out.append(f"{f},{float(y) * factor!r}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def test_synth_check_rejects_gains_scaled_by_calibration_error(tmp_path):
    plan = workloads.Synth.PLANS[0]
    f0 = 96.5e6
    freqs = np.linspace(plan["f_min_hz"], plan["f_max_hz"], plan["n_points"])
    path = tmp_path / "sweep.csv"
    path.write_text("# truth\nfrequency_hz,gain\n" + "".join(
        f"{f!r},{y!r}\n" for f, y in zip(freqs.tolist(),
                                        workloads.closed_form_gain(f0, freqs).tolist())))
    assert workloads.check_synth_output(path, f0, plan) is None
    _rewrite_gains(path, 1.01)
    assert "closed_loop_gain" in workloads.check_synth_output(path, f0, plan)


def test_readout_check_rejects_fit_of_gains_scaled_by_calibration_error(tmp_path):
    wl = workloads.Readout(3, tmp_path)
    op = wl.op(0)
    assert op.argv[0] == "fit"
    _, code, out, err = run.invoke(entry, op.argv)
    assert op.check(code, out, err) is None
    _rewrite_gains(Path(op.argv[1]), 1.01)
    _, code, out, err = run.invoke(entry, op.argv)
    assert code == 0
    assert "differs from the numpy fit" in op.check(code, out, err)


def test_readout_cycle_passes_its_checks(tmp_path):
    wl = workloads.Readout(5, tmp_path)
    codes = []
    for i in range(len(wl.cycle)):
        op = wl.op(i)
        _, code, out, err = run.invoke(entry, op.argv)
        assert op.check(code, out, err) is None, op.argv
        codes.append(code)
    assert sorted(set(codes)) == [0, 3, 4]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_byte_identical_inputs(tmp_path, name):
    def generate(seed: int, where: Path) -> dict[str, bytes]:
        where.mkdir()
        workloads.WORKLOADS[name](seed, where)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    first = generate(7, tmp_path / "a")
    assert first == generate(7, tmp_path / "b")
    assert first != generate(8, tmp_path / "c")


def _patched_attributes():
    owners = (tracing.cli, tracing.simulate, tracing.extraction.QuickCrossoverFit,
              tracing.fileio.RunConfig)
    return {(owner.__name__, attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert _patched_attributes() != before
            raise RuntimeError("leave the block early")
    after = _patched_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer._saved == []


def test_tracer_attributes_simulation_work(tmp_path):
    with tracing.Tracer() as tracer:
        traced = tracer.root(entry)
        _, code, _, _ = run.invoke(traced, ["synth", str(tmp_path / "s.csv"), "--points", "3"])
        assert code == 0
        _, code, _, _ = run.invoke(traced, ["mc", str(tmp_path / "m.csv"), "--points", "3",
                                            "--trials", "3", "--noise", "1e-4"])
        assert code == 0
    layers = tracer.layer_metrics()
    assert layers["cli.commands"] == 2
    assert layers["simulate.points"] == (3 + 9) / 2
    assert layers["simulate.kept_step_frac"] == pytest.approx(4 / 9)
    # synth: one sweep per command; mc: three trials of the same sweep
    assert layers["simulate.distinct_sweep_frac"] == pytest.approx((1 + 1 / 3) / 2)
    assert layers["extraction.fits"] == 3 / 2
    names = {span[0] for span in tracer.spans}
    assert {"cli", "simulate.sweep", "simulate.steady", "simulate.rk4",
            "simulate.lockin", "fileio.write", "extraction.fit"} <= names
    roots = [span for span in tracer.spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli", "cli"]
    simulated = sum(layers[k] for k in ("simulate.drive_s", "simulate.rk4_s",
                                        "simulate.lockin_s", "simulate.sweep_self_s"))
    assert 0.0 < simulated < layers["cli.op_s"]


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    latencies = [float(i) for i in range(1, 41)]
    assert run.tail(latencies) == (75.0, 30.0)
    assert run.tail(latencies[:5]) == (100.0, 5.0)


def test_launch_scaled_divides_by_the_mean_reference_launch(monkeypatch):
    references = iter([0.1, 0.26, 0.3, 0.42])
    monkeypatch.setattr(run, "reference_launch", lambda: next(references))
    # mean reference 0.18 s: nominal, so the time is unchanged
    assert run.launch_scaled(lambda: (1.5, "extra")) == pytest.approx((1.5, 1.5, "extra"))
    # mean reference 0.36 s: the machine launches at half speed
    assert run.launch_scaled(lambda: (1.5,)) == pytest.approx((0.75, 1.5))


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(row[:3]) for row in tracing.PER_LAYER]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "readout", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
