"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/repeat.py --workloads synth mc readout \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 [--out summary.json]

Runs ``run.py`` once per (workload, seed), serially, with tracing off, and
prints for every end-to-end metric its median, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median.  ``--out`` also writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["synth", "mc", "readout"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        summary[workload] = {
            "all_correct": all(r["correct"] for r in results),
            "metrics": {name: {"unit": unit, **summarise(
                [r["metrics"][name]["value"] for r in results])} for name, unit in units.items()},
        }
        for name, s in summary[workload]["metrics"].items():
            print(f"  {name:16s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "workloads": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
