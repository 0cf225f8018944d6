"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload complex --seeds 1-10 --trace 0
    python3 perfbench/spread.py --workload deform --seeds 5,5,5 --trace 1

With ``--trace 0`` it prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median and the metric's bound from BENCHMARK.json.  With ``--trace 1`` it
lists the per-layer counters (everything not in seconds, and not the
timing ratio trace.overhead_ratio) that differ between runs, which must be
none when every seed is the same.  Each run is
``run.py`` in its own process, one after another, for ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,3,3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    runs = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = " ".join(f"{name} {m['value']:.6g}"
                          for name, m in result["metrics"].items()
                          if not args.trace)
        print(f"seed {seed}: correct {result['correct']} failed "
              f"{result['failed']}/{result['attempted']} {values}",
              flush=True)
        runs.append(result)
    metrics = runs[0]["metrics"]
    if args.trace:
        varying = [name for name, m in metrics.items()
                   if m["unit"] != "s" and name != "trace.overhead_ratio"
                   and len({r["metrics"][name]["value"] for r in runs}) > 1]
        print("counters that differ between runs:", varying or "none")
        return 0
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in metrics:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        verdict = "" if bound is None else \
            ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:<14} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}"
              f"  spread {spread:6.3f}  bound {bound}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
