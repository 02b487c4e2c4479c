"""Run a workload over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --workload compile_cold --seeds 1 2 3 4 5

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is marked steady.
Runs go one after another, each in a fresh process; the exit code is 1 when
a run failed or a spread (``setup_s`` excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_iqr  # noqa: E402


def main(argv=None) -> int:
    """Run the seeds and print the spread table; return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = False
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            failed = True
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} seeds")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        if len(series) < 2:
            continue
        spread = relative_iqr(series)
        verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
        if verdict == "WIDE" and name != "setup_s":
            failed = True
        print(f"  {name:20s} median {statistics.median(series):12.5g}  "
              f"spread {spread:7.2%}  bound {bound:5.0%}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
