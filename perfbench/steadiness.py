#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise its spread.

For every workload it runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run on the first seed, and records for each end-to-end metric
the median, the quartiles and the spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles). A spread of
at most a third of the metric's bound in BENCHMARK.json is marked steady.

    python3 perfbench/steadiness.py --seeds 1-10 --output perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The run's result object and its environment stamp."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    stamp = next(line for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), json.loads(stamp.split(" ", 1)[1])


def summarise(values: list, bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "steady": spread <= bound / 3.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    start = time.time()
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = 0
        for seed in seeds:
            result, summary["environment"] = run_once(workload, seed,
                                                      args.seconds, 0)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {values[name][-1]:.4g}" for name in bounds)
                + f" [{time.time() - start:.0f} s]", flush=True)
        traced, _ = run_once(workload, seeds[0], args.seconds, 1)
        metrics = {name: summarise(vals, bounds[name])
                   for name, vals in values.items()}
        summary["workloads"][workload] = {
            "failed_jobs": failed, "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"  {name:12s} median {m['median']:.5g}  spread {m['spread']:.4f}"
                  f"  bound/3 {bounds[name] / 3:.4f}  "
                  f"{'steady' if m['steady'] else 'NOT STEADY'}", flush=True)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
