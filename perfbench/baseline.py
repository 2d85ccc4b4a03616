"""Repeat the benchmark over several seeds and summarise each metric.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --out perfbench/BENCH_<commit>.json

For every workload it runs ``run.py`` once per seed (1..RUNS) with tracing
off, reports each end-to-end metric's median, quartiles and quartile spread
as a share of the median (against the bound in BENCHMARK.json), then runs
one traced run at seed 1 for the per-layer metrics.  Runs are sequential so
that they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    worst = {}
    for name in (w["name"] for w in spec["workloads"]):
        results = [run_once(name, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        record = results[0]["record"]
        for key in ("nproc", "python", "platform", "commit"):
            summary[key] = record[key]["value"]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "known_defects": record["known_defects"], "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst[metric] = max(worst.get(metric, 0.0), spread / bound)
            entry["end_to_end"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"], "median": med, "q1": q1,
                "q3": q3, "spread": spread, "bound": bound, "values": values}
            print(f"{name:13s} {metric:13s} median {med:10.4f}  spread {spread:6.3f}"
                  f"  bound {bound}", flush=True)
        traced = run_once(name, 1, spec["run_seconds"], 1)
        entry["per_layer_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    summary["largest_spread_over_bound"] = worst
    for metric, ratio in worst.items():
        print(f"largest spread / bound of {metric}: {ratio:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
