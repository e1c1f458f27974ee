#!/usr/bin/env python3
"""Repeat the benchmark with distinct seeds and report each metric's spread.

Run from the repository root, for example:

    python3 bench/steadiness.py --first-seed 100

For every workload in BENCHMARK.json it runs the benchmark command ten
times for BENCHMARK.json's run_seconds, one fresh process at a time, with
seeds first-seed, first-seed + 1, ...; then prints, per end-to-end metric,
the median, the spread (the distance between the first and third quartiles
from statistics.quantiles, n=4, as a share of the median), the range (max
minus min, as a share of the median) and the metric's bound.  The raw
results go to .bench_results/steadiness-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = results[workload] = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary = proc.stderr.strip().splitlines()[-1]  # unscaled rate, host slowness
            result.update(seed=seed, finished=time.time(), summary=summary)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
            print(f"  {summary}", flush=True)

    (ROOT / ".bench_results").mkdir(exist_ok=True)
    out = ROOT / ".bench_results" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(results, indent=1))
    for workload, runs in results.items():
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed/attempted {sorted(failed)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print(f"  {metric['name']:14s} median {median:10.4f} "
                  f"spread {(q3 - q1) / median:.4f}  "
                  f"range {(max(values) - min(values)) / median:.4f}  bound {metric['bound']}")
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
