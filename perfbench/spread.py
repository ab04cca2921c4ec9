"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload disk_highp --runs 10

Runs the benchmark with seeds 0 to runs - 1, one run at a time, and prints
for each end-to-end metric the median of the runs and the distance between
the first and third quartiles as a share of that median, next to the
metric's bound from BENCHMARK.json. Per-run result lines are appended to
``out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    for seed in range(args.runs):
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / median
        print(f"{m['name']}: median {median:.6g} {m['unit']}, "
              f"IQR/median {share:.4f}, bound {m['bound']} "
              f"({share / m['bound']:.2f} of it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
