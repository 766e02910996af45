#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark command of BENCHMARK.json once per seed for each
workload (untraced), then prints, per metric, the median and the distance
between the first and third quartile as a share of the median, next to the
metric's bound. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads gate_matrix,serve_mixed]

Raw results go to .bench_work/spread-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            took = time.monotonic() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, {last}", file=sys.stderr)
            result["stderr_tail"] = proc.stderr.strip().splitlines()[-3:]
            rows.append(result)
            print(f"{workload} seed {seed}: {took:.1f} s", file=sys.stderr)
        raw[workload] = rows
        print(f"\n{workload} ({len(rows)} runs)")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows if "metrics" in r]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:12} median {med:12.5g}  spread {spread:6.3f}  "
                  f"bound {m['bound']:.2f}{flag}")
    out = Path(".bench_work") / f"spread-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
