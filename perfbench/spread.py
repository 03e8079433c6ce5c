#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and
quartile spread, as a share of the median.

    python3 perfbench/spread.py --workload scan-large --seeds 1-10 --seconds 8

Each run's stdout is kept in perfbench/results/<workload>-<seed>[-trace].txt.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="8")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    out_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=900)
        tag = f"{args.workload}-{seed}" + ("-trace" if args.trace == "1" else "")
        with open(os.path.join(out_dir, tag + ".txt"), "w") as fh:
            fh.write(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"]))
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"(failed, attempted) seen: {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "-"
        print(f"{name:36s} median {med:.6g}  iqr/median {spread}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
