#!/usr/bin/env python3
"""Time warm ops of two lmoment checkouts in alternating blocks.

    python tools/paired_ops.py --parent DIR --change DIR \\
        --workload {scan-small,scan-large,voronoi} --passes P --ops K

One worker process per checkout imports that checkout's src/lmoment, loads
its data/maass_even_13p77.txt and pays the workload's set-up: L(1, f) for
the scans, both Psi decay ladders for voronoi. It then runs one untimed
round of the workload's inputs, which builds the per-form caches (the V2
and Psi grids). Each pass runs one block of K timed ops on each
worker, one worker at a time; the parent goes first on even passes and the
change on odd ones. Both workers run the same inputs in a pass, drawn from
a fixed seed:

    scan-small  twisted_moment(f, build_modulus(q), l_one_value=L1), primes
                100 <= q <= 300, K of them drawn per pass
    scan-large  the same op over the primes 2100 <= q <= 2221
    voronoi     voronoi_check(f, 1, build_modulus(7), 50, default_bump())

The modulus cache is cleared before each op, so no op reuses a modulus built
by an earlier one. A block's value is its mean seconds per op. Since both
workers stay loaded and alternate within seconds, a slow spell of the host
falls on both sides of a pass, which a pair of separate benchmark runs
cannot ensure.

The last stdout line is a JSON object: per side the median and quartiles
(statistics.quantiles(n=4)) of the block values and the set-up seconds; the
same for the per-pass ratio change / parent; and the number of passes the
change won (a lower block value). Exits 0 with that line, 1 when a worker
fails, 2 when a directory is not an lmoment checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

DATA = os.path.join("data", "maass_even_13p77.txt")
SRC = "src"
MODULI = {"scan-small": (100, 300), "scan-large": (2100, 2221)}
VORONOI_CASE = (7, 1, 50)


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def worker(root: str, workload: str) -> int:
    """Set up, warm, then answer one "ops" request per stdin line: a JSON
    list of inputs, answered by a JSON list of their seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, SRC))
    from lmoment import characters, hecke, moment, voronoi, weights
    f = hecke.load_hecke_data(os.path.join(root, DATA))
    if workload == "voronoi":
        weights.psi_decay_ladder(f.T_f, +1)
        weights.psi_decay_ladder(f.T_f, -1)
        bump = weights.default_bump()

        def op(item):
            q, d, N = item
            voronoi.voronoi_check(f, d, characters.build_modulus(q), N, bump)
        warm = [VORONOI_CASE]
    else:
        l1 = hecke.l_one(f)

        def op(q):
            moment.twisted_moment(f, characters.build_modulus(q),
                                  l_one_value=l1)
        warm = _primes(*MODULI[workload])
    setup_s = time.perf_counter() - t0
    for item in warm:
        op(item)
    print(json.dumps({"setup_s": setup_s}), flush=True)
    for line in sys.stdin:
        times = []
        for item in json.loads(line):
            characters.build_modulus.cache_clear()
            t = time.perf_counter()
            op(item)
            times.append(time.perf_counter() - t)
        print(json.dumps(times), flush=True)
    return 0


class _Worker:
    def __init__(self, root: str, workload: str):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", root,
             "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ops(self, items) -> float:
        self.proc.stdin.write(json.dumps(items) + "\n")
        self.proc.stdin.flush()
        return statistics.fmean(self.read())

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload", required=True,
                    choices=sorted(MODULI) + ["voronoi"])
    ap.add_argument("--passes", type=int)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload)
    if None in (args.parent, args.change, args.passes, args.ops):
        ap.error("--parent, --change, --passes and --ops are required")
    if args.passes < 2 or args.ops < 1:
        ap.error("need --passes >= 2 and --ops >= 1")
    roots = {}
    for side in ("parent", "change"):
        root = os.path.abspath(getattr(args, side))
        if not (os.path.isfile(os.path.join(root, SRC, "lmoment", "__init__.py"))
                and os.path.isfile(os.path.join(root, DATA))):
            print(f"paired_ops: {root} has no {SRC}/lmoment or {DATA}",
                  file=sys.stderr)
            return 2
        roots[side] = root

    rng = random.Random(0)
    pool = ([VORONOI_CASE] if args.workload == "voronoi"
            else _primes(*MODULI[args.workload]))
    workers = {side: _Worker(root, args.workload) for side, root in roots.items()}
    blocks = {"parent": [], "change": []}
    try:
        setup = {side: w.read()["setup_s"] for side, w in workers.items()}
        for k in range(args.passes):
            items = [rng.choice(pool) for _ in range(args.ops)]
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                blocks[side].append(workers[side].ops(items))
            print(f"pass {k}: parent {blocks['parent'][-1] * 1e3:.3f} ms/op, "
                  f"change {blocks['change'][-1] * 1e3:.3f} ms/op", flush=True)
    except RuntimeError as exc:
        print(f"paired_ops: {exc}", file=sys.stderr)
        return 1
    finally:
        for w in workers.values():
            w.close()

    ratios = [c / p for p, c in zip(blocks["parent"], blocks["change"])]
    result = {"workload": args.workload, "passes": args.passes,
              "ops": args.ops, "block": "mean s/op",
              "change_won": sum(r < 1 for r in ratios),
              "ratio": _spread(ratios)}
    for side in ("parent", "change"):
        result[side] = {**_spread(blocks[side]), "setup_s": setup[side],
                        "root": roots[side]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
