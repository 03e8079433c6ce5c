#!/usr/bin/env python3
"""lmoment benchmark: set-up and operation timings, checked outputs.

Run from the root of an lmoment checkout:

    python3 perfbench/run.py --workload scan-small --seed 1 --seconds 10 --trace 0

Workloads (one process each, no worker pool):

    scan-small  twisted_moment(f, build_modulus(q), l_one_value=L1) for every
                prime 100 <= q <= 300, in whole rounds
    scan-large  the same op for every prime 2100 <= q <= 2221
    voronoi     voronoi_check(f, 1, build_modulus(7), 50, default_bump())

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (setup_s, op_s, ops_per_s, peak_rss_mb); with --trace 1 it carries
the per-layer metrics of a traced run instead. Every op's output is checked
against independent references after the timed phase (see checks.py); an op
that raises or fails a check counts as failed.

Exit codes: 0 with a result line, 2 when the directory is not an lmoment
checkout (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join("data", "maass_even_13p77.txt")
SRC = "src"

# setups: how many times a run pays the per-form set-up. L(1, f) costs about
# 11 s, so the scans set up once per run; the Voronoi set-up costs about 2 s
# and is repeated in fresh interpreters.
WORKLOADS = {
    "scan-small": {"kind": "scan", "moduli": (100, 300), "whole_rounds": True,
                   "setups": 1},
    "scan-large": {"kind": "scan", "moduli": (2100, 2221), "whole_rounds": False,
                   "setups": 1},
    "voronoi": {"kind": "voronoi", "case": (7, 1, 50), "whole_rounds": True,
                "setups": 3},
}

# Samples checked per scan op: witnesses against the Hurwitz reference, and
# V1 / V2 arguments of the op (the first V2 argument, 1/q, is always taken).
N_WITNESSES, N_V1, N_V2 = 2, 4, 2

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "ops_per_s": "ops/s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> (phase, traced layer, quantity); "op" values are per
# op of the timed phase, "setup" values belong to the in-process set-up.
PER_LAYER = {
    "weights.v2_many.s": ("op", "weights.v2_many", "s"),
    "weights.v2_many.points": ("op", "weights.v2_many", "count"),
    "weights.v1_many.s": ("op", "weights.v1_many", "s"),
    "weights.v1_many.points": ("op", "weights.v1_many", "count"),
    "setup.weights.v1_many.s": ("setup", "weights.v1_many", "s"),
    "setup.weights.v1_many.points": ("setup", "weights.v1_many", "count"),
    "hecke.l_one.self_s": ("setup", "hecke.l_one", "s"),
    "weights.psi_pm_many.s": ("op", "weights.psi_pm_many", "s"),
    "weights.psi_pm_many.points": ("op", "weights.psi_pm_many", "count"),
    "weights.psi_decay_ladder.s": ("setup", "weights.psi_decay_ladder", "s"),
    "weights.v2_decay_ladder.s": ("op", "weights.v2_decay_ladder", "s"),
    "hecke.load_hecke_data.s": ("setup", "hecke.load_hecke_data", "s"),
    "hecke.coefficients_upto.s": ("op", "hecke.coefficients_upto", "s"),
    "hecke.coefficients_upto.n": ("op", "hecke.coefficients_upto", "count"),
    "setup.hecke.coefficients_upto.s": ("setup", "hecke.coefficients_upto", "s"),
    "setup.hecke.coefficients_upto.n": ("setup", "hecke.coefficients_upto",
                                        "count"),
    "characters.build_modulus.s": ("op", "characters.build_modulus", "s"),
    "expsums.gauss_sums_all.s": ("op", "expsums.gauss_sums_all", "s"),
    "lvalues.afe_err.s": ("op", "lvalues.afe_err", "s"),
    "moment.twisted_moment.self_s": ("op", "moment.twisted_moment", "s"),
    "voronoi.voronoi_lhs.s": ("op", "voronoi.voronoi_lhs", "s"),
    "voronoi.rhs_truncation_default.s": ("op", "voronoi.rhs_truncation_default",
                                         "s"),
    "voronoi.voronoi_rhs.self_s": ("op", "voronoi.voronoi_rhs", "s"),
}
UNITS = {("op", "s"): "s/op", ("op", "count"): "count/op",
         ("setup", "s"): "s", ("setup", "count"): "count"}

# A fresh interpreter that pays one set-up and prints its seconds.
_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
          "print(run.set_up(sys.argv[3])[0])")


def set_up(workload: str, tracer: Tracer | None = None):
    """Import lmoment, load the eigenvalue data and do the per-form work a
    CLI process pays before its first result. Returns (seconds, program,
    form, extra) with extra = L(1, f) for the scans."""
    t0 = time.perf_counter()
    import lmoment.characters
    import lmoment.hecke
    import lmoment.moment
    import lmoment.voronoi
    import lmoment.weights
    if tracer is not None:
        tracer.install()
    program = sys.modules["lmoment"]
    f = program.hecke.load_hecke_data(DATA)
    if WORKLOADS[workload]["kind"] == "scan":
        extra = program.hecke.l_one(f)
    else:
        extra = None
        program.weights.psi_decay_ladder(f.T_f, +1)
        program.weights.psi_decay_ladder(f.T_f, -1)
    return time.perf_counter() - t0, program, f, extra


def child_set_up(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, BENCH_DIR, os.path.abspath(SRC),
         workload],
        capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.split()[-1])


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def run_timed(spec, program, f, l1, rng, seconds: float):
    """Ops until `seconds` of op time have passed (at a round end when the
    workload runs whole rounds). Returns [(input, output or exception, s)]."""
    cm, mm, vm, wm = (program.characters, program.moment, program.voronoi,
                      program.weights)
    clear_moduli = cm.build_modulus.cache_clear
    if spec["kind"] == "scan":
        round_inputs = primes_between(*spec["moduli"])
    else:
        round_inputs = [spec["case"]]
    done = []
    timed = 0.0
    while timed < seconds or not done:
        order = rng.permutation(len(round_inputs))
        for i in order:
            item = round_inputs[int(i)]
            clear_moduli()      # no op reuses a modulus built by an earlier op
            t0 = time.perf_counter()
            try:
                if spec["kind"] == "scan":
                    out = mm.twisted_moment(f, cm.build_modulus(item),
                                            l_one_value=l1)
                else:
                    q, d, N = item
                    out = vm.voronoi_check(f, d, cm.build_modulus(q), N,
                                           wm.default_bump())
            except Exception as exc:    # counted as a failed op
                out = exc
            dt = time.perf_counter() - t0
            timed += dt
            done.append((item, out, dt))
            if not spec["whole_rounds"] and timed >= seconds:
                break
    return done


def check_ops(spec, program, f, l1, done, rng):
    """Failure messages per op (same order as done) and for the set-up."""
    import numpy as np

    import checks
    T_f, P_max, prime_coeffs = checks.read_eigenvalues(DATA)
    setup_fail = []
    results = []
    if spec["kind"] == "scan":
        lam = checks.coefficients(prime_coeffs, P_max)
        setup_fail = checks.check_l_one(l1, checks.l_one_reference(lam))
        hurwitz = {}
        wm = program.weights
        for q, rep, _dt in done:
            if isinstance(rep, Exception):
                results.append([f"q={q}: {type(rep).__name__}: {rep}"])
                continue
            fail = checks.check_moment(
                q, rep.moment, rep.cross_terms, rep.main_term, rep.ratio,
                len(rep.witnesses), rep.n_characters, l1)
            if rep.witnesses:
                if q not in hurwitz:
                    hurwitz[q] = (checks.hurwitz_table(q), checks.dlog_table(q))
                pick = rng.choice(len(rep.witnesses),
                                  min(N_WITNESSES, len(rep.witnesses)),
                                  replace=False)
                fail += checks.check_witnesses(
                    q, [rep.witnesses[int(i)] for i in pick],
                    rep.err_dirichlet, *hurwitz[q])
            m = rng.integers(1, rep.cutoffs["M_cut"] + 1, N_V1)
            x1 = m / np.sqrt(q)
            fail += checks.check_v1(x1, wm.v1_many(x1))
            n = np.concatenate([[1], rng.integers(2, rep.cutoffs["N_cut"] + 1,
                                                  N_V2)])
            x2 = n / q
            fail += checks.check_v2(x2, wm.v2_many(x2, f.T_f), T_f)
            results.append(fail)
    else:
        for (q, d, N), chk, _dt in done:
            if isinstance(chk, Exception):
                results.append([f"voronoi: {type(chk).__name__}: {chk}"])
                continue
            lam = checks.coefficients(prime_coeffs, 2 * N)
            ref = checks.voronoi_lhs_reference(lam, q, d, N)
            results.append(checks.check_voronoi(chk.lhs, chk.rhs, ref))
    return setup_fail, results


def layer_metrics(tracer: Tracer, n_ops: int, setup_s: float, op_s: float):
    """Per-layer metrics, plus the traced run's own set-up and median op
    time (compare with an untraced run for the tracing overhead)."""
    metrics = {}
    for name, (phase, layer, what) in PER_LAYER.items():
        if what == "s":
            value = tracer.seconds(phase, layer)
        else:
            value = tracer.count(phase, layer)
        if phase == "op":
            value /= n_ops
        metrics[name] = {"value": value, "unit": UNITS[(phase, what)]}
    metrics["traced.setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["traced.op_s"] = {"value": op_s, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "lmoment", "__init__.py"))
            and os.path.isfile(DATA)):
        print(f"perfbench: {SRC}/lmoment or {DATA} not found; run from the "
              "root of an lmoment checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))
    spec = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    setups = [child_set_up(args.workload) for _ in range(spec["setups"] - 1)]
    seconds, program, f, l1 = set_up(args.workload, tracer)
    setups.append(seconds)

    import numpy as np
    rng = np.random.default_rng(args.seed)
    if tracer is not None:
        tracer.phase = "op"
    done = run_timed(spec, program, f, l1, rng, args.seconds)
    if tracer is not None:
        tracer.phase = "check"
    t_check = time.perf_counter()
    setup_fail, results = check_ops(spec, program, f, l1, done, rng)
    t_check = time.perf_counter() - t_check

    attempted = len(done)
    failed = attempted if setup_fail else sum(1 for r in results if r)
    for msg in setup_fail + [m for r in results for m in r][:20]:
        print(f"perfbench: FAIL {msg}", file=sys.stderr)

    op_times = [dt for _item, _out, dt in done]
    setup_s = statistics.median(setups)
    op_s = statistics.median(op_times)
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "op_s": op_s,
            "ops_per_s": attempted / sum(op_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
    else:
        metrics = layer_metrics(tracer, attempted, seconds, op_s)

    print(f"{args.workload} seed={args.seed}: {attempted} ops, {failed} failed, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s, "
          f"checks {t_check:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
