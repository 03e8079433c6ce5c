"""Command-line front door: data ingestion, per-command execution, and
machine-readable report emission.

Every report is a JSON document {schema_version, command, inputs, outputs,
certificates, runtime_ms}. runtime_ms is serialized as null so that repeated
runs produce byte-identical files; measured wall time goes to stderr. The
scan command can also project its per-modulus table to CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import errors
from .characters import (DirichletCharacter, build_modulus,
                         even_primitive_indices, primitive_pair_sum)
from .errors import UsageError
from .expsums import (gauss_sum, gauss_sums_all, kloosterman_table,
                      weil_bound)
from .hecke import (average_bound_report, l_one_report, load_hecke_data,
                    mock_hecke_system)
from .lvalues import (dirichlet_central_afe, dirichlet_central_oracle,
                      twist_central_afe)
from .moment import prime_scan, twisted_moment
from .voronoi import inverse_mod, voronoi_check
from .weights import default_bump

SCHEMA_VERSION = "lmoment/1"


def _c(z) -> dict:
    """Serialize a complex number as a stable two-field object."""
    z = complex(z)
    return {"im": z.imag, "re": z.real}


def _require(cond: bool, msg: str):
    if not cond:
        raise UsageError(msg)


def _load_system(args):
    if getattr(args, "mock", False):
        return mock_hecke_system(args.seed)
    _require(args.data is not None, "this command needs --data (or --mock)")
    return load_hecke_data(args.data)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (inputs, outputs, certificates)

def _cmd_chars(args):
    mod = build_modulus(args.q)
    q = mod.q
    n_even_prim = len(even_primitive_indices(mod))
    rng = np.random.default_rng(0)
    worst = 0.0
    spot = []
    for _ in range(25):
        n = int(rng.integers(1, q))
        m = int(rng.integers(1, q))
        got = primitive_pair_sum(mod, n, m)
        want = (q - 2.0) if n % q == m % q else -1.0
        worst = max(worst, abs(got - want))
        spot.append({"n": n, "m": m, "value": _c(got)})
    outputs = {
        "q": q,
        "n_characters": q - 1,
        "n_even": (q - 1) // 2,
        "n_odd": (q - 1) // 2,
        "n_primitive": q - 2,
        "n_even_primitive": n_even_prim,
        "orthogonality_spot_check": spot,
    }
    return {"q": args.q}, outputs, {"max_orthogonality_residual": worst}


def _cmd_gauss(args):
    mod = build_modulus(args.q)
    q = mod.q
    bulk = gauss_sums_all(mod)
    norm_resid = float(np.max(np.abs(np.abs(bulk[1:]) ** 2 - q)))
    direct_resid = 0.0
    for k in range(1, q - 1):
        direct_resid = max(direct_resid, abs(
            bulk[k] - gauss_sum(DirichletCharacter(mod, k))))
    outputs = {"q": q, "tau": [_c(z) for z in bulk]}
    certs = {"max_abs_square_residual": norm_resid,
             "max_bulk_vs_direct": direct_resid}
    return {"q": args.q}, outputs, certs


def _cmd_kloosterman(args):
    mod = build_modulus(args.q)
    q = mod.q
    table = kloosterman_table(mod)
    bound = weil_bound(mod)
    margin = float(bound - np.max(np.abs(table[1:, 1:])))
    outputs = {"q": q, "weil_bound": bound,
               "table": [[float(v) for v in row] for row in table]}
    certs = {"min_weil_margin": margin,
             "ramanujan_row_check": float(table[0, 1])}
    return {"q": args.q}, outputs, certs


def _cmd_lvalue(args):
    mod = build_modulus(args.q)
    _require(0 <= args.k <= mod.q - 2, "character index out of range")
    chi = DirichletCharacter(mod, args.k)
    inputs = {"q": args.q, "k": args.k, "twist": bool(args.twist)}
    if args.twist:
        f = _load_system(args)
        cv = twist_central_afe(f, chi)
        cv2 = twist_central_afe(f, chi, cutoff=2 * cv.cutoff)
        outputs = {"value": _c(cv.value), "method": cv.method,
                   "cutoff": cv.cutoff, "err_estimate": cv.err_estimate}
        certs = {"cutoff_doubling_delta": abs(cv2.value - cv.value)}
    else:
        cv = dirichlet_central_afe(chi)
        oracle = dirichlet_central_oracle(chi)
        outputs = {"value": _c(cv.value), "method": cv.method,
                   "cutoff": cv.cutoff, "err_estimate": cv.err_estimate,
                   "oracle_value": _c(oracle.value)}
        certs = {"afe_vs_conj_oracle": abs(cv.value - np.conj(oracle.value))}
    return inputs, outputs, certs


def _report_dict(rep) -> dict:
    return {
        "q": rep.q,
        "moment": _c(rep.moment),
        "main_term": rep.main_term,
        "ratio": rep.ratio,
        "l_one": rep.l_one_value,
        "cross_terms": {k: _c(v) for k, v in sorted(rep.cross_terms.items())},
        "n_characters": rep.n_characters,
        "n_witnesses": len(rep.witnesses),
        "witnesses": [{"k": k, "twist_mag": t, "dirichlet_mag": d}
                      for k, t, d in rep.witnesses],
        "cutoffs": rep.cutoffs,
    }


def _cmd_moment(args):
    _require(args.tol is None or 0 < args.tol < math.inf,
             "--tol must be positive and finite")
    mod = build_modulus(args.q)
    f = _load_system(args)
    threshold = args.tol if args.tol is not None else 1e-6
    rep = twisted_moment(f, mod, witness_threshold=threshold)
    total = sum(rep.cross_terms.values())
    certs = {
        "imag_residual": abs(rep.moment.imag) / (1 + abs(rep.moment)),
        "decomposition_residual": abs(total - rep.moment) / abs(rep.moment),
        "err_twist": rep.err_twist,
        "err_dirichlet": rep.err_dirichlet,
    }
    return {"q": args.q, "witness_threshold": threshold}, \
        _report_dict(rep), certs


def _dyadic_trend(reports) -> list:
    blocks = []
    if not reports:
        return blocks
    lo = reports[0].q
    while lo <= reports[-1].q:
        hi = 2 * lo
        devs = [abs(r.ratio - 1.0) for r in reports if lo <= r.q < hi]
        if devs:
            blocks.append({"q_lo": lo, "q_hi": hi,
                           "n": len(devs),
                           "median_abs_dev": float(np.median(devs))})
        lo = hi
    return blocks


def _cmd_scan(args):
    _require(args.qmin <= args.qmax, "--qmin must not exceed --qmax")
    _require(args.workers >= 1, "--workers must be >= 1")
    f = _load_system(args)
    reports = prime_scan(f, args.qmin, args.qmax, workers=args.workers)
    outputs = {
        "qmin": args.qmin, "qmax": args.qmax,
        "n_primes": len(reports),
        "rows": [_report_dict(r) for r in reports],
        "trend": _dyadic_trend(reports),
    }
    certs = {
        "max_imag_residual": max(
            (abs(r.moment.imag) / (1 + abs(r.moment)) for r in reports),
            default=0.0),
    }
    return {"qmin": args.qmin, "qmax": args.qmax}, outputs, certs


def _cmd_voronoi(args):
    _require(args.N >= 1, "--N must be >= 1")
    mod = build_modulus(args.q)
    inverse_mod(args.d, mod)    # rejects a d that shares a factor with q
    f = _load_system(args)
    chk = voronoi_check(f, args.d, mod, args.N, default_bump())
    outputs = {
        "q": chk.q, "d": chk.d, "N": chk.N, "psi": chk.psi_name,
        "lhs": _c(chk.lhs), "rhs": _c(chk.rhs),
        "rhs_truncation": chk.rhs_truncation,
        "truncation_capped_at_reach": chk.truncation_capped_at_reach,
        "residual": chk.residual,
        "negative_control": f.is_mock,
    }
    certs = {
        "tail_certificate_plus": chk.tail_certificate_plus,
        "tail_certificate_minus": chk.tail_certificate_minus,
        "doubling_delta": chk.doubling_delta,
        "data_error_bound": chk.data_error_bound,
    }
    return {"q": args.q, "d": args.d, "N": args.N}, outputs, certs


def _cmd_check_data(args):
    f = _load_system(args)
    grid = [x for x in (100, 1000, 10000) if x <= f.P_max]
    avg = average_bound_report(f, grid)
    rep = l_one_report(f)
    outputs = {
        "provenance": f.provenance,
        "T_f": f.T_f,
        "parity": f.parity,
        "pmax": f.P_max,
        "precision": f.data_precision,
        "n_primes": len(f.prime_coeffs),
        "average_bounds": avg["rows"],
        "l_one": rep["value"],
    }
    certs = {"average_bound_flagged": avg["flagged"],
             "l_one_disagreement": rep["disagreement"]}
    return {}, outputs, certs


_COMMANDS = {
    "chars": _cmd_chars,
    "gauss": _cmd_gauss,
    "kloosterman": _cmd_kloosterman,
    "lvalue": _cmd_lvalue,
    "moment": _cmd_moment,
    "scan": _cmd_scan,
    "voronoi": _cmd_voronoi,
    "check-data": _cmd_check_data,
}


def _scan_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(["q", "moment_re", "moment_im", "main_term", "ratio",
                "l_one", "n_characters", "n_witnesses", "M_cut", "N_cut"])
    for row in report["outputs"]["rows"]:
        w.writerow([row["q"], repr(row["moment"]["re"]),
                    repr(row["moment"]["im"]), repr(row["main_term"]),
                    repr(row["ratio"]), repr(row["l_one"]),
                    row["n_characters"], row["n_witnesses"],
                    row["cutoffs"]["M_cut"], row["cutoffs"]["N_cut"]])
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lmoment",
                 description="Twisted-moment verification toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", help="eigenvalue data file")
        p.add_argument("--mock", action="store_true",
                       help="use a seeded mock coefficient system")
        p.add_argument("--seed", type=int, default=1,
                       help="seed for the mock system")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("chars", help="character census and orthogonality")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p = sub.add_parser("gauss", help="all Gauss sums with residuals")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p = sub.add_parser("kloosterman", help="full Kloosterman table")
    p.add_argument("--q", type=int, required=True)
    common(p)
    p = sub.add_parser("lvalue", help="one central value with cross-check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--twist", action="store_true")
    common(p)
    p = sub.add_parser("moment", help="twisted moment at one modulus")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="witness threshold (default 1e-6)")
    common(p)
    p = sub.add_parser("scan", help="moment sweep over primes")
    p.add_argument("--qmin", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    common(p)
    p = sub.add_parser("voronoi", help="Voronoi identity check")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p = sub.add_parser("check-data", help="validate an eigenvalue file")
    common(p)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _require(args.format != "csv" or args.command == "scan",
                 "--format csv is only available for scan")
        _require(args.seed >= 0, "--seed must be nonnegative")
        if args.out:
            out_dir = os.path.dirname(os.path.abspath(args.out))
            _require(os.path.isdir(out_dir),
                     f"--out directory {out_dir} does not exist")
            _require(not os.path.isdir(args.out),
                     f"--out {args.out} is a directory")
            target = args.out if os.path.exists(args.out) else out_dir
            _require(os.access(target, os.W_OK),
                     f"--out {args.out} is not writable")
        t0 = time.time()
        inputs, outputs, certs = _COMMANDS[args.command](args)
        elapsed_ms = 1000.0 * (time.time() - t0)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "certificates": certs,
            "runtime_ms": None,
        }
        if args.format == "csv":
            payload = _scan_csv(report)
        else:
            payload = json.dumps(report, sort_keys=True, indent=2,
                                 allow_nan=False) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        print(f"{args.command}: {elapsed_ms:.0f} ms", file=sys.stderr)
        return 0
    except errors.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except errors.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except errors.NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    raise SystemExit(main())
