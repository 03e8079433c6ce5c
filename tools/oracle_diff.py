#!/usr/bin/env python3
"""Compare two `lmoment scan`, `lmoment moment` or `lmoment voronoi` reports.

    python tools/oracle_diff.py OLD.json NEW.json

Scan reports are compared row by row. The tool prints the largest
|delta ratio|, |delta L(1, f)| and relative |delta moment| over the moduli,
and whether every modulus keeps the same witness set and count. They agree
unless a ratio or L(1, f) moves by more than 1e-10, a witness set or count
differs, or the moduli differ.

Moment reports are compared as a scan of one row, and their inputs must be
equal. err_twist and err_dirichlet are bound certificates: the tool prints
the relative move of each, and the reports agree only if neither grows by
more than 1e-10 relative.

Voronoi reports are compared for one case. The tool prints |delta rhs|,
|delta residual| and the relative move of each certificate. They agree when
the case, rhs_truncation, truncation_capped_at_reach and negative_control are
equal, |delta rhs| <= 1e-10, and no bound certificate (the two tail
certificates and data_error_bound) grows by more than 1e-10 relative.
doubling_delta is not a bound but the difference of two partial sums of the
rhs, a few 1e-12 on real data, whose last bits move with any rounding of the
rhs; its growth is held to the absolute 1e-10 of |delta rhs|.

Exits 0 when the reports agree, 1 when they differ, and 2 when a file is not
a scan, moment or voronoi report or the two reports are of different
commands.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

TOL = 1e-10
COMMANDS = ("scan", "moment", "voronoi")
VORONOI_FLAGS = ("rhs_truncation", "truncation_capped_at_reach",
                 "negative_control")
MOMENT_BOUNDS = ("err_twist", "err_dirichlet")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("command") not in COMMANDS:
        raise ValueError(f"{path}: not an lmoment scan, moment or voronoi "
                         "report")
    return doc


def _rows(doc: dict) -> dict:
    return {row["q"]: row for row in doc["outputs"]["rows"]}


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """(report lines, agree) for two {q: row} maps; no verdict line."""
    lines = []
    agree = True
    if sorted(old) != sorted(new):
        lines.append(f"moduli differ: {len(old)} old rows, {len(new)} new rows")
        agree = False
    common = sorted(set(old) & set(new))
    d_ratio = d_lone = d_moment = 0.0
    q_ratio = q_lone = q_moment = None
    set_diff, count_diff = [], []
    for q in common:
        a, b = old[q], new[q]
        d = abs(a["ratio"] - b["ratio"])
        if d >= d_ratio:
            d_ratio, q_ratio = d, q
        d = abs(a["l_one"] - b["l_one"])
        if d >= d_lone:
            d_lone, q_lone = d, q
        ma = complex(a["moment"]["re"], a["moment"]["im"])
        mb = complex(b["moment"]["re"], b["moment"]["im"])
        d = abs(ma - mb) / abs(ma) if ma else abs(mb)
        if d >= d_moment:
            d_moment, q_moment = d, q
        if {w["k"] for w in a["witnesses"]} != {w["k"] for w in b["witnesses"]}:
            set_diff.append(q)
        if a["n_witnesses"] != b["n_witnesses"]:
            count_diff.append(q)
    lines += [
        f"moduli compared: {len(common)}",
        f"max |d ratio|: {d_ratio:.2e} (q={q_ratio})",
        f"max |d L(1, f)|: {d_lone:.2e} (q={q_lone})",
        f"max relative |d moment|: {d_moment:.2e} (q={q_moment})",
        f"witness sets identical: {len(common) - len(set_diff)} of {len(common)}"
        + (f", differ at q={set_diff}" if set_diff else ""),
        f"witness counts identical: {len(common) - len(count_diff)} of "
        f"{len(common)}" + (f", differ at q={count_diff}" if count_diff else ""),
    ]
    agree = (agree and d_ratio <= TOL and d_lone <= TOL
             and not set_diff and not count_diff)
    return lines, agree


def _relative_move(a: float, b: float) -> float:
    if a:
        return (b - a) / abs(a)
    return 0.0 if b == a else math.copysign(math.inf, b - a)


def _certificates(oc: dict, nc: dict, keys,
                  absolute=()) -> tuple[list[str], bool]:
    """(report lines, agree) for the certificates keys of two reports: each
    a bound that may not grow by more than TOL relative, or by more than
    TOL absolute for the keys in absolute."""
    lines, agree = [], True
    for key in keys:
        if key not in oc or key not in nc:
            lines.append(f"{key}: only in {'new' if key in nc else 'old'}")
            agree = False
            continue
        a, b = oc[key], nc[key]
        rel = _relative_move(a, b)
        grew = b - a > TOL if key in absolute else rel > TOL
        lines.append(f"{key}: {a:.6e} -> {b:.6e} (relative move {rel:+.2e})"
                     + ("  GREW" if grew else ""))
        agree = agree and not grew
    return lines, agree


def compare_moment(old: dict, new: dict) -> tuple[list[str], bool]:
    """(report lines, agree) for two moment report documents; no verdict
    line."""
    oo, no = old["outputs"], new["outputs"]
    same_inputs = old["inputs"] == new["inputs"]
    lines = [] if same_inputs else [
        f"inputs differ: {old['inputs']} -> {new['inputs']}"]
    row_lines, rows_agree = compare({oo["q"]: oo}, {no["q"]: no})
    cert_lines, certs_agree = _certificates(
        old["certificates"], new["certificates"], MOMENT_BOUNDS)
    return (lines + row_lines + cert_lines,
            same_inputs and rows_agree and certs_agree)


def compare_voronoi(old: dict, new: dict) -> tuple[list[str], bool]:
    """(report lines, agree) for two voronoi report documents; no verdict
    line."""
    oo, no = old["outputs"], new["outputs"]
    agree = old["inputs"] == new["inputs"]
    lines = [f"case: q={oo['q']} d={oo['d']} N={oo['N']}"
             + ("" if agree else f", new inputs {new['inputs']}")]
    d_rhs = abs(complex(no["rhs"]["re"], no["rhs"]["im"])
                - complex(oo["rhs"]["re"], oo["rhs"]["im"]))
    lines += [f"|d rhs|: {d_rhs:.2e}",
              f"|d residual|: {abs(no['residual'] - oo['residual']):.2e}"]
    agree = agree and d_rhs <= TOL
    for key in VORONOI_FLAGS:
        same = oo[key] == no[key]
        lines.append(f"{key}: {oo[key]} -> {no[key]}"
                     + ("" if same else "  DIFFER"))
        agree = agree and same
    oc, nc = old["certificates"], new["certificates"]
    cert_lines, certs_agree = _certificates(
        oc, nc, sorted(set(oc) | set(nc)), absolute=("doubling_delta",))
    return lines + cert_lines, agree and certs_agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    try:
        old, new = _load(args.old), _load(args.new)
        if old["command"] != new["command"]:
            raise ValueError(f"cannot compare a {old['command']} report with "
                             f"a {new['command']} report")
    except ValueError as exc:
        print(f"oracle_diff: {exc}", file=sys.stderr)
        return 2
    if old["command"] == "scan":
        lines, agree = compare(_rows(old), _rows(new))
    elif old["command"] == "moment":
        lines, agree = compare_moment(old, new)
    else:
        lines, agree = compare_voronoi(old, new)
    lines.append("verdict: " + ("agree" if agree else "DIFFER"))
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
