#!/usr/bin/env python3
"""Compare two `lmoment scan` JSON reports row by row.

    python tools/oracle_diff.py OLD.json NEW.json

Prints the largest |delta ratio|, |delta L(1, f)| and relative |delta moment|
over the moduli, and whether every modulus keeps the same witness set and
count. Exits 0 when the reports agree, 1 when a ratio or L(1, f) moves by
more than 1e-10, a witness set or count differs, or the moduli differ.
"""

from __future__ import annotations

import argparse
import json
import sys

TOL = 1e-10


def _rows(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("command") != "scan":
        raise SystemExit(f"{path}: not an lmoment scan report")
    return {row["q"]: row for row in doc["outputs"]["rows"]}


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """(report lines, agree) for two {q: row} maps."""
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
    lines.append("verdict: " + ("agree" if agree else "DIFFER"))
    return lines, agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    lines, agree = compare(_rows(args.old), _rows(args.new))
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
