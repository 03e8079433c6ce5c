"""Hecke eigenvalue systems: ingestion, extension by Hecke relations,
L(1,f), additive twists, and average-bound diagnostics.

A system carries lambda(p) for primes p up to a declared reach; every other
coefficient follows from the prime-power recursion and multiplicativity.
Values come either from a data file of computed Maass-form eigenvalues or
from a seeded mock generator (which satisfies the relations exactly but is
not automorphic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .characters import primes_up_to
from .errors import (BoundViolation, FormatError, GapError, InsufficientData,
                     NonConvergence)
from .weights import v1_many

THETA = 7.0 / 64.0


@dataclass
class HeckeSystem:
    """Hecke-normalized coefficient system for one even Maass cusp form."""

    T_f: float
    parity: str
    prime_coeffs: dict[int, float]
    P_max: int
    data_precision: float
    provenance: str
    coeff_cache: dict[int, float] = field(default_factory=dict)

    @property
    def is_mock(self) -> bool:
        return self.provenance == "mock"

    def coefficients_upto(self, N: int) -> np.ndarray:
        return coefficients_upto(self, N)

    @cached_property
    def l_one_value(self) -> float:
        """L(1, f) by l_one, computed once per system."""
        return l_one(self)


def _kim_sarnak(p: int) -> float:
    return p ** THETA + p ** (-THETA)


def load_hecke_data(source) -> HeckeSystem:
    """Parse an eigenvalue file (path or open text stream) into a HeckeSystem.

    Expected layout: "maass v1" / "T_f x" / "parity even" / "precision x" /
    "pmax N" header lines followed by "p lambda" lines in increasing prime
    order; '#' starts a comment.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
        name = getattr(source, "name", "<stream>")
    else:
        name = str(source)
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    body = []
    for ln in lines:
        ln = ln.split("#", 1)[0].strip()
        if ln:
            body.append(ln)
    if len(body) < 5:
        raise FormatError("eigenvalue file too short for header")
    if body[0] != "maass v1":
        raise FormatError(f"bad magic line: {body[0]!r}")
    try:
        tag, tf = body[1].split()
        assert tag == "T_f"
        T_f = float(tf)
        tag, par = body[2].split()
        assert tag == "parity"
        tag, prec = body[3].split()
        assert tag == "precision"
        precision = float(prec)
        tag, pm = body[4].split()
        assert tag == "pmax"
        P_max = int(pm)
    except (ValueError, AssertionError) as exc:
        raise FormatError(f"malformed header: {exc}") from exc
    if par != "even":
        raise FormatError(f"unsupported parity {par!r}")
    if precision <= 0 or P_max < 2:
        raise FormatError("precision must be positive and pmax >= 2")

    coeffs: dict[int, float] = {}
    last = 0
    for ln in body[5:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"malformed coefficient line: {ln!r}")
        try:
            p = int(parts[0])
            lam = float(parts[1])
        except ValueError as exc:
            raise FormatError(f"malformed coefficient line: {ln!r}") from exc
        if p <= last:
            raise FormatError(f"primes out of order at p={p}")
        last = p
        coeffs[p] = lam
    expected = primes_up_to(P_max)
    for p in expected:
        if int(p) not in coeffs:
            raise GapError(f"missing prime p={int(p)} below pmax={P_max}")
    for p, lam in coeffs.items():
        if abs(lam) > _kim_sarnak(p) + precision:
            raise BoundViolation(
                f"|lambda({p})| = {abs(lam):.6f} exceeds the Kim-Sarnak "
                f"bound {_kim_sarnak(p):.6f} beyond precision {precision:g}")
    return HeckeSystem(T_f=T_f, parity="even", prime_coeffs=coeffs,
                       P_max=P_max, data_precision=precision, provenance=name)


def mock_hecke_system(seed: int, P_max: int = 10000,
                      T_f: float = 13.779751351890) -> HeckeSystem:
    """Deterministic surrogate system with lambda(p) = 2 cos(theta_p).

    Satisfies every Hecke relation exactly but is not automorphic, so
    identities that require genuine automorphy (Voronoi) must fail for it.
    """
    rng = np.random.default_rng(seed)
    coeffs = {}
    for p in primes_up_to(P_max):
        coeffs[int(p)] = 2.0 * math.cos(math.pi * float(rng.random()))
    return HeckeSystem(T_f=T_f, parity="even", prime_coeffs=coeffs,
                       P_max=P_max, data_precision=0.0, provenance="mock")


def _prime_power(f: HeckeSystem, p: int, k: int) -> float:
    """lambda(p^k) by the recursion, cached through coeff_cache."""
    if k == 0:
        return 1.0
    n = p ** k
    hit = f.coeff_cache.get(n)
    if hit is not None:
        return hit
    lam_p = f.prime_coeffs[p]
    prev2, prev1 = 1.0, lam_p
    m = p
    for _ in range(2, k + 1):
        m *= p
        cur = f.coeff_cache.get(m)
        if cur is None:
            cur = lam_p * prev1 - prev2
            f.coeff_cache[m] = cur
        prev2, prev1 = prev1, cur
    f.coeff_cache.setdefault(p, lam_p)
    return prev1


def coefficients_upto(f: HeckeSystem, N: int) -> np.ndarray:
    """Dense array a with a[n] = lambda_f(n) for 1 <= n <= N (a[0] = 0).

    Sieve on smallest prime factors, so the whole range costs O(N log N)
    dictionary-free arithmetic.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in range(2, int(N ** 0.5) + 1):
        if spf[p] == 0:
            spf[p * p:: p][spf[p * p:: p] == 0] = p
    arr = np.zeros(N + 1)
    arr[1] = 1.0
    for n in range(2, N + 1):
        p = int(spf[n]) or n
        if p > f.P_max:
            raise InsufficientData(
                f"prime factor {p} of n={n} exceeds data reach {f.P_max}")
        m = n
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        arr[n] = _prime_power(f, p, k) * arr[m]
    return arr


def average_bound_report(f: HeckeSystem, x_grid) -> dict:
    """First and second absolute moments of lambda over n <= x, for each x
    in x_grid.

    Rankin-Selberg theory makes both ratios O(1); the report flags any ratio
    above 10 as anomalous.
    """
    x_grid = [int(x) for x in x_grid]
    if min(x_grid) < 1:
        raise ValueError("grid points must be >= 1")
    arr = coefficients_upto(f, max(x_grid))
    a1 = np.concatenate([[0.0], np.cumsum(np.abs(arr[1:]))])
    a2 = np.concatenate([[0.0], np.cumsum(arr[1:] ** 2)])
    rows = []
    for x in x_grid:
        rows.append({
            "x": x,
            "mean_abs": float(a1[x] / x),
            "mean_square": float(a2[x] / x),
        })
    worst = max(max(r["mean_abs"], r["mean_square"]) for r in rows)
    return {"rows": rows, "max_ratio": worst, "flagged": worst > 10.0}


def additive_twist(f: HeckeSystem, alpha: float, N: int) -> complex:
    """Sum over n <= N of lambda_f(n) e(alpha n), by direct summation."""
    arr = coefficients_upto(f, N)
    n = np.arange(1, N + 1)
    return complex(np.sum(arr[1:] * np.exp(2j * np.pi * alpha * n)))


# ---------------------------------------------------------------------------
# L(1, f) by smoothed truncation with independent cutoffs

def _smoothed_sum(f: HeckeSystem, X: float, cutoff: str) -> float:
    """Sum of lambda(n)/n * W(n/X) with W either the V1 weight or the
    Gaussian; truncated where W is below 1e-16."""
    N = min(int(3.4 * X) + 2, f.P_max)
    arr = coefficients_upto(f, N)
    n = np.arange(1, N + 1)
    x = n / X
    if cutoff == "v1":
        w = v1_many(x)
    elif cutoff == "gauss":
        w = np.exp(-math.pi * x * x)
    else:
        raise ValueError(f"unknown cutoff {cutoff!r}")
    return float(np.sum(arr[1:] / n * w))


def _richardson(vals, alphas):
    """Eliminate X^-alpha error terms from values at X, 2X, 4X, ..."""
    cur = list(vals)
    for a in alphas:
        k = 2.0 ** a
        cur = [(k * cur[j + 1] - cur[j]) / (k - 1) for j in range(len(cur) - 1)]
    return cur[0]


# Each cutoff's error ladder: its own Mellin-kernel poles, plus a 3/4 stage.
# For a genuine cusp form L(1+s, f) is entire and the 3/4 stage eliminates
# nothing (exactly); for zeta-structured surrogate systems (e.g. the
# all-lambda(p)=0 mock, whose series is zeta(4+4s)/zeta(2+2s)) it removes
# the leading continuation pole at s = -3/4.
_LADDERS = {"gauss": (2.0, 4.0, 0.75), "v1": (0.5, 2.5, 0.75)}
_N_LEVELS = 4


def l_one_report(f: HeckeSystem, X: float | None = None) -> dict:
    """L(1, f) with a two-cutoff agreement certificate and diagnostics.

    Each cutoff is Richardson-extrapolated against its own pole ladder and
    the two independent answers must agree; their disagreement is the
    reported error estimate.
    """
    top = 2.0 ** (_N_LEVELS - 1)
    if X is None:
        X = f.P_max / (3.4 * top)
    if 3.4 * top * X > f.P_max + 2:
        raise InsufficientData(
            f"cutoff scale X={X:g} needs coefficients beyond reach {f.P_max}")
    vals = {}
    for cutoff, ladder in _LADDERS.items():
        seq = [_smoothed_sum(f, X * 2 ** j, cutoff) for j in range(_N_LEVELS)]
        vals[cutoff] = _richardson(seq, ladder)
    return {
        "value": 0.5 * (vals["gauss"] + vals["v1"]),
        "gauss_cutoff": vals["gauss"],
        "v1_cutoff": vals["v1"],
        "disagreement": abs(vals["gauss"] - vals["v1"]),
        "X": X,
    }


def l_one(f: HeckeSystem, X: float | None = None) -> float:
    """L(1, f); see l_one_report for the convergence contract."""
    rep = l_one_report(f, X)
    if rep["disagreement"] > 1e-4:
        raise NonConvergence(
            f"cutoff disagreement {rep['disagreement']:.2e} exceeds 1e-4")
    return rep["value"]
