"""Numerical check of the Voronoi summation identity for Maass coefficient
sums twisted by additive characters.

The left side is a finite exact sum over the support of the bump; the right
side is the pair of dual sums against the Psi kernels. All approximation
error lives in the right side (kernel quadrature, truncation, coefficient
data), so the relative residual measures how automorphic the ingested
coefficients really are; a non-automorphic mock system must fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import PrimeModulus
from .errors import InsufficientData, NotCoprime
from .hecke import HeckeSystem
from .weights import TestFunction, psi_decay_ladder, psi_pm_many

RHS_TOL = 1e-8
# the minus-kernel ladder tail that the default truncation aims for
TAIL_TARGET = 1e-9


@dataclass
class VoronoiCheck:
    """Both sides of the identity with the truncation evidence.

    truncation_capped_at_reach is true when the default truncation stopped
    at the coefficient reach f.P_max with the minus-kernel tail certificate
    still above TAIL_TARGET, so that the dual sum is cut short of its target.
    """

    q: int
    d: int
    N: int
    psi_name: str
    lhs: complex
    rhs: complex
    rhs_truncation: int
    truncation_capped_at_reach: bool
    residual: float
    tail_certificate_plus: float
    tail_certificate_minus: float
    doubling_delta: float
    data_error_bound: float


def inverse_mod(d: int, mod: PrimeModulus) -> int:
    """The inverse of d modulo q; NotCoprime when q divides d."""
    q = mod.q
    r = d % q
    if r == 0:
        raise NotCoprime(f"d={d} shares a factor with q={q}")
    return pow(r, -1, q)


def voronoi_lhs(f: HeckeSystem, d: int, mod: PrimeModulus, N: int,
                psi: TestFunction) -> complex:
    """Sum over n of lambda_f(n) e(n dbar / q) psi(n / N); finite because
    psi is supported in [1, 2]."""
    q = mod.q
    dbar = inverse_mod(d, mod)
    if 2 * N > f.P_max:
        raise InsufficientData(
            f"left side needs coefficients to {2 * N}, reach is {f.P_max}")
    n = np.arange(N, 2 * N + 1)
    lam = f.coefficients_upto(2 * N)[N:]
    w = psi(n / N)
    phase = np.exp(2j * math.pi * ((n * dbar) % q) / q)
    return complex(np.sum(lam * phase * w))


def _ladder_tail(ladder, beta: float, q: int, M: int) -> float:
    """Upper bound for q sum_{n>M} |lambda(n)|/n |Psi(beta n)| from the
    contour-shift ladder, using |lambda(n)| <= 2 n^{0.61}."""
    best = math.inf
    for C, B in ladder:
        if C <= 0.7:
            continue
        log_cand = (math.log(2.0 * q * B / (C - 0.61))
                    - C * math.log(math.pi ** 2 * beta)
                    + (0.61 - C) * math.log(M))
        if log_cand < 700.0:
            best = min(best, math.exp(log_cand))
    return best


def rhs_truncation_default(f: HeckeSystem, mod: PrimeModulus, N: int) -> int:
    """Dual-sum truncation: start from the q^2 (log q)^2 / N window and grow
    until the minus-kernel ladder tail clears TAIL_TARGET, capped at the
    coefficient reach (the plus kernel dies far earlier; its ladder
    certificate is reported but is not sharp enough to steer truncation).
    voronoi_rhs reports whether the cap stopped it."""
    q = mod.q
    beta = N / q ** 2
    M = max(64, math.ceil(q ** 2 * math.log(q) ** 2 / N))
    minus = psi_decay_ladder(f.T_f, -1)
    while M < f.P_max and _ladder_tail(minus, beta, q, M) > TAIL_TARGET:
        M = min(2 * M, f.P_max)
    return M


def voronoi_rhs(f: HeckeSystem, d: int, mod: PrimeModulus, N: int,
                psi: TestFunction, truncation: int | None = None):
    """q-weighted dual sums against Psi_plus and Psi_minus.

    Returns (value, evidence) where evidence carries the truncation, the
    two ladder tail certificates, the truncation-halving delta, and the
    propagated coefficient-data error bound.  Its truncation_capped_at_reach
    is true when the default truncation stopped at f.P_max with the
    minus-kernel tail certificate above TAIL_TARGET, and false when the
    caller passed truncation.
    """
    q = mod.q
    inverse_mod(d, mod)    # validates coprimality
    M = truncation if truncation is not None else rhs_truncation_default(f, mod, N)
    if M > f.P_max:
        raise InsufficientData(
            f"dual sum needs coefficients to {M}, reach is {f.P_max}")
    n = np.arange(1, M + 1)
    lam = f.coefficients_upto(M)[1:]
    x = n * (N / q ** 2)
    pp, pm = psi_pm_many(x, psi, f.T_f)
    # e(n d / q) read from the q roots of unity, each the same expression
    phase = np.exp(2j * math.pi * np.arange(q) / q)[(n * (d % q)) % q]
    weight = lam / n
    term_p = weight * phase * pp
    term_m = weight * np.conj(phase) * pm
    value = q * (complex(np.sum(term_p)) + complex(np.sum(term_m)))
    half = M // 2
    value_half = q * (complex(np.sum(term_p[:half]))
                      + complex(np.sum(term_m[:half])))
    beta = N / q ** 2
    tail_minus = _ladder_tail(psi_decay_ladder(f.T_f, -1), beta, q, M)
    evidence = {
        "rhs_truncation": M,
        "truncation_capped_at_reach": (truncation is None and M == f.P_max
                                       and tail_minus > TAIL_TARGET),
        "tail_certificate_plus": _ladder_tail(
            psi_decay_ladder(f.T_f, +1), beta, q, M),
        "tail_certificate_minus": tail_minus,
        "doubling_delta": abs(value - value_half),
        "data_error_bound": float(
            q * f.data_precision * np.sum((np.abs(pp) + np.abs(pm)) / n)),
    }
    return value, evidence


def voronoi_check(f: HeckeSystem, d: int, mod: PrimeModulus, N: int,
                  psi: TestFunction) -> VoronoiCheck:
    """Evaluate both sides and the relative residual."""
    lhs = voronoi_lhs(f, d, mod, N, psi)
    rhs, ev = voronoi_rhs(f, d, mod, N, psi)
    return VoronoiCheck(
        q=mod.q, d=d, N=N, psi_name=psi.name,
        lhs=lhs, rhs=rhs,
        rhs_truncation=ev["rhs_truncation"],
        truncation_capped_at_reach=ev["truncation_capped_at_reach"],
        residual=abs(lhs - rhs) / (1.0 + abs(lhs)),
        tail_certificate_plus=ev["tail_certificate_plus"],
        tail_certificate_minus=ev["tail_certificate_minus"],
        doubling_delta=ev["doubling_delta"],
        data_error_bound=ev["data_error_bound"])
