"""Central L-values: approximate functional equations for L(1/2, chi) and
L(1/2, f x chi), plus an independent Hurwitz-zeta oracle for the Dirichlet
case.

The Dirichlet AFE is kept in its conjugated orientation: it evaluates
L(1/2, conj(chi)), exactly the factor the moment assembly consumes. The
oracle goes through the finite decomposition
L(s, chi) = q^{-s} sum_a chi(a) zeta(s, a/q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bernoulli

from .characters import DirichletCharacter
from .errors import (InsufficientData, OddCharacter, PoleError,
                     PrincipalCharacter)
from .expsums import gauss_sum
from . import weights
from .hecke import HeckeSystem
from .weights import v1_bound, v1_many, v2_decay_ladder, v2_many

HURWITZ_TOL = 1e-12

_EM_ORDER = 11                       # number of even Bernoulli correction terms
_BERNOULLI = bernoulli(2 * _EM_ORDER + 2)


@dataclass(frozen=True)
class CentralValue:
    """A computed central L-value with its method and truncation metadata."""

    value: complex
    method: str                 # "afe" or "hurwitz_oracle"
    q: int
    k: int
    twist: str | None           # provenance of the twisting coefficient system
    cutoff: int
    err_estimate: float


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s}, continued, by Euler-Maclaurin.

    The correction-series remainder is bounded by the standard alternating
    estimate and driven below HURWITZ_TOL by growing the direct-sum length.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, a) has a pole at s = 1")
    if not (0.0 < a <= 1.0):
        raise ValueError("a must lie in (0, 1]")
    sig = s.real
    # N large enough that the remainder bound below clears the tolerance
    N = max(12, int(abs(s)) + 8)
    for _ in range(40):
        x = N + a
        # remainder of the Euler-Maclaurin correction series after _EM_ORDER
        # even terms: |R| <= |B_{2K+2}/(2K+2)! (s)_{2K+1} x^{-s-2K-1}|
        #                    * |s+2K+1| / (sigma+2K+1)
        K = _EM_ORDER
        poch = 1.0
        for j in range(2 * K + 1):
            poch *= abs(s + j)
        rem = (abs(_BERNOULLI[2 * K + 2]) / math.factorial(2 * K + 2)
               * poch * x ** (-(sig + 2 * K + 1))
               * abs(s + 2 * K + 1) / (sig + 2 * K + 1))
        if rem <= 0.005 * HURWITZ_TOL:
            break
        N *= 2
    n = np.arange(N)
    head = complex(np.sum((n + a) ** (-s)))
    x = N + a
    val = head + x ** (1 - s) / (s - 1) + 0.5 * x ** (-s)
    term = x ** (-s)
    fac = 1.0
    for k in range(1, _EM_ORDER + 1):
        term /= x * x
        fac *= (2 * k - 1) * (2 * k)
        # term*x carries x^{-s-2k+1}; poch is the rising factorial (s)_{2k-1}
        if k == 1:
            poch = s
        else:
            poch = poch * (s + 2 * k - 3) * (s + 2 * k - 2)
        val += _BERNOULLI[2 * k] / fac * poch * term * x
    return complex(val)


def dirichlet_central_oracle(chi: DirichletCharacter) -> CentralValue:
    """L(1/2, chi) by q^{-1/2} sum_a chi(a) zeta(1/2, a/q)."""
    if chi.is_principal:
        raise PrincipalCharacter("oracle requires a primitive character")
    q = chi.q
    acc = 0.0 + 0.0j
    for a in range(1, q):
        acc += chi(a) * hurwitz_zeta(0.5, a / q)
    val = acc / math.sqrt(q)
    return CentralValue(value=complex(val), method="hurwitz_oracle", q=q,
                        k=chi.k, twist=None, cutoff=q - 1,
                        err_estimate=(q - 1) * HURWITZ_TOL)


def _require_even_primitive(chi: DirichletCharacter):
    if chi.is_principal:
        raise PrincipalCharacter("AFE requires a primitive character")
    if not chi.is_even:
        raise OddCharacter("AFE weights cover even characters only")


def afe1_cutoff(q: int) -> int:
    return math.ceil(math.sqrt(q) * math.log(q) ** 2)


def afe1_err_estimate(q: int, M: int) -> float:
    """Certified truncation-plus-quadrature error of either (afe1) branch pair.

    V1 decays superexponentially, so a short explicit extension plus one
    comparison term covers everything past the cutoff; character independent.
    """
    ext = np.arange(M + 1, M + 64)
    tail_terms = np.array([v1_bound(t / math.sqrt(q)) for t in ext]) / np.sqrt(ext)
    tail = 2.0 * (float(np.sum(tail_terms)) + 64.0 * tail_terms[-1])
    return tail + 2.0 * 1e-12 * float(np.sum(1.0 / np.sqrt(np.arange(1, M + 1))))


def dirichlet_central_afe(chi: DirichletCharacter,
                          cutoff: int | None = None) -> CentralValue:
    """L(1/2, conj(chi)) by the even-character approximate functional
    equation: two V1-weighted sums joined by the root number tau(conj chi)/sqrt q.

    Note the orientation: the returned value is L(1/2, conj(chi)), which is
    conj(L(1/2, chi)); the moment assembly consumes exactly this factor.
    """
    _require_even_primitive(chi)
    q = chi.q
    M = cutoff if cutoff is not None else afe1_cutoff(q)
    m = np.arange(1, M + 1)
    w = v1_many(m / math.sqrt(q))
    coef = w / np.sqrt(m)
    vals = chi.values(m)
    s_conj = complex(np.sum(np.conj(vals) * coef))
    s_plain = complex(np.sum(vals * coef))
    root = gauss_sum(chi.conj()) / math.sqrt(q)
    value = s_conj + root * s_plain
    return CentralValue(value=value, method="afe", q=q, k=chi.k, twist=None,
                        cutoff=M, err_estimate=afe1_err_estimate(q, M))


def afe2_cutoff(q: int) -> int:
    return min(math.ceil(q * math.log(q) ** 2), math.ceil(7.2 * q))


def _v2_tail_certificate(N: int, q: int, T_f: float) -> float:
    """Upper bound for the truncated part of either (afe2) branch.

    Uses |lambda(n)| <= 2 n^{0.61} (divisor times the spectral bound over the
    working range) against the V2 decay ladder |V2(x)| <= B_C (pi x)^{-C}.
    """
    best = math.inf
    for C, B in v2_decay_ladder(T_f):
        if C <= 1.2:
            continue
        log_cand = (math.log(2.0 * B) + C * math.log(q / math.pi)
                    + (1.11 - C) * math.log(N) - math.log(C - 1.11))
        if log_cand < 700.0:
            best = min(best, math.exp(log_cand))
    return best


def afe2_err_estimate(f: HeckeSystem, q: int, N: int,
                      abs_coef: np.ndarray) -> float:
    """Error of either (afe2) branch pair: decay-ladder tail plus weight and
    coefficient-data contributions; abs_coef is the array
    |lambda(n) V2(n/q)| / sqrt(n) over the kept range.

    The per-point V2 error is weights._V_TOL, read at call time: v2_many
    reads every value from the contour engine, which refuses a call whose
    stated error (aliasing, truncation and interpolation) exceeds _V_TOL / 2
    at any point."""
    n = np.arange(1, N + 1)
    tail = 2.0 * _v2_tail_certificate(N, q, f.T_f)
    quad = 2.0 * weights._V_TOL * float(np.sum(2.0 * n ** 0.11 / np.sqrt(n)))
    return tail + quad + 2.0 * f.data_precision * float(np.sum(abs_coef))


def twist_central_afe(f: HeckeSystem, chi: DirichletCharacter,
                      cutoff: int | None = None) -> CentralValue:
    """L(1/2, f x chi) by its approximate functional equation: two
    V2-weighted coefficient sums joined by the root number tau(chi)^2 / q."""
    _require_even_primitive(chi)
    q = chi.q
    N = cutoff if cutoff is not None else afe2_cutoff(q)
    if N > f.P_max:
        raise InsufficientData(
            f"AFE cutoff {N} exceeds coefficient reach {f.P_max}")
    lam = f.coefficients_upto(N)[1:]
    n = np.arange(1, N + 1)
    w = v2_many(n / q, f.T_f)
    coef = lam * w / np.sqrt(n)
    vals = chi.values(n)
    s_plain = complex(np.sum(vals * coef))
    s_conj = complex(np.sum(np.conj(vals) * coef))
    root = gauss_sum(chi) ** 2 / q
    value = s_plain + root * s_conj
    err = afe2_err_estimate(f, q, N, np.abs(coef))
    return CentralValue(value=value, method="afe", q=q, k=chi.k,
                        twist=f.provenance, cutoff=N, err_estimate=err)
