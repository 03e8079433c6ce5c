"""Independent output checks for the lmoment benchmark.

Nothing in this module imports lmoment. Every reference is computed from the
eigenvalue file with numpy, scipy, sympy and mpmath, so a fault in the
program cannot hide inside its own oracle, and no check compares against a
stored copy of earlier output.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gammaincc
from sympy.ntheory import primitive_root

# Main term (q-2)/2 L(1, f): the moment ratio must stay in this band
# (acceptance criterion 7 uses the same band).
RATIO_BAND = (0.3, 1.7)
# Imaginary and decomposition residuals of the family sum.
RESIDUAL_TOL = 1e-9
# The program's own stated accuracy for its default V1 and V2 specs; values
# are observed within 3e-12 of the references.
V2_TOL = 1e-10
V1_TOL = 1e-10
# Added to the program's err_dirichlet: covers the rounding of q - 1 double
# precision Hurwitz values in the reference sum (observed below 1e-13).
WITNESS_SLACK = 1e-10
# L(1, f): the reference below agrees with the program to 7e-11.
L_ONE_TOL = 1e-8
# Voronoi: today's residual is 7.9e-11 at truncation 16000; 1e-9 is the
# tail target the program's truncation rule aims for.
VORONOI_TOL = 1e-9
# The left side is an exact finite sum; two summation orders agree to this.
LHS_TOL = 1e-12


# ---------------------------------------------------------------------------
# coefficient data

def read_eigenvalues(path):
    """(T_f, P_max, {p: lambda(p)}) from an eigenvalue file."""
    header = {}
    coeffs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].split()
            if len(line) != 2 or line[0] == "maass":
                continue
            if line[0].isdigit():
                coeffs[int(line[0])] = float(line[1])
            else:
                header[line[0]] = line[1]
    return float(header["T_f"]), int(header["pmax"]), coeffs


def coefficients(prime_coeffs: dict, N: int) -> np.ndarray:
    """a[n] = lambda(n) for n <= N (a[0] = 0), from the Hecke relations
    lambda(p^k) = lambda(p) lambda(p^(k-1)) - lambda(p^(k-2)) and
    multiplicativity, over a smallest-prime-factor sieve."""
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in sorted(prime_coeffs):
        if p > N:
            break
        col = spf[p::p]
        col[col == 0] = p
    lam = np.zeros(N + 1)
    lam[1] = 1.0
    for n in range(2, N + 1):
        p = int(spf[n])
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        lp = prime_coeffs[p]
        prev, cur = 1.0, lp
        for _ in range(k - 1):
            prev, cur = cur, lp * cur - prev
        lam[n] = cur * lam[m]
    return lam


# ---------------------------------------------------------------------------
# L(1, f)

def l_one_reference(lam: np.ndarray) -> float:
    """sum lambda(n)/n exp(-pi (n/X)^2) at X = 2000 and 4000, with one
    Richardson step against the X^-2 term of the Gaussian cutoff."""
    n = np.arange(1, lam.size)

    def smoothed(X):
        return float(np.sum(lam[1:] / n * np.exp(-math.pi * (n / X) ** 2)))

    return (4.0 * smoothed(4000.0) - smoothed(2000.0)) / 3.0


def check_l_one(value: float, reference: float) -> list[str]:
    if not abs(value - reference) <= L_ONE_TOL:
        return [f"L(1, f) = {value!r} differs from the reference "
                f"{reference!r} by more than {L_ONE_TOL:g}"]
    return []


# ---------------------------------------------------------------------------
# weights

def v1_reference(x) -> np.ndarray:
    """V1(x) = Q(1/4, pi x^2), the regularized upper incomplete gamma."""
    x = np.asarray(x, dtype=float)
    return gammaincc(0.25, math.pi * x * x)


def v2_reference(x: float, T_f: float) -> float:
    """V2(x) = (1/2 pi i) int_(1) G(s) (pi x)^-s ds/s by its residue series.

    G(s) = Gamma((2s+1+a)/4) Gamma((2s+1-a)/4) / G_norm with a = 2i T_f.
    Moving the contour to the left picks up 1 at s = 0 and, at the poles
    s_k = -(1+a)/2 - 2k and their conjugates,
    2 (-1)^k / k! Gamma(-a/2 - k) (pi x)^(-s_k) / (s_k G_norm).
    The terms grow like (pi x)^2k / k!^2 before they decay, so the sum runs
    at 60 digits. The test suite compares this series against an mpmath
    quadrature of the same Mellin integral.
    """
    with mpmath.workdps(60):
        a = mpmath.mpc(0, 2 * T_f)
        norm = mpmath.gamma((1 + a) / 4) * mpmath.gamma((1 - a) / 4)
        px = mpmath.pi * mpmath.mpf(x)
        gam = mpmath.gamma(-a / 2)
        fact = mpmath.mpf(1)
        total = mpmath.mpc(0)
        tiny = mpmath.mpf(10) ** -40
        k = 0
        while True:
            if k:
                gam /= -a / 2 - k
                fact *= k
            s_k = -(1 + a) / 2 - 2 * k
            term = 2 * (-1) ** k / fact * gam * mpmath.power(px, -s_k) / s_k
            total += term
            if k > px and abs(term) < tiny:
                break
            k += 1
        return float(1 + 2 * mpmath.re(total / norm))


def check_v1(xs, values) -> list[str]:
    err = np.abs(np.asarray(values) - v1_reference(xs))
    i = int(np.argmax(err))
    if not err[i] <= V1_TOL:
        return [f"V1({xs[i]!r}) off gammaincc by {err[i]:.2e} > {V1_TOL:g}"]
    return []


def check_v2(xs, values, T_f: float) -> list[str]:
    out = []
    for x, v in zip(xs, values):
        ref = v2_reference(float(x), T_f)
        if not abs(v - ref) <= V2_TOL:
            out.append(f"V2({x!r}) = {v!r}, residue series {ref!r}, "
                       f"off by more than {V2_TOL:g}")
    return out


# ---------------------------------------------------------------------------
# Dirichlet central values

def hurwitz_table(q: int) -> np.ndarray:
    """zeta(1/2, a/q) for a = 1..q-1 (index a-1), from mpmath."""
    return np.array([float(mpmath.zeta(0.5, mpmath.mpf(a) / q))
                     for a in range(1, q)])


def dlog_table(q: int) -> np.ndarray:
    """dlog[a] with g^dlog[a] = a mod q for the least primitive root g."""
    g = int(primitive_root(q))
    dlog = np.zeros(q, dtype=np.int64)
    a = 1
    for j in range(q - 1):
        dlog[a] = j
        a = a * g % q
    return dlog


def dirichlet_abs(q: int, k: int, zetas: np.ndarray,
                  dlog: np.ndarray) -> float:
    """|L(1/2, chi_k)| = q^-1/2 |sum_a chi_k(a) zeta(1/2, a/q)| with
    chi_k(g^j) = e(kj/(q-1))."""
    chi = np.exp(2j * math.pi * k * dlog[1:] / (q - 1))
    return abs(complex(np.sum(chi * zetas))) / math.sqrt(q)


def check_witnesses(q: int, witnesses, err_dirichlet: float,
                    zetas: np.ndarray, dlog: np.ndarray) -> list[str]:
    """witnesses: (k, |L(1/2, f x chi_k)|, |L(1/2, chi_k)|) triples."""
    out = []
    tol = err_dirichlet + WITNESS_SLACK
    for k, _tmag, dmag in witnesses:
        ref = dirichlet_abs(q, int(k), zetas, dlog)
        if not abs(dmag - ref) <= tol:
            out.append(f"q={q} k={k}: |L(1/2, chi)| = {dmag!r}, Hurwitz "
                       f"reference {ref!r}, off by more than {tol:.2e}")
    return out


# ---------------------------------------------------------------------------
# the moment itself

def check_moment(q: int, moment: complex, cross_terms: dict,
                 main_term: float, ratio: float, n_witnesses: int,
                 n_characters: int, l_one_value: float) -> list[str]:
    out = []
    want_main = (q - 2) / 2.0 * l_one_value
    if not abs(main_term - want_main) <= 1e-12 * abs(want_main):
        out.append(f"q={q}: main term {main_term!r}, want {want_main!r}")
    want_ratio = moment.real / want_main
    if not abs(ratio - want_ratio) <= 1e-12 * abs(want_ratio):
        out.append(f"q={q}: ratio {ratio!r}, want {want_ratio!r}")
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        out.append(f"q={q}: ratio {ratio!r} outside {RATIO_BAND}")
    if n_characters != (q - 3) // 2:
        out.append(f"q={q}: {n_characters} characters, want {(q - 3) // 2}")
    if n_witnesses < 1:
        out.append(f"q={q}: no nonvanishing witness")
    imag = abs(moment.imag) / (1.0 + abs(moment))
    if not imag <= RESIDUAL_TOL:
        out.append(f"q={q}: imaginary residual {imag:.2e}")
    decomp = abs(sum(cross_terms.values()) - moment) / abs(moment)
    if not decomp <= RESIDUAL_TOL:
        out.append(f"q={q}: decomposition residual {decomp:.2e}")
    return out


# ---------------------------------------------------------------------------
# Voronoi

def bump(x) -> np.ndarray:
    """exp(4 - 1/(u(1-u))), u = x - 1, on (1, 2); zero elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    inside = (x > 1.0) & (x < 2.0)
    u = x[inside] - 1.0
    out[inside] = np.exp(4.0 - 1.0 / (u * (1.0 - u)))
    return out


def voronoi_lhs_reference(lam: np.ndarray, q: int, d: int, N: int) -> complex:
    """sum over N <= n <= 2N of lambda(n) e(n dbar/q) psi(n/N), exactly the
    finite left side; the phases are taken from n dbar mod q."""
    dbar = pow(d, -1, q)
    n = np.arange(N, 2 * N + 1)
    phase = np.exp(2j * math.pi * (n * dbar % q) / q)
    return complex(np.sum(lam[N:2 * N + 1] * bump(n / N) * phase))


def check_voronoi(lhs: complex, rhs: complex, reference_lhs: complex) -> list[str]:
    out = []
    scale = 1.0 + abs(reference_lhs)
    if not abs(lhs - reference_lhs) <= LHS_TOL * scale:
        out.append(f"left side {lhs!r} differs from the exact sum "
                   f"{reference_lhs!r}")
    residual = abs(reference_lhs - rhs) / scale
    if not residual <= VORONOI_TOL:
        out.append(f"dual-sum residual {residual:.2e} > {VORONOI_TOL:g}")
    return out
