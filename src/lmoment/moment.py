"""Twisted first moment over even primitive characters: assembly, its four
cross terms, nonvanishing witnesses, and scans over prime moduli.

Everything reduces to sums of the form sum_m c_m chi_k(m) over all even
primitive k at once. Bucketing c_m by the discrete logarithm of m mod q turns
the whole character family into a single length-(q-1) DFT, so one modulus
costs two FFTs plus the weight evaluations, not O(q) separate series.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .characters import (PrimeModulus, build_modulus, even_primitive_indices,
                         primes_in_range)
from .errors import InsufficientData, ModulusTooSmall
from .expsums import gauss_sums_all
from .hecke import HeckeSystem
from .lvalues import (afe1_cutoff, afe1_err_estimate, afe2_cutoff,
                      afe2_err_estimate, v1_many, v2_many)

CROSS_KEYS = ("S1S3", "S1S4", "S2S3", "S2S4")


class Witnesses(Sequence):
    """Nonvanishing witnesses (k, |L(1/2, f x chi_k)|, |L(1/2, chi_k)|),
    held as three arrays (20 bytes a witness) and read like a list of
    tuples; equality compares values."""

    __slots__ = ("k", "twist_mag", "dirichlet_mag")

    def __init__(self, k, twist_mag, dirichlet_mag):
        self.k = np.asarray(k, dtype=np.int32)
        self.twist_mag = np.asarray(twist_mag, dtype=float)
        self.dirichlet_mag = np.asarray(dirichlet_mag, dtype=float)

    def __len__(self) -> int:
        return self.k.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Witnesses(self.k[i], self.twist_mag[i], self.dirichlet_mag[i])
        return (int(self.k[i]), float(self.twist_mag[i]),
                float(self.dirichlet_mag[i]))

    def __iter__(self):
        return zip(self.k.tolist(), self.twist_mag.tolist(),
                   self.dirichlet_mag.tolist())

    def __eq__(self, other):
        if isinstance(other, Witnesses):
            return (np.array_equal(self.k, other.k)
                    and np.array_equal(self.twist_mag, other.twist_mag)
                    and np.array_equal(self.dirichlet_mag, other.dirichlet_mag))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return Witnesses, (self.k, self.twist_mag, self.dirichlet_mag)

    def __repr__(self) -> str:
        return f"Witnesses({list(self)!r})"


@dataclass
class MomentReport:
    """One modulus worth of twisted-moment output."""

    q: int
    moment: complex
    main_term: float
    ratio: float
    cross_terms: dict[str, complex]
    witnesses: Witnesses
    n_characters: int
    l_one_value: float
    cutoffs: dict[str, int] = field(default_factory=dict)
    err_twist: float = 0.0
    err_dirichlet: float = 0.0


def _char_dft(mod: PrimeModulus, idx: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """F[k] = sum over terms of coef * chi_k(residue), all k at once.

    idx holds each term's dlog class; bucketing then one DFT in the
    +kj orientation (matching chi_k(g^j) = e(kj/(q-1))).
    """
    T = np.zeros(mod.q - 1, dtype=complex)
    np.add.at(T, idx, coef)
    return np.conj(np.fft.fft(np.conj(T)))


@dataclass
class _FamilyTables:
    """Per-modulus branch values for the whole character family."""

    A: np.ndarray          # A[k] = sum_n lambda(n) n^{-1/2} V2(n/q) chi_k(n)
    B: np.ndarray          # B[k] = sum_m m^{-1/2} V1(m/sqrt q) chi_k(m)
    tau: np.ndarray        # Gauss sums tau(chi_k)
    M_cut: int
    N_cut: int
    err_twist: float
    err_dirichlet: float


def _family_tables(f: HeckeSystem, mod: PrimeModulus) -> _FamilyTables:
    q = mod.q
    M = afe1_cutoff(q)
    N = afe2_cutoff(q)
    if N > f.P_max:
        raise InsufficientData(
            f"modulus {q} needs coefficients to {N}, reach is {f.P_max}")

    m = np.arange(1, M + 1)
    w1 = v1_many(m / math.sqrt(q))
    c1 = w1 / np.sqrt(m)
    r = m % q
    keep = r != 0
    B = _char_dft(mod, mod.dlog[r[keep]], c1[keep])

    n = np.arange(1, N + 1)
    lam = f.coefficients_upto(N)[1:]
    w2 = v2_many(n / q, f.T_f)
    c2 = lam * w2 / np.sqrt(n)
    r = n % q
    keep = r != 0
    A = _char_dft(mod, mod.dlog[r[keep]], c2[keep])

    return _FamilyTables(
        A=A, B=B, tau=gauss_sums_all(mod), M_cut=M, N_cut=N,
        err_twist=afe2_err_estimate(f, q, N, np.abs(c2)),
        err_dirichlet=afe1_err_estimate(q, M))


def _branches(tab: _FamilyTables, q: int, k: np.ndarray):
    """(S1, S2, S3, S4) for every chi_k, k in the array k:
    S1+S2 = L(1/2, f x chi), S3+S4 = L(1/2, conj chi)."""
    km = (q - 1 - k) % (q - 1)
    s1 = tab.A[k]
    s2 = (tab.tau[k] ** 2 / q) * tab.A[km]
    s3 = tab.B[km]
    s4 = (tab.tau[km] / math.sqrt(q)) * tab.B[k]
    return s1, s2, s3, s4


def twisted_moment(f: HeckeSystem, mod: PrimeModulus,
                   witness_threshold: float = 1e-6,
                   l_one_value: float | None = None) -> MomentReport:
    """Sum of L(1/2, f x chi) L(1/2, conj chi) over even primitive chi mod q.

    Its witnesses are the chi with both |L(1/2, f x chi)| and |L(1/2, chi)|
    above witness_threshold plus the respective error bars, sorted by the
    smaller of the two magnitudes, descending, then by k, so that each
    conjugate pair is adjacent with its smaller k first.
    """
    q = mod.q
    if q < 5:
        raise ModulusTooSmall(
            f"modulus {q} has no even primitive characters")
    tab = _family_tables(f, mod)

    ks = even_primitive_indices(mod)
    s1, s2, s3, s4 = _branches(tab, q, ks)
    moment = complex(np.sum((s1 + s2) * (s3 + s4)))
    cross = {"S1S3": complex(np.sum(s1 * s3)), "S1S4": complex(np.sum(s1 * s4)),
             "S2S3": complex(np.sum(s2 * s3)), "S2S4": complex(np.sum(s2 * s4))}

    # chi_k and chi_{q-1-k} = conj chi_k (at reversed positions of ks) have
    # equal magnitudes, as lambda is real; each pair reports the smaller of
    # its two computed values, so their 1-ulp noise cannot split or reorder it
    tmag = np.abs(s1 + s2)
    dmag = np.abs(s3 + s4)
    tmag = np.minimum(tmag, tmag[::-1])
    dmag = np.minimum(dmag, dmag[::-1])
    keep = ((tmag > witness_threshold + tab.err_twist)
            & (dmag > witness_threshold + tab.err_dirichlet))
    order = np.lexsort((ks[keep], -np.minimum(tmag, dmag)[keep]))
    witnesses = Witnesses(ks[keep][order], tmag[keep][order],
                          dmag[keep][order])

    lf1 = l_one_value if l_one_value is not None else f.l_one_value
    main = (q - 2) / 2.0 * lf1
    return MomentReport(
        q=q, moment=moment, main_term=main,
        ratio=float(moment.real / main),
        cross_terms=cross, witnesses=witnesses, n_characters=len(ks),
        l_one_value=lf1,
        cutoffs={"M_cut": tab.M_cut, "N_cut": tab.N_cut},
        err_twist=tab.err_twist, err_dirichlet=tab.err_dirichlet)


def _scan_one(args) -> MomentReport:
    f, q, lf1 = args
    return twisted_moment(f, build_modulus(q), l_one_value=lf1)


def prime_scan(f: HeckeSystem, q_min: int, q_max: int,
               workers: int = 1) -> list[MomentReport]:
    """MomentReport for every prime in [q_min, q_max], ascending.

    Each modulus is computed independently; the map preserves prime order,
    so the result is identical for any worker count.
    """
    qs = primes_in_range(max(q_min, 5), q_max)
    if qs and afe2_cutoff(qs[-1]) > f.P_max:
        raise InsufficientData(
            f"modulus {qs[-1]} needs coefficients to {afe2_cutoff(qs[-1])}, "
            f"reach is {f.P_max}")
    lf1 = f.l_one_value   # computed once, shared by every modulus
    if workers <= 1 or len(qs) <= 1:
        return [_scan_one((f, q, lf1)) for q in qs]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_scan_one, [(f, q, lf1) for q in qs]))
