"""Gauss and Kloosterman sums modulo a prime.

A Gauss sum is computed by direct O(q) summation over the unit group; a bulk
DFT path over the discrete-log line is provided for sweeps and must agree
with the direct path.  The Kloosterman table sums over the units once per
product ab, and fills its degenerate row and column with the Ramanujan sums
in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import DirichletCharacter, PrimeModulus


def _e_q(a: np.ndarray, q: int) -> np.ndarray:
    """e(a/q) elementwise."""
    return np.exp(2j * np.pi * (np.asarray(a) % q) / q)


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over a=1..q-1 of chi(a) e(a/q), by direct summation."""
    q = chi.q
    a = np.arange(1, q)
    return complex(np.sum(chi.values(a) * _e_q(a, q)))


def gauss_sums_all(mod: PrimeModulus) -> np.ndarray:
    """tau(chi_k) for all k at once via a length-(q-1) DFT over the dlog line.

    With u[j] = e(g^j / q), tau(chi_k) = sum_j u[j] e(k j/(q-1)), which is the
    inverse-orientation DFT of u.
    """
    u = _e_q(mod.powers, mod.q)
    # fft computes sum_j u[j] e(-kj/(q-1)); we want the +kj orientation
    return np.conj(np.fft.fft(np.conj(u)))


def kloosterman_table(mod: PrimeModulus) -> np.ndarray:
    """S(a,b;q) for all 0<=a,b<q via the reduction S(a,b) = S(1,ab) (x -> a^{-1}x).

    Row/column 0 degenerate cases are filled from the Ramanujan sum.
    """
    q = mod.q
    inv = mod.inverse_table()
    x = np.arange(1, q)
    # base[c] = S(1, c; q), computed directly for each c
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    base = np.empty(q)
    for c in range(q):
        s = np.sum(phases[(x + c * inv[x]) % q])
        base[c] = s.real
    tab = np.empty((q, q))
    ab = (np.outer(np.arange(q), np.arange(q))) % q
    tab[:, :] = base[ab]
    # S(a,0) = S(0,a) = Ramanujan sum: q-1 if q|a else -1
    tab[0, :] = np.where(np.arange(q) % q == 0, q - 1, -1)
    tab[:, 0] = np.where(np.arange(q) % q == 0, q - 1, -1)
    tab[0, 0] = q - 1
    return tab


def weil_bound(mod: PrimeModulus) -> float:
    return 2.0 * math.sqrt(mod.q)
