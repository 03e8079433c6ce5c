"""Dirichlet characters modulo a prime, via a discrete-logarithm table.

A character mod prime q is identified by an index k in 0..q-2 against a
fixed least primitive root g: chi_k(g^a) = e(k*a/(q-1)).  Parity, primitivity
and conjugation are then index arithmetic, and evaluation is two table
lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CompositeModulus, ModulusTooSmall, NotCoprime


def is_prime(n: int) -> bool:
    """Deterministic primality check (trial division; desk-scale q)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, by sieve of Eratosthenes."""
    if n < 2:
        return np.array([], dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi."""
    return [int(p) for p in primes_up_to(hi) if p >= lo]


def least_primitive_root(q: int) -> int:
    """Least primitive root mod prime q, by exhaustive order checking."""
    phi = q - 1
    # prime factors of q-1
    fac = []
    m = phi
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, q):
        if all(pow(g, phi // p, q) != 1 for p in fac):
            return g
    raise CompositeModulus(f"no primitive root mod {q}; {q} is not prime")


@dataclass(frozen=True)
class PrimeModulus:
    """Prime q together with a primitive root and its power and dlog tables.

    powers[j] = g^j mod q for j in 0..q-2, and dlog is its inverse
    permutation: dlog[x] = a with g^a = x mod q, for x in 1..q-1; dlog[0] = -1
    sentinel.  roots[j] = e(j/(q-1)), the (q-1)-th roots of unity, precomputed
    so that character values are taken from one shared table.
    """

    q: int
    g: int
    powers: np.ndarray = field(repr=False)
    dlog: np.ndarray = field(repr=False)
    roots: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.powers.setflags(write=False)
        self.dlog.setflags(write=False)
        self.roots.setflags(write=False)

    def inverse_table(self) -> np.ndarray:
        """inv[x] = x^{-1} mod q for x in 1..q-1 (inv[0] = 0)."""
        inv = np.zeros(self.q, dtype=np.int64)
        # g^j -> g^{-j}
        inv[self.powers] = self.powers[(-np.arange(self.q - 1)) % (self.q - 1)]
        return inv


@lru_cache(maxsize=128)
def build_modulus(q: int) -> PrimeModulus:
    """Construct the PrimeModulus for prime q >= 3."""
    if q < 3:
        raise ModulusTooSmall(f"modulus {q} < 3")
    if not is_prime(q):
        raise CompositeModulus(f"modulus {q} is not prime")
    g = least_primitive_root(q)
    # g^(k+j) = g^k g^j: each pass doubles the known prefix; the products
    # stay below q^2, exact in int64 for q < 3e9
    powers = np.ones(q - 1, dtype=np.int64)
    k = 1
    while k < q - 1:
        powers[k:2 * k] = powers[:min(k, q - 1 - k)] * pow(g, k, q) % q
        k *= 2
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[powers] = np.arange(q - 1)
    roots = np.exp(2j * np.pi * np.arange(q - 1) / (q - 1))
    return PrimeModulus(q=q, g=g, powers=powers, dlog=dlog, roots=roots)


@dataclass(frozen=True)
class DirichletCharacter:
    """Character chi_k mod prime q with chi(g^a) = e(k*a/(q-1))."""

    modulus: PrimeModulus
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.modulus.q - 2:
            raise ValueError(f"character index {self.k} out of range mod {self.modulus.q}")

    @property
    def q(self) -> int:
        return self.modulus.q

    @property
    def is_principal(self) -> bool:
        return self.k == 0

    @property
    def is_primitive(self) -> bool:
        # prime modulus: every non-principal character is primitive
        return self.k != 0

    @property
    def is_even(self) -> bool:
        # -1 = g^{(q-1)/2}, so chi(-1) = e(k/2) = (-1)^k
        return self.k % 2 == 0

    def conj(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, (-self.k) % (self.q - 1))

    def __call__(self, n: int) -> complex:
        return char_value(self, n)

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an integer array."""
        mod = self.modulus
        r = np.asarray(ns) % mod.q
        out = np.zeros(r.shape, dtype=complex)
        unit = r != 0
        idx = (self.k * mod.dlog[r[unit]]) % (mod.q - 1)
        out[unit] = mod.roots[idx]
        return out


def char_value(chi: DirichletCharacter, n: int) -> complex:
    """chi(n) as an exact root of unity from the shared table (0 if q | n)."""
    mod = chi.modulus
    r = n % mod.q
    if r == 0:
        return 0j
    return complex(mod.roots[(chi.k * mod.dlog[r]) % (mod.q - 1)])


def even_primitive_indices(mod: PrimeModulus) -> np.ndarray:
    """Indices of even primitive characters: even k, k != 0."""
    return np.arange(2, mod.q - 1, 2, dtype=np.int64)


def primitive_pair_sum(mod: PrimeModulus, n: int, m: int) -> complex:
    """Sum over primitive chi mod q of chi(n) * conj(chi(m)), by direct summation.

    Requires (nm, q) = 1.  Equals q-2 when n = m mod q and -1 otherwise.
    """
    q = mod.q
    if (n * m) % q == 0:
        raise NotCoprime(f"nm is divisible by q={q}")
    d = (mod.dlog[n % q] - mod.dlog[m % q]) % (q - 1)
    k = np.arange(1, q - 1)
    return complex(np.sum(mod.roots[(k * d) % (q - 1)]))

