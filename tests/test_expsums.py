import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmoment.characters import (DirichletCharacter, build_modulus,
                                primes_in_range)
from lmoment.expsums import (gauss_sum, gauss_sums_all, kloosterman_table,
                             weil_bound)


def kloosterman(a, b, q):
    # S(a, b; q) = sum over the units x of e((a x + b xbar) / q), directly,
    # with each inverse xbar from Python's modular pow
    x = np.arange(1, q)
    xbar = np.array([pow(int(v), -1, q) for v in x])
    s = complex(np.sum(np.exp(2j * np.pi * ((a * x + b * xbar) % q) / q)))
    assert abs(s.imag) < 1e-9
    return s.real


def test_gauss_sum_modulus_squared():
    for q in (5, 7, 13, 101):
        mod = build_modulus(q)
        for k in range(1, q - 1):
            tau = gauss_sum(DirichletCharacter(mod, k))
            assert abs(abs(tau) ** 2 - q) < 1e-10


_PRIMES = primes_in_range(3, 1999)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(q=st.sampled_from(_PRIMES), k=st.integers(0, 10**6))
def test_gauss_sum_modulus_property(q, k):
    # |tau(chi)|^2 = q for every nonprincipal chi mod a prime q
    chi = DirichletCharacter(build_modulus(q), 1 + k % (q - 2))
    assert abs(abs(gauss_sum(chi)) ** 2 - q) < 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(q=st.sampled_from(primes_in_range(3, 499)), a=st.integers(0, 10**6),
       b=st.integers(0, 10**6))
def test_kloosterman_symmetry_property(q, a, b):
    # S(a, b; q) = S(b, a; q) = S(1, ab; q) for units a, b mod q: the
    # program's table at all three against the direct sum
    tab = kloosterman_table(build_modulus(q))
    a, b = 1 + a % (q - 1), 1 + b % (q - 1)
    s = kloosterman(a, b, q)
    for x, y in ((a, b), (b, a), (1, a * b % q)):
        assert abs(tab[x, y] - s) < 1e-9


def test_gauss_sum_pair_identity():
    # tau(chi) tau(conj chi) = chi(-1) q for primitive chi
    for q in (7, 11, 31):
        mod = build_modulus(q)
        for k in range(1, q - 1):
            chi = DirichletCharacter(mod, k)
            prod = gauss_sum(chi) * gauss_sum(chi.conj())
            want = chi(-1 % q) * q
            assert abs(prod - want) < 1e-9


def test_gauss_bulk_matches_direct():
    for q in (5, 13, 101):
        mod = build_modulus(q)
        bulk = gauss_sums_all(mod)
        for k in range(q - 1):
            direct = gauss_sum(DirichletCharacter(mod, k))
            assert abs(bulk[k] - direct) < 1e-9
        # principal character: tau(chi_0) = Ramanujan sum c_q(1) = -1
        assert abs(bulk[0] + 1) < 1e-9


def test_kloosterman_symmetry_and_bound():
    for q in (5, 13, 37):
        mod = build_modulus(q)
        bound = weil_bound(mod)
        tab = kloosterman_table(mod)
        assert np.max(np.abs(tab[1:, 1:])) <= bound + 1e-9
        assert np.max(np.abs(tab - tab.T)) < 1e-9


def test_kloosterman_table_matches_pointwise():
    for q in (7, 23):
        mod = build_modulus(q)
        tab = kloosterman_table(mod)
        for a in range(q):
            for b in range(q):
                if a == 0 or b == 0:
                    n = a + b
                    want = q - 1 if n % q == 0 else -1
                    assert abs(tab[a, b] - want) < 1e-9
                else:
                    assert abs(tab[a, b] - kloosterman(a, b, q)) < 1e-9


def test_degenerate_kloosterman_is_ramanujan():
    # S(0, n; q) is the Ramanujan sum, the sum over the units a of e(an/q)
    for q in (11, 23):
        tab = kloosterman_table(build_modulus(q))
        a = np.arange(1, q)
        for n in range(q):
            want = np.sum(np.exp(2j * np.pi * a * n / q)).real
            assert abs(tab[0, n] - want) < 1e-9
            assert abs(tab[n, 0] - want) < 1e-9


def test_weil_bound_value():
    assert abs(weil_bound(build_modulus(7)) - 2 * math.sqrt(7)) < 1e-14
