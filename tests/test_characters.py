import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmoment.characters import (DirichletCharacter, build_modulus, char_value,
                                even_primitive_indices, is_prime,
                                least_primitive_root, primes_in_range,
                                primes_up_to, primitive_pair_sum)
from lmoment.errors import CompositeModulus, ModulusTooSmall, NotCoprime


def test_prime_utilities():
    assert [int(p) for p in primes_up_to(30)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(9973) and not is_prime(9999)


def test_primitive_root_generates_group():
    for q in (5, 7, 11, 101, 199):
        g = least_primitive_root(q)
        seen = set()
        a = 1
        for _ in range(q - 1):
            seen.add(a)
            a = (a * g) % q
        assert len(seen) == q - 1


def test_build_modulus_errors():
    with pytest.raises(CompositeModulus):
        build_modulus(100)
    with pytest.raises(ModulusTooSmall):
        build_modulus(2)


def test_power_table_inverts_dlog():
    # dlog is the inverse permutation of the g^j table
    for q in (3, 5, 101, 1999, 2203):
        mod = build_modulus(q)
        j = np.arange(q - 1)
        assert np.array_equal(mod.dlog[mod.powers], j)
        assert mod.powers[0] == 1 and np.all(mod.powers[1:] != 1)
        assert np.array_equal((mod.powers[:-1] * mod.g) % q, mod.powers[1:])
        assert mod.dlog[0] == -1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q=st.sampled_from(primes_in_range(3, 1999)), k=st.integers(0, 10**6),
       m=st.integers(0, 10**6), n=st.integers(0, 10**6))
def test_character_multiplicative_property(q, k, m, n):
    chi = DirichletCharacter(build_modulus(q), k % (q - 1))
    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-12


def test_character_values_multiplicative():
    mod = build_modulus(13)
    rng = np.random.default_rng(0)
    for k in range(12):
        chi = DirichletCharacter(mod, k)
        for _ in range(20):
            n, m = int(rng.integers(1, 200)), int(rng.integers(1, 200))
            assert abs(chi(n * m) - chi(n) * chi(m)) < 1e-12
        assert chi(13) == 0


def test_parity_and_conjugation():
    mod = build_modulus(11)
    for k in range(10):
        chi = DirichletCharacter(mod, k)
        assert abs(chi(-1 % 11) - (-1.0) ** k) < 1e-12
        assert chi.is_even == (k % 2 == 0)
        for n in (2, 3, 7):
            assert abs(chi.conj()(n) - np.conj(chi(n))) < 1e-12


def test_principal_and_primitive_flags():
    mod = build_modulus(7)
    chis = [DirichletCharacter(mod, k) for k in range(6)]
    assert chis[0].is_principal and not chis[0].is_primitive
    assert all(c.is_primitive for c in chis[1:])


def test_even_primitive_census():
    for q in (5, 7, 11, 101):
        mod = build_modulus(q)
        ks = even_primitive_indices(mod)
        assert len(ks) == (q - 1) // 2 - 1
        assert all(int(k) % 2 == 0 and int(k) != 0 for k in ks)


def test_values_vector_matches_scalar():
    mod = build_modulus(17)
    chi = DirichletCharacter(mod, 3)
    ns = np.arange(1, 100)
    vec = chi.values(ns)
    for i, n in enumerate(ns):
        assert abs(vec[i] - char_value(chi, int(n))) < 1e-14


def test_pair_sums_orthogonality():
    rng = np.random.default_rng(1)
    for q in (5, 13, 61, 199):
        mod = build_modulus(q)
        for _ in range(40):
            n, m = int(rng.integers(1, q)), int(rng.integers(1, q))
            got = primitive_pair_sum(mod, n, m)
            want = q - 2.0 if n % q == m % q else -1.0
            assert abs(got - want) < 1e-10


def test_pair_sum_rejects_noncoprime():
    mod = build_modulus(7)
    with pytest.raises(NotCoprime):
        primitive_pair_sum(mod, 7, 3)
