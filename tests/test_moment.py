import json
import math
import pickle

import numpy as np
import pytest

from lmoment import hecke
from lmoment.characters import (DirichletCharacter, build_modulus,
                                even_primitive_indices, primes_in_range)
from lmoment.errors import ModulusTooSmall, NonConvergence
from lmoment.hecke import HeckeSystem, mock_hecke_system
from lmoment.lvalues import dirichlet_central_afe, twist_central_afe
from lmoment.moment import CROSS_KEYS, Witnesses, prime_scan, twisted_moment
from lmoment.weights import v1_many, v2_many


def test_q5_single_product(real_f):
    # only one even primitive character mod 5, so the moment is one product
    mod = build_modulus(5)
    rep = twisted_moment(real_f, mod)
    assert rep.n_characters == 1
    chi = DirichletCharacter(mod, 2)
    prod = (twist_central_afe(real_f, chi).value
            * dirichlet_central_afe(chi).value)
    assert abs(rep.moment - prod) < 1e-10


def test_character_census(real_f):
    for q in (5, 13, 61, 101):
        rep = twisted_moment(real_f, build_modulus(q))
        assert rep.n_characters == (q - 1) // 2 - 1
        assert rep.n_characters == len(even_primitive_indices(build_modulus(q)))


def test_moment_is_real(real_f):
    for q in (13, 101):
        rep = twisted_moment(real_f, build_modulus(q))
        assert abs(rep.moment.imag) < 1e-10 * (1 + abs(rep.moment.real))


def test_decomposition_adds_up(real_f):
    mod = build_modulus(101)
    rep = twisted_moment(real_f, mod)
    cross = rep.cross_terms
    assert set(cross) == set(CROSS_KEYS)
    total = sum(cross.values())
    assert abs(total - rep.moment) < 1e-9 * (1 + abs(rep.moment))


def test_hurwitz_oracle_consistency(real_f, hurwitz_moment):
    for q in (13, 101):
        mod = build_modulus(q)
        a = twisted_moment(real_f, mod).moment
        assert abs(a - hurwitz_moment(real_f, mod)) <= 50 * 1e-8


def test_diagonal_term_dominates(real_f):
    # S1S3 carries the diagonal n = m mass and should be the largest block,
    # within 25 percent of the closed diagonal sum
    q = 101
    rep = twisted_moment(real_f, build_modulus(q))
    n = np.arange(1, real_f.P_max + 1)
    lam = real_f.coefficients_upto(real_f.P_max)[1:]
    diag = (q - 2) / 2.0 * np.sum(
        lam / n * v1_many(n / math.sqrt(q))
        * v2_many(n / q, real_f.T_f))
    s13 = rep.cross_terms["S1S3"].real
    assert abs(s13 - diag) < 0.25 * abs(diag)
    assert abs(rep.cross_terms["S1S3"]) == max(
        abs(rep.cross_terms[key]) for key in CROSS_KEYS)


def test_dual_block_stays_small(real_f):
    # the fully dualized block S2S4 is oscillatory and should sit well below
    # the main term
    for q in (61, 101, 199):
        rep = twisted_moment(real_f, build_modulus(q))
        assert abs(rep.cross_terms["S2S4"]) < q ** 0.95


def test_modulus_too_small(real_f):
    with pytest.raises(ModulusTooSmall):
        twisted_moment(real_f, build_modulus(3))


def test_nonvanishing_search(real_f):
    mod = build_modulus(101)
    wits = twisted_moment(real_f, mod, witness_threshold=1e-6).witnesses
    assert wits
    # sorted by the smaller magnitude, descending
    keys = [min(t, d) for _, t, d in wits]
    assert keys == sorted(keys, reverse=True)
    # threshold zero keeps every character whose values clear the error bars
    rep = twisted_moment(real_f, mod, witness_threshold=0.0)
    assert len(rep.witnesses) >= len(wits)


def test_witness_magnitudes_match_oracle(real_f):
    mod = build_modulus(13)
    k, tmag, dmag = twisted_moment(real_f, mod).witnesses[0]
    chi = DirichletCharacter(mod, k)
    assert abs(tmag - abs(twist_central_afe(real_f, chi).value)) < 1e-10
    assert abs(dmag - abs(dirichlet_central_afe(chi).value)) < 1e-10


def test_prime_scan_order_and_cutoffs(real_f):
    reps = prime_scan(real_f, 5, 30)
    assert [r.q for r in reps] == primes_in_range(5, 30)
    cuts = [r.cutoffs["N_cut"] for r in reps]
    assert cuts == sorted(cuts)
    # l_one is shared across the scan
    assert len({r.l_one_value for r in reps}) == 1


def test_l_one_belongs_to_its_system():
    # two mock systems with the same provenance, P_max and T_f: the all-zero
    # one has L(1) = pi^2 / 15, and the random one fails the L(1, f)
    # certificate, also after a twisted moment of the first
    mock = mock_hecke_system(5)
    zero = HeckeSystem(T_f=mock.T_f, parity="even",
                       prime_coeffs=dict.fromkeys(mock.prime_coeffs, 0.0),
                       P_max=mock.P_max, data_precision=0.0, provenance="mock")
    mod = build_modulus(101)
    assert abs(twisted_moment(zero, mod).l_one_value - math.pi ** 2 / 15) < 1e-4
    with pytest.raises(NonConvergence):
        twisted_moment(mock, mod)


def test_l_one_is_computed_once_per_system(monkeypatch):
    calls = []
    monkeypatch.setattr(hecke, "l_one", lambda f: calls.append(f) or 0.5)
    f = mock_hecke_system(3)
    mod = build_modulus(101)
    assert [twisted_moment(f, mod).l_one_value for _ in range(2)] == [0.5, 0.5]
    assert len(calls) == 1


def test_prime_scan_deterministic_across_workers(real_f):
    a = prime_scan(real_f, 5, 30, workers=1)
    b = prime_scan(real_f, 5, 30, workers=2)
    for ra, rb in zip(a, b):
        assert ra.q == rb.q
        assert ra.moment == rb.moment
        assert ra.witnesses == rb.witnesses


def test_witness_conjugate_pairs_adjacent(real_f):
    # chi_k and chi_{q-1-k} are conjugate with equal magnitudes: each pair is
    # adjacent, smaller k first, whatever the last bits of the two values
    for q in (101, 2003):
        wits = twisted_moment(real_f, build_modulus(q)).witnesses
        ks = [k for k, _, _ in wits]
        pos = {k: i for i, k in enumerate(ks)}
        for k in ks:
            partner = q - 1 - k
            assert partner in pos
            if k < partner:
                assert pos[partner] == pos[k] + 1
        keys = [min(t, d) for _, t, d in wits]
        assert keys == sorted(keys, reverse=True)


def test_witnesses_read_like_a_list(real_f):
    wits = twisted_moment(real_f, build_modulus(61)).witnesses
    as_list = list(wits)
    assert len(wits) == len(as_list) > 0 and bool(wits)
    assert not Witnesses([], [], [])
    assert wits[0] == as_list[0] and wits[-1] == as_list[-1]
    k, t, d = wits[0]
    assert type(k) is int and type(t) is float and type(d) is float
    assert wits == as_list and list(wits[1:3]) == as_list[1:3]
    again = pickle.loads(pickle.dumps(wits))
    assert again == wits and again is not wits
    assert wits != Witnesses(wits.k, wits.twist_mag * 2, wits.dirichlet_mag)
    assert json.loads(json.dumps(as_list)) == [list(w) for w in as_list]
