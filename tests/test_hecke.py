import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hecke_oracle import coefficient
from lmoment.characters import primes_up_to
from lmoment.errors import (BoundViolation, FormatError, GapError,
                            InsufficientData, NonConvergence)
from lmoment.hecke import (HeckeSystem, additive_twist, average_bound_report,
                           coefficients_upto, l_one, l_one_report,
                           load_hecke_data, mock_hecke_system)

R_LIT = 13.7797513518907
LAMBDA2_LIT = 1.549304477941
LAMBDA3_LIT = 0.246899772454


def _zero_system(P_max=10000):
    """All lambda(p) = 0: the coefficient series is zeta(4s+4)/zeta(2s+2)
    shifted, with L(1) = pi^2 / 15 in closed form."""
    coeffs = {int(p): 0.0 for p in
              mock_hecke_system(0, P_max=P_max).prime_coeffs}
    return HeckeSystem(T_f=R_LIT, parity="even", prime_coeffs=coeffs,
                       P_max=P_max, data_precision=0.0, provenance="mock")


def test_real_data_header(real_f):
    assert abs(real_f.T_f - R_LIT) < 1e-9
    assert real_f.parity == "even"
    assert real_f.P_max == 16000
    assert 0 < real_f.data_precision < 1e-7
    assert not real_f.is_mock


def test_real_data_matches_literature(real_f):
    lam = coefficients_upto(real_f, 3)
    assert abs(lam[2] - LAMBDA2_LIT) < 1e-8
    assert abs(lam[3] - LAMBDA3_LIT) < 1e-8


# the Hecke relations on the program's array to the reach 16000: a prime
# power p^(k+1) <= 16000, and a coprime pair m, n with mn <= 16000
REACH = 16000
_PRIME_POWER = st.sampled_from([int(p) for p in primes_up_to(126)]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(
        1, int(math.log(REACH) / math.log(p) + 1e-9) - 1)))
_COPRIME = st.integers(2, REACH // 2).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2, REACH // m)))


def _check_relations(lam, prime_power, pair):
    p, k = prime_power
    assert abs(lam[p ** (k + 1)]
               - (lam[p] * lam[p ** k] - lam[p ** (k - 1)])) < 1e-12
    m, n = pair
    assume(math.gcd(m, n) == 1)
    assert abs(lam[m * n] - lam[m] * lam[n]) < 1e-11


@pytest.fixture(scope="module")
def real_lam(real_f):
    return coefficients_upto(real_f, REACH)


@pytest.fixture(scope="module")
def mock_lam(mock_f):
    return coefficients_upto(mock_f, REACH)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(prime_power=_PRIME_POWER, pair=_COPRIME)
def test_recursion_and_multiplicativity(real_lam, prime_power, pair):
    _check_relations(real_lam, prime_power, pair)


def test_dense_matches_scalar(real_f):
    arr = coefficients_upto(real_f, 3000)
    for n in (1, 2, 17, 256, 1024, 2999):
        assert abs(arr[n] - coefficient(real_f.prime_coeffs, n)) < 1e-13


@settings(max_examples=100, deadline=None, derandomize=True)
@given(prime_power=_PRIME_POWER, pair=_COPRIME)
def test_mock_satisfies_relations(mock_lam, prime_power, pair):
    _check_relations(mock_lam, prime_power, pair)


def test_mock_is_deterministic_in_its_seed():
    g = mock_hecke_system(11, P_max=500)
    assert g.is_mock
    lam = coefficients_upto(g, 6)
    assert abs(lam[6] - lam[2] * lam[3]) < 1e-14
    assert abs(lam[4] - (lam[2] ** 2 - 1)) < 1e-14
    g2 = mock_hecke_system(11, P_max=500)
    assert g.prime_coeffs == g2.prime_coeffs


def test_reach_is_enforced():
    g = mock_hecke_system(1, P_max=50)
    with pytest.raises(InsufficientData):
        coefficients_upto(g, 53)
    with pytest.raises(InsufficientData):
        coefficients_upto(g, 60)


def test_file_round_trip(tmp_path, real_f):
    path = tmp_path / "roundtrip.txt"
    with open(path, "w") as fh:
        fh.write("# comment line\nmaass v1\n")
        fh.write(f"T_f {real_f.T_f}\nparity even\n")
        fh.write(f"precision {real_f.data_precision:.3e}\npmax 100\n")
        for p in sorted(real_f.prime_coeffs):
            if p <= 100:
                fh.write(f"{p} {real_f.prime_coeffs[p]:.13f}\n")
    g = load_hecke_data(str(path))
    assert g.P_max == 100
    assert np.max(np.abs(coefficients_upto(g, 100)
                         - coefficients_upto(real_f, 100))) < 1e-12


def test_loader_error_paths():
    with pytest.raises(FormatError):
        load_hecke_data(io.StringIO("not a header\n"))
    bad_magic = "wrong v9\nT_f 13.7\nparity even\nprecision 1e-8\npmax 5\n2 1.0\n3 0.2\n5 0.7\n"
    with pytest.raises(FormatError):
        load_hecke_data(io.StringIO(bad_magic))
    missing = "maass v1\nT_f 13.7\nparity even\nprecision 1e-8\npmax 7\n2 1.0\n5 0.7\n7 0.1\n"
    with pytest.raises(GapError):
        load_hecke_data(io.StringIO(missing))
    toobig = "maass v1\nT_f 13.7\nparity even\nprecision 1e-8\npmax 3\n2 9.0\n3 0.2\n"
    with pytest.raises(BoundViolation):
        load_hecke_data(io.StringIO(toobig))


def test_kim_sarnak_bound_on_data(real_f):
    theta = 7.0 / 64.0
    for p, lam in real_f.prime_coeffs.items():
        assert abs(lam) <= p ** theta + p ** (-theta)


def test_average_bounds(real_f):
    rep = average_bound_report(real_f, [100, 1000, 10000])
    assert not rep["flagged"]
    assert all(r["mean_square"] < 5.0 for r in rep["rows"])


def test_average_bounds_are_means_over_n_le_x(real_f):
    rep = average_bound_report(real_f, [1, 100, 1000])
    for row in rep["rows"]:
        lam = coefficients_upto(real_f, row["x"])[1:]
        assert abs(row["mean_abs"] - np.mean(np.abs(lam))) < 1e-12
        assert abs(row["mean_square"] - np.mean(lam ** 2)) < 1e-12
    assert rep["rows"][0]["mean_abs"] == 1.0
    with pytest.raises(ValueError):
        average_bound_report(real_f, [0, 100])


def test_additive_twist_basics(real_f):
    val = additive_twist(real_f, 0.3, 1)
    want = np.exp(2j * np.pi * 0.3)
    assert abs(val - want) < 1e-14
    direct = sum(coefficient(real_f.prime_coeffs, n)
                 * np.exp(2j * np.pi * 0.1 * n) for n in range(1, 33))
    assert abs(additive_twist(real_f, 0.1, 32) - direct) < 1e-11


def test_l_one_real_data(real_f):
    rep = l_one_report(real_f)
    assert rep["disagreement"] < 1e-5
    val = l_one(real_f)
    assert 2.0 < val < 3.0     # L(1,f) for this form is about 2.41


def test_l_one_zero_mock_closed_form():
    # lambda(p) = 0 for all p makes L(1) = zeta(4)/zeta(2) = pi^2 / 15
    g = _zero_system()
    val = l_one(g)
    assert abs(val - math.pi ** 2 / 15.0) < 1e-4


def test_l_one_random_mock_fails_certificate():
    # a random multiplicative system has no automorphic continuation, so the
    # two-cutoff extrapolations disagree and the certificate must refuse
    g = mock_hecke_system(5, P_max=16000)
    with pytest.raises(NonConvergence):
        l_one(g)
