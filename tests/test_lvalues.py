import math

import numpy as np
import pytest

from lmoment.characters import DirichletCharacter, build_modulus
from lmoment.errors import (InsufficientData, OddCharacter, PoleError,
                            PrincipalCharacter)
from lmoment.expsums import gauss_sum
from lmoment import weights
from lmoment.hecke import mock_hecke_system
from lmoment.lvalues import (afe1_cutoff, afe2_cutoff, afe2_err_estimate,
                             dirichlet_central_afe, dirichlet_central_oracle,
                             hurwitz_zeta, twist_central_afe)


def test_hurwitz_classical_values():
    assert abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6) < 1e-12
    assert abs(hurwitz_zeta(0.5, 1.0) - (-1.4603545088)) < 1e-9


def test_hurwitz_shift_identity():
    # zeta(s, a) - zeta(s, a+1) = a^{-s}; zeta(s, a+1) is evaluated by an
    # independent direct series with a short Euler-Maclaurin tail
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = complex(rng.uniform(-2, 3), rng.uniform(-10, 10))
        a = rng.uniform(0.05, 0.95)
        ref, scale = _zeta_aplus1(s, a)
        diff = hurwitz_zeta(s, a) - ref
        want = a ** (-s)
        # scale tracks the term magnitudes of the check series; for Re s
        # near -2 they reach 1e9 and roundoff in the check dominates
        assert abs(diff - want) <= 1e-9 * (1 + abs(want)) + 1e-14 * scale


def _zeta_aplus1(s, a):
    """zeta(s, a+1) = sum_{n>=1} (n+a)^{-s}, direct series + short tail.

    Returns (value, sum of term magnitudes) so the caller can budget for
    cancellation roundoff.
    """
    s = complex(s)
    N = 4000
    n = np.arange(1, N)
    terms = (n + a) ** (-s)
    head = complex(np.sum(terms))
    x = N + a
    tail = (x ** (1 - s) / (s - 1) + 0.5 * x ** (-s)
            + s * x ** (-s - 1) / 12.0
            - s * (s + 1) * (s + 2) * x ** (-s - 3) / 720.0)
    return head + tail, float(np.sum(np.abs(terms)))


def test_hurwitz_pole():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)


def test_oracle_conjugation_and_reality():
    mod = build_modulus(11)
    for k in range(1, 10):
        chi = DirichletCharacter(mod, k)
        a = dirichlet_central_oracle(chi).value
        b = dirichlet_central_oracle(chi.conj()).value
        assert abs(b - np.conj(a)) < 1e-10
    quad = DirichletCharacter(build_modulus(5), 2)   # even quadratic mod 5
    assert abs(dirichlet_central_oracle(quad).value.imag) < 1e-10


def test_oracle_rejects_principal():
    with pytest.raises(PrincipalCharacter):
        dirichlet_central_oracle(DirichletCharacter(build_modulus(7), 0))


def test_afe_matches_oracle_q7():
    mod = build_modulus(7)
    for k in (2, 4):
        chi = DirichletCharacter(mod, k)
        afe = dirichlet_central_afe(chi).value
        oracle = dirichlet_central_oracle(chi).value
        assert abs(afe - np.conj(oracle)) < 1e-8


def test_afe_conjugate_symmetry():
    mod = build_modulus(13)
    for k in (2, 4, 6):
        chi = DirichletCharacter(mod, k)
        a = dirichlet_central_afe(chi).value
        b = dirichlet_central_afe(chi.conj()).value
        assert abs(b - np.conj(a)) < 1e-8


def test_afe_rejects_bad_characters():
    mod = build_modulus(11)
    with pytest.raises(PrincipalCharacter):
        dirichlet_central_afe(DirichletCharacter(mod, 0))
    with pytest.raises(OddCharacter):
        dirichlet_central_afe(DirichletCharacter(mod, 3))


def test_afe_cutoff_robustness():
    chi = DirichletCharacter(build_modulus(101), 4)
    M = afe1_cutoff(101)
    a = dirichlet_central_afe(chi, cutoff=M).value
    b = dirichlet_central_afe(chi, cutoff=2 * M).value
    assert abs(a - b) < 1e-9


def test_root_number_unimodular():
    for q in (7, 31, 101):
        mod = build_modulus(q)
        for k in (2, 4):
            chi = DirichletCharacter(mod, k)
            assert abs(abs(gauss_sum(chi) ** 2 / q) - 1.0) < 1e-10


def test_twist_conjugation(real_f):
    chi = DirichletCharacter(build_modulus(13), 4)
    a = twist_central_afe(real_f, chi).value
    b = twist_central_afe(real_f, chi.conj()).value
    assert abs(b - np.conj(a)) < 1e-8


def test_twist_cutoff_robustness(real_f):
    chi = DirichletCharacter(build_modulus(101), 6)
    cv = twist_central_afe(real_f, chi)
    cv2 = twist_central_afe(real_f, chi, cutoff=2 * cv.cutoff)
    assert abs(cv2.value - cv.value) < 1e-8


def test_twist_functional_equation_self_consistency(real_f):
    # recompute with the two branch sums exchanged under the root number;
    # tau(chi) tau(conj chi) = q (even chi) makes the exchange exact
    from lmoment.lvalues import afe2_cutoff
    from lmoment.weights import v2_many
    q = 11
    mod = build_modulus(q)
    chi = DirichletCharacter(mod, 2)
    tau, taub = gauss_sum(chi), gauss_sum(chi.conj())
    assert abs(tau * taub - q) < 1e-9
    N = afe2_cutoff(q)
    n = np.arange(1, N + 1)
    lam = real_f.coefficients_upto(N)[1:]
    coef = lam * v2_many(n / q, real_f.T_f) / np.sqrt(n)
    vals = chi.values(n)
    s_plain = complex(np.sum(vals * coef))
    s_conj = complex(np.sum(np.conj(vals) * coef))
    root, rootb = tau ** 2 / q, taub ** 2 / q
    direct = s_plain + root * s_conj
    swapped = root * (s_conj + rootb * s_plain)
    assert abs(abs(root) - 1.0) < 1e-10
    assert abs(swapped - direct) < 1e-8
    assert abs(twist_central_afe(real_f, chi).value - direct) < 1e-12


def test_twist_err_estimate_is_upper_bound(real_f):
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = int(rng.choice([7, 11, 13, 17, 19, 23]))
        mod = build_modulus(q)
        ks = [k for k in range(2, q - 1, 2)]
        k = int(rng.choice(ks))
        chi = DirichletCharacter(mod, k)
        cv = twist_central_afe(real_f, chi)
        cv2 = twist_central_afe(real_f, chi, cutoff=2 * cv.cutoff)
        assert abs(cv2.value - cv.value) <= cv.err_estimate
        dv = dirichlet_central_afe(chi)
        dv2 = dirichlet_central_afe(chi, cutoff=2 * dv.cutoff)
        assert abs(dv2.value - dv.value) <= dv.err_estimate


def test_twist_error_reads_the_v2_tolerance(real_f, monkeypatch):
    # the per-point V2 error is the engine's tolerance, read at call time,
    # not a copy of it
    q = 101
    N = afe2_cutoff(q)
    before = afe2_err_estimate(real_f, q, N, np.zeros(N))
    monkeypatch.setattr(weights, "_V_TOL", 2e-10)
    after = afe2_err_estimate(real_f, q, N, np.zeros(N))
    n = np.arange(1, N + 1)
    want = 2 * 1e-10 * np.sum(2 * n ** 0.11 / np.sqrt(n))
    assert abs(after - before - want) <= 1e-9 * want


def test_twist_insufficient_reach():
    g = mock_hecke_system(3, P_max=60)
    chi = DirichletCharacter(build_modulus(31), 2)
    with pytest.raises(InsufficientData):
        twist_central_afe(g, chi)


def test_cutoff_formulas():
    assert afe1_cutoff(101) == math.ceil(math.sqrt(101) * math.log(101) ** 2)
    assert afe2_cutoff(101) == math.ceil(7.2 * 101)
    assert afe2_cutoff(5) == math.ceil(5 * math.log(5) ** 2)
