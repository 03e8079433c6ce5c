import math

import numpy as np
import pytest

from hecke_oracle import coefficient
from lmoment.characters import build_modulus
from lmoment.errors import InsufficientData, NotCoprime
from lmoment.voronoi import (rhs_truncation_default, voronoi_check,
                             voronoi_lhs, voronoi_rhs)
from lmoment.weights import default_bump


def test_lhs_matches_direct_loop(real_f, bump):
    q, d, N = 7, 3, 30
    mod = build_modulus(q)
    dbar = pow(d, -1, q)
    direct = sum(coefficient(real_f.prime_coeffs, n)
                 * np.exp(2j * np.pi * (n * dbar % q) / q)
                 * bump(n / N)
                 for n in range(N, 2 * N + 1))
    assert abs(voronoi_lhs(real_f, d, mod, N, bump) - direct) < 1e-12


def test_lhs_shift_and_conjugation(real_f, bump):
    mod = build_modulus(11)
    a = voronoi_lhs(real_f, 3, mod, 40, bump)
    assert abs(voronoi_lhs(real_f, 3 + 11, mod, 40, bump) - a) < 1e-13
    b = voronoi_lhs(real_f, 11 - 3, mod, 40, bump)
    assert abs(b - np.conj(a)) < 1e-12


def test_rhs_shift_and_conjugation(real_f, bump):
    mod = build_modulus(11)
    a, _ = voronoi_rhs(real_f, 3, mod, 40, bump, truncation=512)
    b, _ = voronoi_rhs(real_f, 3 + 11, mod, 40, bump, truncation=512)
    assert abs(a - b) < 1e-12
    c, _ = voronoi_rhs(real_f, 11 - 3, mod, 40, bump, truncation=512)
    assert abs(c - np.conj(a)) < 1e-9


def test_not_coprime(real_f, bump):
    mod = build_modulus(7)
    with pytest.raises(NotCoprime):
        voronoi_lhs(real_f, 14, mod, 30, bump)
    with pytest.raises(NotCoprime):
        voronoi_rhs(real_f, 0, mod, 30, bump, truncation=64)


def test_insufficient_reach(real_f, bump):
    mod = build_modulus(7)
    with pytest.raises(InsufficientData):
        voronoi_lhs(real_f, 1, mod, real_f.P_max, bump)
    with pytest.raises(InsufficientData):
        voronoi_rhs(real_f, 1, mod, 30, bump, truncation=real_f.P_max + 1)


def test_truncation_default_window(real_f):
    for q, N in ((7, 50), (11, 100), (23, 200)):
        mod = build_modulus(q)
        M = rhs_truncation_default(real_f, mod, N)
        assert M >= max(64, math.ceil(q ** 2 * math.log(q) ** 2 / N))
        assert M <= real_f.P_max


def test_rhs_evidence_fields(real_f, bump):
    mod = build_modulus(7)
    _, ev = voronoi_rhs(real_f, 1, mod, 50, bump, truncation=1024)
    assert ev["rhs_truncation"] == 1024
    assert ev["truncation_capped_at_reach"] is False
    assert 0 < ev["data_error_bound"] < 1e-3
    assert np.isfinite(ev["doubling_delta"])
    assert ev["tail_certificate_minus"] < ev["tail_certificate_plus"]


def test_identity_small_case(real_f, bump):
    chk = voronoi_check(real_f, 1, build_modulus(7), 50, bump)
    assert chk.residual < 1e-3
    assert chk.doubling_delta < 1e-6
    # the minus-kernel tail is still about 8e-8 at the reach P_max = 16000
    assert chk.rhs_truncation == real_f.P_max
    assert chk.truncation_capped_at_reach is True
