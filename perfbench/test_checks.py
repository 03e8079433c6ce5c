"""The benchmark's output checks pass the program's output and reject a
slightly perturbed copy of it. Runs in seconds:

    python3 -m pytest -q perfbench
"""

import math
import pathlib
import sys

import mpmath
import numpy as np
import pytest

import checks

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lmoment.characters import build_modulus  # noqa: E402
from lmoment.hecke import load_hecke_data  # noqa: E402
from lmoment.moment import twisted_moment  # noqa: E402
from lmoment.voronoi import voronoi_lhs  # noqa: E402
from lmoment.weights import default_bump, v1_many, v2_many  # noqa: E402

DATA = ROOT / "data" / "maass_even_13p77.txt"


@pytest.fixture(scope="module")
def data():
    T_f, P_max, prime_coeffs = checks.read_eigenvalues(DATA)
    return T_f, checks.coefficients(prime_coeffs, P_max)


@pytest.fixture(scope="module")
def form():
    return load_hecke_data(str(DATA))


@pytest.fixture(scope="module")
def report(data, form):
    return twisted_moment(form, build_modulus(101),
                          l_one_value=checks.l_one_reference(data[1]))


def test_coefficients_agree_with_program(data, form):
    lam = data[1]
    assert np.max(np.abs(lam - form.coefficients_upto(lam.size - 1))) <= 1e-12


def test_l_one_check_rejects_offset(data):
    ref = checks.l_one_reference(data[1])
    assert checks.check_l_one(ref, ref) == []
    assert checks.check_l_one(ref + 1e-5, ref)
    assert checks.check_l_one(ref - 1e-5, ref)


def test_witness_check_rejects_offset(report):
    q = report.q
    table = (checks.hurwitz_table(q), checks.dlog_table(q))
    sample = report.witnesses[:3]
    assert checks.check_witnesses(q, sample, report.err_dirichlet,
                                  *table) == []
    k, tmag, dmag = sample[0]
    for off in (1e-6, -1e-6):
        assert checks.check_witnesses(q, [(k, tmag, dmag + off)],
                                      report.err_dirichlet, *table)


def _moment_failures(rep, **change):
    fields = dict(q=rep.q, moment=rep.moment, cross_terms=rep.cross_terms,
                  main_term=rep.main_term, ratio=rep.ratio,
                  n_witnesses=len(rep.witnesses),
                  n_characters=rep.n_characters, l_one_value=rep.l_one_value)
    fields.update(change)
    return checks.check_moment(**fields)


def test_moment_check_rejects_broken_structure(report):
    assert _moment_failures(report) == []
    assert _moment_failures(report, n_witnesses=0)
    assert _moment_failures(report, moment=report.moment + 1e-6j)
    skewed = dict(report.cross_terms, S1S3=report.cross_terms["S1S3"] + 1e-6)
    assert _moment_failures(report, cross_terms=skewed)
    assert _moment_failures(report, ratio=1.8)
    assert _moment_failures(report, l_one_value=report.l_one_value + 1e-5)


def test_v2_check_rejects_offset(data):
    T_f = data[0]
    xs = np.array([1 / 2221, 0.05, 0.9, 3.0, 7.2])
    values = v2_many(xs, T_f)
    assert checks.check_v2(xs, values, T_f) == []
    for i in range(xs.size):
        bumped = values.copy()
        bumped[i] += 1e-9
        assert checks.check_v2(xs, bumped, T_f)


def test_v2_reference_matches_mpmath_quadrature(data):
    T_f = data[0]
    x = 0.9
    with mpmath.workdps(20):
        a = mpmath.mpc(0, 2 * T_f)
        norm = mpmath.gamma((1 + a) / 4) * mpmath.gamma((1 - a) / 4)

        def integrand(t):
            s = 1 + 1j * t
            return (mpmath.gamma((2 * s + 1 + a) / 4)
                    * mpmath.gamma((2 * s + 1 - a) / 4) / norm
                    * mpmath.power(mpmath.pi * x, -s) / s)

        cuts = [-200, -2 * T_f, -T_f, 0, T_f, 2 * T_f, 200]
        quad = float(mpmath.re(mpmath.quad(integrand, cuts)) / (2 * mpmath.pi))
    assert abs(checks.v2_reference(x, T_f) - quad) <= 1e-13


def test_v1_check_rejects_offset():
    xs = np.array([0.01, 0.3, 1.0, 2.0, 4.0])
    values = v1_many(xs)
    assert checks.check_v1(xs, values) == []
    assert checks.check_v1(xs, values + np.array([0, 0, 1e-9, 0, 0]))


def test_voronoi_check_rejects_offset(data, form):
    lam = data[1]
    q, d, N = 7, 1, 50
    exact = checks.voronoi_lhs_reference(lam, q, d, N)
    lhs = voronoi_lhs(form, d, build_modulus(q), N, default_bump())
    # the identity says the right side equals the exact left side
    assert checks.check_voronoi(lhs, exact, exact) == []
    assert checks.check_voronoi(lhs, exact + 1e-6, exact)
    assert checks.check_voronoi(lhs, exact + 1e-6j, exact)
    assert checks.check_voronoi(lhs + 1e-9, exact, exact)


def test_bump_matches_program():
    x = np.linspace(0.5, 2.5, 2001)
    assert np.max(np.abs(checks.bump(x) - default_bump()(x))) <= 1e-15
    assert math.isclose(float(checks.bump(np.array([1.5]))[0]), 1.0)
