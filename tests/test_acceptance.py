"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line (run with -s to see them all)
and asserts the same condition, so the suite is green only if every
criterion holds at its stated tolerance and runtime budget.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy.special import gammaincc

from bessel_oracle import psi_bessel
from contour_oracle import v1, v2
from lmoment.characters import (DirichletCharacter, build_modulus,
                                even_primitive_indices, primes_in_range,
                                primitive_pair_sum)
from lmoment.expsums import (gauss_sum, gauss_sums_all, kloosterman_table,
                             weil_bound)
from lmoment.hecke import additive_twist, mock_hecke_system
from lmoment.lvalues import dirichlet_central_afe, dirichlet_central_oracle
from lmoment.moment import prime_scan, twisted_moment
from lmoment.voronoi import voronoi_check
from lmoment.weights import default_bump, psi_pm_many


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"[criterion {num:2d}] {name}: {status} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_01_orthogonality(capsys):
    t0 = time.time()
    worst = 0.0
    for q in primes_in_range(3, 199):
        mod = build_modulus(q)
        rng = np.random.default_rng(q)
        for _ in range(200):
            n = int(rng.integers(1, q))
            m = int(rng.integers(1, q))
            got = primitive_pair_sum(mod, n, m)
            want = (q - 2.0) if n % q == m % q else -1.0
            worst = max(worst, abs(got - want))
    with capsys.disabled():
        _report(1, "pair-sum orthogonality", worst <= 1e-10,
                f"max residual {worst:.2e}", time.time() - t0, 30)


def test_02_gauss_sums(capsys):
    t0 = time.time()
    worst_norm = worst_pair = worst_bulk = 0.0
    for q in primes_in_range(3, 199):
        mod = build_modulus(q)
        bulk = gauss_sums_all(mod)
        for k in range(1, q - 1):
            chi = DirichletCharacter(mod, k)
            tau = gauss_sum(chi)
            worst_norm = max(worst_norm, abs(abs(tau) ** 2 - q))
            worst_pair = max(worst_pair, abs(
                tau * gauss_sum(chi.conj()) - chi(q - 1) * q))
            worst_bulk = max(worst_bulk, abs(bulk[k] - tau))
    ok = worst_norm <= 1e-10 and worst_pair <= 1e-10 and worst_bulk <= 1e-9
    with capsys.disabled():
        _report(2, "Gauss sum identities", ok,
                f"norm {worst_norm:.2e} pair {worst_pair:.2e} "
                f"bulk {worst_bulk:.2e}", time.time() - t0, 60)


def test_03_weil_bound(capsys):
    t0 = time.time()
    worst_margin = math.inf
    degenerate_ok = True
    for q in primes_in_range(3, 97):
        mod = build_modulus(q)
        tab = kloosterman_table(mod)
        worst_margin = min(
            worst_margin, weil_bound(mod) - float(np.max(np.abs(tab[1:, 1:]))))
        degenerate_ok &= round(float(tab[0, 1])) == -1
    ok = worst_margin >= -1e-9 and degenerate_ok
    with capsys.disabled():
        _report(3, "Kloosterman Weil bound", ok,
                f"min margin {worst_margin:.3f}", time.time() - t0, 60)


def test_04_weight_closed_form(capsys):
    t0 = time.time()
    T_f = 13.7797513518907
    worst_cf = 0.0
    for x in np.geomspace(1e-3, 10.0, 50):
        worst_cf = max(worst_cf, abs(
            v1(float(x)) - float(gammaincc(0.25, math.pi * x * x))))
    worst_ab = 0.0
    for x in np.geomspace(0.05, 3.0, 20):
        a = v1(float(x), c=0.7)
        b = v1(float(x), c=1.6)
        worst_ab = max(worst_ab, abs(a - b) / (2e-10))
        a = v2(float(x), T_f, c=0.7)
        b = v2(float(x), T_f, c=1.6)
        worst_ab = max(worst_ab, abs(a - b) / (2e-10))
    psi = default_bump()
    xs = np.geomspace(0.5, 20.0, 20)
    p0, m0 = psi_pm_many(xs, psi, T_f)
    p5, m5 = psi_pm_many(xs, psi, T_f, sigma=0.5)
    worst_ab = max(worst_ab,
                   float(np.max(np.abs(p0 - p5))) / 2e-9,
                   float(np.max(np.abs(m0 - m5))) / 2e-9)
    # tie the batch to the Bessel form of Psi+- at spot points
    for i in (3, 12):
        for sign, vals in ((+1, p0), (-1, m0)):
            ref = psi_bessel(float(xs[i]), T_f, sign)
            worst_ab = max(worst_ab, abs(ref - vals[i]) / 2e-9)
    ok = worst_cf <= 1e-10 and worst_ab <= 1.0
    with capsys.disabled():
        _report(4, "weight closed form and abscissa independence", ok,
                f"closed form {worst_cf:.2e}, abscissa ratio {worst_ab:.2f}",
                time.time() - t0, 60)


def test_05_oracle_equivalence(capsys):
    t0 = time.time()
    worst = 0.0
    for q in primes_in_range(5, 101):
        mod = build_modulus(q)
        for k in even_primitive_indices(mod):
            chi = DirichletCharacter(mod, int(k))
            afe = dirichlet_central_afe(chi).value
            oracle = dirichlet_central_oracle(chi).value
            worst = max(worst, abs(afe - np.conj(oracle)))
    with capsys.disabled():
        _report(5, "central value oracle equivalence", worst <= 1e-8,
                f"max |afe - conj(oracle)| {worst:.2e}",
                time.time() - t0, 300)


def test_06_moment_structure(capsys, real_f, hurwitz_moment):
    t0 = time.time()
    mod = build_modulus(101)
    rep = twisted_moment(real_f, mod)
    decomp = abs(sum(rep.cross_terms.values()) - rep.moment) / abs(rep.moment)
    imag = abs(rep.moment.imag) / (1 + abs(rep.moment))
    alt = hurwitz_moment(real_f, mod)
    oracle_shift = abs(alt - rep.moment)
    ok = decomp <= 1e-9 and imag <= 1e-9 and oracle_shift <= 50 * 1e-8
    with capsys.disabled():
        _report(6, "moment structure at q=101", ok,
                f"decomposition {decomp:.2e}, imag {imag:.2e}, "
                f"oracle shift {oracle_shift:.2e}", time.time() - t0, 120)


def test_07_main_term_trend(capsys, real_f):
    t0 = time.time()
    reports = prime_scan(real_f, 100, 2000, workers=8)
    ratios = np.array([r.ratio for r in reports])
    medians = []
    lo = 100
    while lo <= reports[-1].q:
        devs = [abs(r.ratio - 1.0) for r in reports if lo <= r.q < 2 * lo]
        if devs:
            medians.append(float(np.median(devs)))
        lo *= 2
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    in_band = bool(np.all((ratios >= 0.3) & (ratios <= 1.7)))
    ok = nonincreasing and in_band
    with capsys.disabled():
        _report(7, "main term trend over prime moduli", ok,
                f"dyadic medians {['%.3f' % m for m in medians]}, "
                f"ratios [{ratios.min():.3f}, {ratios.max():.3f}]",
                time.time() - t0, 1800)


def test_08_nonvanishing_witnesses(capsys, real_f):
    t0 = time.time()
    min_wit = math.inf
    worst_confirm = 0.0
    for q in primes_in_range(50, 500):
        mod = build_modulus(q)
        rep = twisted_moment(real_f, mod, witness_threshold=1e-6)
        min_wit = min(min_wit, len(rep.witnesses))
        if not rep.witnesses:
            continue
        k, _, dmag = rep.witnesses[0]
        oracle = dirichlet_central_oracle(
            DirichletCharacter(mod, k).conj()).value
        worst_confirm = max(worst_confirm, abs(abs(oracle) - dmag))
    ok = min_wit >= 1 and worst_confirm <= 1e-6
    with capsys.disabled():
        _report(8, "nonvanishing witnesses with oracle confirmation", ok,
                f"min witnesses {min_wit}, oracle gap {worst_confirm:.2e}",
                time.time() - t0, 600)


def test_09_voronoi_identity(capsys, real_f, bump):
    t0 = time.time()
    residuals = []
    for q, d, N in ((7, 1, 50), (11, 3, 100), (23, 5, 200)):
        residuals.append(voronoi_check(real_f, d, build_modulus(q), N,
                                       bump).residual)
    mock = mock_hecke_system(5, P_max=16000)
    control = voronoi_check(mock, 1, build_modulus(7), 50, bump).residual
    ok = (max(residuals) <= 1e-3 and control >= 10 * residuals[0])
    with capsys.disabled():
        _report(9, "dual summation identity with negative control", ok,
                f"residuals {['%.1e' % r for r in residuals]}, "
                f"mock control {control:.2e}", time.time() - t0, 300)


def test_10_additive_twist_envelope(capsys, real_f):
    t0 = time.time()
    rng = np.random.default_rng(10)
    alphas = rng.uniform(0.0, 1.0, 128)
    worst = 0.0
    for j in range(7, 14):
        N = 2 ** j
        top = max(abs(additive_twist(real_f, float(a), N)) for a in alphas)
        worst = max(worst, top / N ** 0.6)
    with capsys.disabled():
        _report(10, "additive twist square-root envelope", worst <= 2.0,
                f"max |S|/N^0.6 = {worst:.3f} vs constant 2.0",
                time.time() - t0, 120)


def test_11_scan_determinism(capsys, tmp_path):
    t0 = time.time()
    payloads = []
    for workers in (1, 8):
        out = tmp_path / f"scan_w{workers}.json"
        cmd = [sys.executable, "-m", "lmoment", "scan",
               "--qmin", "100", "--qmax", "300",
               "--data", "data/maass_even_13p77.txt",
               "--workers", str(workers), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    json.loads(payloads[0])    # must be well-formed JSON
    with capsys.disabled():
        _report(11, "scan determinism across worker counts", identical,
                f"{len(payloads[0])} bytes each", time.time() - t0, 600)
