import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as sp_gamma, gammaincc, loggamma

from scipy.integrate import quad
from scipy.special import k0

from bessel_oracle import psi_bessel
from contour_oracle import v1, v2
from lmoment import weights
from lmoment.errors import QuadratureFailure
from lmoment.weights import (default_bump, g_pm, psi_decay_ladder, psi_pm_many,
                             v1_bound, v1_many, v2_decay_ladder, v2_many,
                             _bump_mellin_line, _half_line, _interpolate,
                             _trapezoid_grid)
from mellin_oracle import mellin_dense, mellin_rule

T_F = 13.7797513518907


def psi_bound(x, T_f, sign):
    # the contour-shift ladder's bound |Psi(x)| <= min_C B_C (pi^2 x)^-C
    return min(B * (math.pi ** 2 * x) ** -C for C, B in psi_decay_ladder(T_f, sign))


def v2_bound(x, T_f):
    # the ladder's |V2(x)| <= min_C B_C (pi x)^-C, and from the line
    # Re s = -1/4 |V2(x)| <= 1 + B (pi x)^(1/4) (_v2_left_bound)
    return min([B * (math.pi * x) ** -C for C, B in v2_decay_ladder(T_f)]
               + [1 + weights._v2_left_bound(T_f) * (math.pi * x) ** 0.25])


def _g_pm_four_gamma(s, T_f, sign):
    # the oracle for g_pm: 2 pi G+- as the sum or difference of two
    # four-gamma ratios, each about e^{pi |T - |Im s||} times |G+-| or more,
    # so that G- cancels to rounding noise for |Im s| < T_f and G+ for
    # |Im s| > T_f; it agrees with the closed form only away from those
    s = np.asarray(s, dtype=complex)
    a = 1j * T_f

    def ratio(shift):
        return np.exp(loggamma((1 + s + a + shift) / 2)
                      + loggamma((1 + s - a + shift) / 2)
                      - loggamma((-s + a + shift) / 2)
                      - loggamma((-s - a + shift) / 2))
    return (ratio(0.0) + sign * ratio(1.0)) / (2 * math.pi)


def test_loggamma_against_mpmath():
    # scipy's loggamma at the arguments the kernels use, modulo 2 pi i (only
    # exp of sums of loggamma values is ever taken): V2's (2s+1+-2iT)/4 at
    # Re s = 0.5..1.6, and G+-'s 1+s+-iT at Re s = -0.9..14 and
    # |Im s| <= 3000; also the four-gamma oracle's (1+s+-iT+k)/2 and
    # (-s+-iT+k)/2, k = 0, 1, which reach the left half-plane
    def s_grid(re):
        return np.array([complex(r, y) for r in re
                         for y in (0.0, 7.3, -20.1, 95.0, -550.0, 3000.0)])
    s = s_grid((0.5, 1.0, 1.6))
    z = [(2 * s + 1 + 2j * T_F) / 4, (2 * s + 1 - 2j * T_F) / 4]
    s = s_grid((-0.9, 0.0, 0.5, 2.0, 6.0, 14.0))
    z += [1 + s + 1j * T_F, 1 + s - 1j * T_F]
    for k in (0, 1):
        z += [(1 + s + 1j * T_F + k) / 2, (1 + s - 1j * T_F + k) / 2,
              (-s + 1j * T_F + k) / 2, (-s - 1j * T_F + k) / 2]
    z = np.concatenate(z + [np.array([-5.5 + 0.4j, -0.3 + 4j, -2.7 - 9j])])
    got = loggamma(z)
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag)))
                         for v in z])
    d = got - want
    d -= 2j * math.pi * np.round(d.imag / (2 * math.pi))
    assert np.max(np.abs(d)) <= 1e-11


def test_complex_gamma_against_scipy():
    # the kernels take Gamma as exp(loggamma): against scipy's complex gamma
    # on random points, then V2's gamma ratio against the same ratio built
    # from scipy.special.gamma
    rng = np.random.default_rng(0)
    z = rng.uniform(0.1, 6, 40) + 1j * rng.uniform(-20, 20, 40)
    ref = sp_gamma(z)
    assert np.max(np.abs(np.exp(loggamma(z)) - ref) / np.abs(ref)) < 1e-12
    s = np.array([complex(r, y) for r in (0.5, 1.0, 1.6)
                  for y in (0.0, 7.3, -20.1, 40.0)])
    a = 2j * T_F
    want = (sp_gamma((2 * s + 1 + a) / 4) * sp_gamma((2 * s + 1 - a) / 4)
            / (abs(sp_gamma((1 + a) / 4)) ** 2 * s))
    got = weights._v2_kernel(s, T_F)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_loggamma_reflection_left_half_plane():
    # Gamma(z) Gamma(1-z) = pi / sin(pi z) at left-half-plane points
    for z in (-0.3 + 4j, -2.7 - 9j, -5.5 + 0.4j):
        prod = np.exp(loggamma(z) + loggamma(1 - z))
        want = math.pi / np.sin(math.pi * z)
        assert abs(prod - want) / abs(want) < 1e-11
    # the four-gamma oracle divides by Gamma((-s+-iT+k)/2), left of Re = 0
    # once Re s > k: rebuild it with 1/Gamma(w) = Gamma(1-w) sin(pi w) / pi,
    # so that every loggamma argument lies in the right half-plane; the
    # oracle and the closed-form g_pm must both match the rebuilt form
    s = np.array([complex(r, y) for r in (-0.9, 0.5, 2.0, 6.0, 14.0)
                  for y in (0.0, 7.3, -20.1)])
    b = 1j * T_F

    def ratio(k):
        c, d = (-s + b + k) / 2, (-s - b + k) / 2
        lg = (loggamma((1 + s + b + k) / 2) + loggamma((1 + s - b + k) / 2)
              + loggamma(1 - c) + loggamma(1 - d))
        return np.exp(lg) * np.sin(math.pi * c) * np.sin(math.pi * d) / math.pi ** 2

    scale = (np.abs(ratio(0.0)) + np.abs(ratio(1.0))) / (2 * math.pi)
    for sign in (+1, -1):
        want = (ratio(0.0) + sign * ratio(1.0)) / (2 * math.pi)
        for got in (_g_pm_four_gamma(s, T_F, sign), g_pm(s, T_F, sign)):
            assert np.max(np.abs(got - want) / scale) < 1e-12


def test_g_pm_closed_form_against_mpmath():
    # where the four-gamma form cancels: G- for |Im s| < T_f, G+ beyond it;
    # 30-digit 4^-s Gamma(1+s+iT) Gamma(1+s-iT) (cosh(pi T) or -cos(pi s))
    # / (2 pi^2).  Relative to |G|, or to |G / cos(pi s)| where
    # |cos(pi s)| < 1, which covers the zero of G- at s = 1/2; at
    # |Im s| = 1000 the two loggamma phases sum to about 1.2e4, whose
    # spacing 1.8e-12 no double computation beats, so two spacings of that
    # sum bound the error where they exceed 1e-12.  Below the smallest
    # normal double, g_pm gives an exact 0.
    cases = [(-1, 0.0), (-1, 1.0), (-1, 5.0), (-1, 1000.0), (+1, 30.0),
             (+1, 60.0), (+1, 500.0)]
    points = [(sign, complex(sig, t)) for sign, t in cases
              for sig in (0.0, -0.9, 0.5, 14.0)] + [(-1, 8 + 1j)]
    tiny = np.finfo(float).tiny
    for sign, s in points:
        with mpmath.workdps(30):
            sm, T = mpmath.mpc(s.real, s.imag), mpmath.mpf(T_F)
            shared = (mpmath.power(4, -sm) * mpmath.gamma(1 + sm + 1j * T)
                      * mpmath.gamma(1 + sm - 1j * T) / (2 * mpmath.pi ** 2))
            fac = (mpmath.cosh(mpmath.pi * T) if sign > 0
                   else -mpmath.cos(mpmath.pi * sm))
            want = complex(shared * fac)
            scale = float(abs(shared) * max(abs(fac), 1))
        got = g_pm(s, T_F, sign)
        if abs(want) < tiny:
            assert got == 0
            continue
        phase = sum(abs(loggamma(1 + s + b).imag) for b in (1j * T_F, -1j * T_F))
        assert abs(got - want) <= max(1e-12, 2 * np.spacing(phase)) * scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sigma=st.floats(-0.9, 14.0),
       t=st.floats(-400.0, 400.0).filter(lambda t: t != 0))
def test_g_pm_reflection_property(sigma, t):
    # G(conj s) = conj G(s), exactly: the half-line engine relies on it.  On
    # the real axis conj s = s, and G is real only to rounding there
    s = complex(sigma, t)
    for sign in (+1, -1):
        assert g_pm(s.conjugate(), T_F, sign) == np.conj(g_pm(s, T_F, sign))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sigma=st.floats(-0.9, 14.0), t=st.floats(0.0, 400.0),
       conj=st.booleans())
def test_g_pm_matches_four_gamma_where_it_does_not_cancel(sigma, t, conj):
    # G+ for |t| <= T_f - 3 and G- for |t| >= T_f + 3, where the two ratios
    # differ in size by e^{3 pi} or more; the loggamma phases reach 2.5e3 at
    # |t| = 400, and their spacing 4.5e-13, shared by several terms, sets
    # the bound (measured 2.1e-12 over 2e5 random points)
    plus = t <= T_F - 3
    if not plus:
        t = T_F + 3 + t * (400.0 - T_F - 3) / 400.0
    s = complex(sigma, -t if conj else t)
    sign = +1 if plus else -1
    want = complex(_g_pm_four_gamma(s, T_F, sign))
    assert abs(g_pm(s, T_F, sign) - want) <= 1e-11 * abs(want)

def _v2_residue_series(x, T_f):
    # V2(x) = 1 + sum of the residues of G(s) (pi x)^-s / s at the poles
    # s_k = -(1+a)/2 - 2k and their conjugates, a = 2i T_f:
    # 2 (-1)^k / k! Gamma(-a/2 - k) (pi x)^(-s_k) / (s_k G_norm); the terms
    # grow like (pi x)^2k / k!^2 before they decay, hence 60 digits
    with mpmath.workdps(60):
        a = mpmath.mpc(0, 2 * T_f)
        norm = mpmath.gamma((1 + a) / 4) * mpmath.gamma((1 - a) / 4)
        px = mpmath.pi * mpmath.mpf(x)
        gam = mpmath.gamma(-a / 2)
        fact = mpmath.mpf(1)
        total = mpmath.mpc(0)
        k = 0
        while True:
            if k:
                gam /= -a / 2 - k
                fact *= k
            s_k = -(1 + a) / 2 - 2 * k
            term = 2 * (-1) ** k / fact * gam * mpmath.power(px, -s_k) / s_k
            total += term
            if k > px and abs(term) < mpmath.mpf(10) ** -40:
                break
            k += 1
        return float(1 + 2 * mpmath.re(total / norm))


def test_v2_matches_residue_series():
    xs = np.array([1e-3, 0.1, 0.5, 1.0, 2.0])
    want = np.array([_v2_residue_series(x, T_F) for x in xs])
    scalar = np.array([v2(float(x), T_F) for x in xs])
    assert np.max(np.abs(scalar - want)) <= 5e-14
    assert np.max(np.abs(v2_many(xs, T_F) - want)) <= 5e-14


def test_v1_closed_form():
    # V1(x) = Q(1/4, pi x^2), the normalized upper incomplete gamma
    xs = np.geomspace(1e-3, 10.0, 50)
    for x in xs:
        want = float(gammaincc(0.25, math.pi * x * x))
        assert abs(v1(float(x)) - want) < 1e-10


def test_v1_small_x_structure():
    # V1(x) = 1 - (4/Gamma(1/4)) (sqrt(pi) x)^{1/2} + O(x^{3/2}): the
    # deviation from 1 is genuinely of size sqrt(x), not smaller
    c = 4.0 / math.gamma(0.25)
    for x in (1e-8, 1e-6, 1e-4):
        lead = c * math.sqrt(math.sqrt(math.pi) * x)
        assert abs(v1(x) - 1.0 + lead) < 0.05 * lead
    assert abs(v1(1e-8) - 1.0) > 1e-5   # the naive "equals 1" reading fails


def test_v2_small_x_structure():
    val = v2(1e-6, T_F)
    assert abs(val - 1.0) < 5e-3
    assert abs(val - 1.0) > 1e-5


def test_two_abscissa_agreement():
    xs = np.geomspace(0.05, 3.0, 20)
    for x in xs:
        a = v1(float(x), c=0.7)
        b = v1(float(x), c=1.6)
        assert abs(a - b) < 2e-10
        a = v2(float(x), T_F, c=0.7)
        b = v2(float(x), T_F, c=1.6)
        assert abs(a - b) < 2e-10


def test_batch_matches_scalar():
    xs = np.geomspace(0.01, 5.0, 25)
    vb = v1_many(xs)
    for i, x in enumerate(xs):
        assert abs(vb[i] - v1(float(x))) < 3e-10
    # V2: the powers 2^j over 16 octaves and their neighbours, the smallest
    # argument probed by the small-x tests and the largest cutoff-doubling
    # argument
    edges = 2.0 ** np.arange(-12, 4)
    xs = np.concatenate([xs, edges, edges * (1 - 1e-9), edges * (1 + 1e-9),
                         [1e-6, 14.4]])
    vb = v2_many(xs, T_F)
    for i, x in enumerate(xs):
        assert abs(vb[i] - v2(float(x), T_F)) < 3e-10


def test_v2_history_independence():
    # a value depends only on (x, T_f): not on whether the grid was cached
    # by an earlier call, nor on the other arguments of the call
    xs = np.concatenate([np.geomspace(1 / 2221, 14.4, 40), [1.0, 0.5, 8.0]])
    first = v2_many(xs, T_F)
    weights._v2_grid.cache_clear()
    for x in xs[::-1]:
        v2_many(np.array([x]), T_F)
    for i in range(xs.size):
        assert v2_many(xs[i:i + 1], T_F)[0] == first[i]
    assert np.array_equal(v2_many(xs, T_F), first)


# the Psi+- engine's period in u = log(pi^2 x), and the (7, 1, 50) dual sum
PSI_L = 64 * math.log(2.0)
DUAL_XS = np.arange(1, 16001) * 50 / 49


def _dense_trapezoid(line, L, base, c, xs):
    # the engine's sum without its FFT or stencil: (base x)^-c (dt / 2 pi)
    # (k_0 + 2 Re sum_{k >= 1} k_k (base x)^(-i t_k)), one exponential per
    # node and argument; and the rounding allowance 1e-13 (dt / pi) sum |k_k|
    dt = 2 * math.pi / L
    t = dt * np.arange(line.shape[1])
    w = line * (dt / math.pi)
    w[:, 0] /= 2
    u = np.log(base * xs)
    pref = np.exp(-c * u)
    dense = (np.exp(-1j * np.outer(u, t)) @ w.T).real.T * pref
    return dense, 1e-13 * np.sum(np.abs(w), axis=1)[:, None] * pref


def test_fft_contour_matches_dense_sum():
    # the FFT and the stencil against the dense trapezoid sum, on the lines
    # of the (7, 1, 50) dual sum (both signs, K = 7371, a 12-point stencil)
    # and of V2 (K = 969, 8 points); the difference lies within the stated
    # interpolation error plus rounding, and that error within rounding.
    # With a 4-point stencil, where the stated error is the larger term,
    # the remainder bound still holds
    v2_line = _half_line(lambda t: weights._v2_kernel(0.5 + 1j * t, T_F)[None],
                         128.0, 969)
    cases = [(weights._psi_kernel_line(default_bump(), 0.0, T_F, 7371)[0],
              PSI_L, math.pi ** 2, 0.0, DUAL_XS[::160], weights._STENCIL),
             (v2_line, 128.0, math.pi, 0.5, np.geomspace(1e-6, 14.4, 97),
              weights._V2_STENCIL)]
    for line, L, base, c, xs, P in cases:
        want, rounding = _dense_trapezoid(line, L, base, c, xs)
        for stencil in (P, 4):
            got, err = _interpolate(*_trapezoid_grid(line, L, stencil),
                                    L, base, c, xs)
            assert np.all(np.abs(got - want) <= err + rounding)
            if stencil == P:
                assert np.all(err <= rounding)


def _on_grid(L, base, us):
    # arguments x whose u = log(base x) is exactly a grid point: the doubles
    # next to e^u / base, stepped finer than the spacing of u, and kept where
    # u mod L is an integer number of grid steps
    h = L / weights._U_FFT
    x = np.exp(np.repeat(us, 801)) / base * (
        1 + np.tile(np.arange(-400, 401), len(us)) * 2.0 ** -53)
    p = np.mod(np.log(base * x), L) / h
    return np.unique(x[p == np.floor(p)])


def test_interpolate_at_the_period_edges():
    # each stencil is one window of the padded grid: at arguments whose
    # u mod L lies within P/2 grid steps of 0 or of L the window reaches the
    # wrapped points, and the engine must still match the dense trapezoid
    # sum, off the grid within the stated error and on it (including
    # u = L, where u mod L = 0) within rounding
    v2_line = _half_line(lambda t: weights._v2_kernel(0.5 + 1j * t, T_F)[None],
                         128.0, 969)
    for line, L, base, c, P in (
            (weights._psi_kernel_line(default_bump(), 0.0, T_F, 7371)[0],
             PSI_L, math.pi ** 2, 0.0, weights._STENCIL),
            (v2_line, 128.0, math.pi, 0.5, weights._V2_STENCIL)):
        win, deriv = _trapezoid_grid(line, L, P)
        assert win.shape == (line.shape[0], weights._U_FFT + P + 1, P)
        assert not win.flags.writeable
        h = L / weights._U_FFT
        steps = h * (np.arange(-P // 2 - 1, P // 2 + 1)[:, None]
                     + np.array([0.1, 0.5, 0.93])).ravel()
        off = np.exp(np.concatenate([steps, L + steps])) / base
        on = _on_grid(L, base, np.concatenate([[L], L - h * np.arange(1, P)]))
        assert np.any(np.log(base * on) == L) and on.size >= P // 2
        for xs, interp in ((off, True), (on, False)):
            got, err = _interpolate(win, deriv, L, base, c, xs)
            want, rounding = _dense_trapezoid(line, L, base, c, xs)
            assert np.all(np.abs(got - want) <= err + rounding)
            assert np.all(err > 0) if interp else np.all(err == 0)


def test_psi_values_do_not_depend_on_the_call():
    # every argument is read from the same cached grid: a permutation or a
    # subset of the dual-sum arguments, each of the first 400 alone among
    # them, before or after the cache is rebuilt, gives the values of the
    # full call bit for bit
    bump = default_bump()
    full = psi_pm_many(DUAL_XS, bump, T_F)
    order = np.random.default_rng(5).permutation(DUAL_XS.size)
    weights._psi_grid.cache_clear()
    for sel in (order, np.arange(0, DUAL_XS.size, 7), np.arange(5000, 5100),
                *(np.arange(i, i + 1) for i in range(400))):
        for got, want in zip(psi_pm_many(DUAL_XS[sel], bump, T_F), full):
            assert np.array_equal(got, want[sel])


def _reflecting_kernel(rng, rows):
    # k_j(c + it) = sum_m a_jm e^{i b_jm t} e^{-(t/40)^2} with real a, b, so
    # that k_j(c - it) = conj k_j(c + it)
    a = rng.standard_normal((rows, 5))
    b = rng.uniform(-3.0, 3.0, (rows, 5))

    def kernel(t):
        return (np.einsum("jm,jmt->jt", a, np.exp(1j * b[:, :, None] * t))
                * np.exp(-(t / 40) ** 2))
    return kernel


def test_half_line_matches_full_line():
    # the engine doubles the real part of the half-line sum: against the
    # dense trapezoid sum over the full line -K..K, with the kernel taken
    # at -t_k too, on the Psi period with two rows and the V2 period with one
    rng = np.random.default_rng(2)
    for L, base, c, rows, xs, P in (
            (PSI_L, math.pi ** 2, 0.0, 2, DUAL_XS[::160], weights._STENCIL),
            (128.0, math.pi, 0.5, 1, np.geomspace(1e-6, 14.4, 97),
             weights._V2_STENCIL)):
        kernel = _reflecting_kernel(rng, rows)
        K = 2000
        line = _half_line(kernel, L, K)
        got, err = _interpolate(*_trapezoid_grid(line, L, P), L, base, c, xs)
        t = 2 * math.pi / L * np.arange(-K, K + 1)
        w = kernel(t) / L
        u = np.log(base * xs)
        want = (np.exp(-1j * np.outer(u, t)) @ w.T).T * np.exp(-c * u)
        rounding = 1e-13 * np.sum(np.abs(w), axis=1)[:, None] * np.exp(-c * u)
        assert np.max(np.abs(want.imag)) <= np.max(rounding)
        assert np.all(np.abs(got - want.real) <= err + rounding)


def test_half_line_rejects_kernel_without_reflection():
    kernel = _reflecting_kernel(np.random.default_rng(3), 1)
    _half_line(kernel, 128.0, 64)
    with pytest.raises(QuadratureFailure):
        _half_line(lambda t: np.exp(0.1j) * kernel(t), 128.0, 64)


def test_psi_stated_error_below_tolerance():
    # the (7, 1, 50) dual sum: each stated term, and their sum, below
    # _PSI_TOL / 2, where the engine would refuse; the truncation (the
    # empirical tail of the height table) is the largest of the three
    vals, errors = weights._psi_contour(DUAL_XS, default_bump(), T_F, 0.0)
    assert vals.shape == (2, DUAL_XS.size)
    assert set(errors) == {"aliasing", "truncation", "interpolation"}
    total = sum(errors.values())
    assert total.shape == vals.shape
    assert np.max(total) < weights._PSI_TOL / 2
    assert np.max(errors["interpolation"]) < 1e-15
    assert np.max(errors["aliasing"]) < 1e-13


def test_engine_refuses_a_grid_it_cannot_certify(monkeypatch):
    # a 4096-point u-grid cannot hold the Psi line's 7368 nodes, and leaves
    # the V2 stencil a stated error of 1.2e-7; a 2-point stencil leaves
    # both above 1e-5: psi_pm_many and v2_many raise rather than return
    # values
    xs = np.geomspace(0.8, 50.0, 8)
    for patch in ({"_U_FFT": 1 << 12}, {"_STENCIL": 2, "_V2_STENCIL": 2}):
        with monkeypatch.context() as m:
            for name, value in patch.items():
                m.setattr(weights, name, value)
            weights._psi_grid.cache_clear()
            weights._v2_grid.cache_clear()
            try:
                with pytest.raises(QuadratureFailure):
                    psi_pm_many(xs, default_bump(), T_F)
                with pytest.raises(QuadratureFailure):
                    v2_many(xs, T_F)
            finally:
                weights._psi_grid.cache_clear()
                weights._v2_grid.cache_clear()


def test_psi_rejects_non_finite_arguments():
    for xs in ([math.nan], [math.inf], [1.0, math.nan], [-1.0], [0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            psi_pm_many(np.array(xs), default_bump(), T_F)
    pp, pm = psi_pm_many(np.zeros(0), default_bump(), T_F)
    assert pp.shape == pm.shape == (0,)


def test_v1_rejects_non_finite_arguments():
    for xs in ([math.nan], [math.inf], [1.0, math.nan], [-1.0], [0.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            v1_many(np.array(xs))


def test_psi_plus_under_the_k0_bound():
    # |K_2iT(z)| <= K_0(z) for z > 0 (DLMF 10.32.9) and K_0 decreases, so
    # the Bessel form gives |Psi+(x)| <= 4x cosh(pi T) ||psi||_1 K_0(4 pi sqrt x),
    # an oracle with no contour; the engine's values lie under it plus their
    # stated error, at the (7, 1, 50) dual-sum arguments and on [1e-3, 2e4]
    norm, _ = quad(lambda y: math.exp(4 - 1 / ((y - 1) * (2 - y))), 1, 2,
                   epsabs=1e-14)
    for xs in (DUAL_XS, np.geomspace(1e-3, 2e4, 400)):
        vals, errors = weights._psi_contour(xs, default_bump(), T_F, 0.0)
        bound = 4 * xs * math.cosh(math.pi * T_F) * norm * k0(4 * math.pi * np.sqrt(xs))
        assert np.all(np.abs(vals[0]) <= bound + sum(errors.values())[0])


def test_psi_batch_matches_scalar():
    # against the Bessel form of Psi+-, which shares no code with the batch
    # engine; the dual-sum arguments reach n N / q^2 with n up to 16000
    xs = np.concatenate([np.geomspace(0.8, 50.0, 8), [300.0, 16000 * 50 / 49]])
    pp, pm = psi_pm_many(xs, default_bump(), T_F)
    for i, x in enumerate(xs):
        assert abs(pp[i] - psi_bessel(float(x), T_F, +1)) < 3e-9
        assert abs(pm[i] - psi_bessel(float(x), T_F, -1)) < 3e-9


def _bump_mellin(s):
    # psi~(s) by the oracle's node rule, validated to 1e-12 for |Im s| <= 640
    return mellin_dense(mellin_rule(640.0, 1e-12), np.atleast_1d(s))


def test_bump_profile_and_mellin():
    psi = default_bump()
    assert psi(0.99) == 0.0 and psi(2.01) == 0.0
    assert psi(1.5) == 1.0     # normalization peak: exp(4 - 1/(1/4 * ... ))
    # Mellin at s=1 is the plain integral of the bump
    x = np.linspace(1.0, 2.0, 200001)
    direct = np.trapezoid(psi(x), x)
    assert abs(_bump_mellin(1.0)[0] - direct) < 1e-9
    # the integration-by-parts decay certificate bounds |psi~(it)| at every
    # sample of the FFT line with t >= 1
    bound = psi.mellin_line_bound(0.0, k=8)
    t, a, _, _ = _bump_mellin_line(0.0)
    assert all(a_t <= bound(t_t) for t_t, a_t in zip(t, a) if t_t >= 1.0)


_LINE_CS = (0.0,) + weights._PSI_LADDER_CS


def test_ladder_lines_lie_under_the_k8_bound():
    # at Re s = -C with -C + 7 < 0 the supremum of x^(-C+7) on [1, 2] is 1,
    # at x = 1: a factor 2^(-C+7) in its place undercuts the line at C >= 10
    psi = default_bump()
    for C in _LINE_CS:
        bound = psi.mellin_line_bound(-C, k=8)
        t, a, _, _ = _bump_mellin_line(C)
        assert all(a_t <= bound(t_t) for t_t, a_t in zip(t, a) if t_t >= 1.0), C


def test_fft_line_matches_the_node_rule():
    # the FFT line against the Gauss-Legendre Mellin rule of the oracle, a
    # second algorithm, at every 10th sample with t <= 640 (measured: 5.6e-15)
    rule = mellin_rule(640.0, 1e-12)
    for C in _LINE_CS:
        t, a, _, _ = _bump_mellin_line(C)
        sel = np.arange(0, np.searchsorted(t, 640.0, side="right"), 10)
        dense = np.abs(mellin_dense(rule, -C - 1j * t[sel]))
        assert np.max(np.abs(dense - a[sel])) <= 1e-13 * np.max(a), C


def test_fft_line_rejects_aliasing(monkeypatch):
    # 2^12 points put the Nyquist frequency at 290, below the line's floor
    # near t = 1000, so the aliasing bound exceeds the floor
    monkeypatch.setattr(weights, "_LINE_FFT", 1 << 12)
    _bump_mellin_line.cache_clear()
    try:
        with pytest.raises(QuadratureFailure):
            _bump_mellin_line(0.0)
    finally:
        _bump_mellin_line.cache_clear()


def test_bump_derivatives_against_mpmath():
    # the integer recurrence against 40-digit numerical differentiation of
    # the bump's formula, relative to the largest |psi^(k)| on a grid
    psi = default_bump()
    grid = np.linspace(1.0, 2.0, 4001)

    def bump(y):
        return mpmath.exp(4 - 1 / ((y - 1) * (2 - y)))
    for k in range(1, 9):
        sup = float(np.max(np.abs(psi.derivative(k, grid))))
        for x in (1.1, 1.3, 1.5, 1.77, 1.93):
            with mpmath.workdps(40):
                want = float(mpmath.diff(bump, mpmath.mpf(x), k))
            assert abs(psi.derivative(k, x) - want) <= 1e-12 * sup


def test_bump_derivative_l1():
    # the L1 norm of psi^(8) that the integration-by-parts bound
    # mellin_line_bound reads, from the derivative built for that order alone
    assert abs(default_bump().deriv_l1(8) / 24057240462.08824 - 1) < 1e-12


def test_mellin_decay_is_stretched_exponential():
    # |psi~(it)| ~ exp(-a sqrt t) with a around 1.06; require at least 0.8
    v40, v640 = np.abs(_bump_mellin([40j, 640j]))
    assert v640 < v40 * math.exp(-0.8 * (math.sqrt(640) - math.sqrt(40)))


def test_v_bounds_dominate_values():
    # the certified bound must dominate the true value; the computed value
    # carries quadrature noise of order tol, hence the additive allowance.
    # V2 peaks at 1.281 near x = 1.555
    for x in np.append(np.geomspace(0.2, 6.0, 12), 1.555):
        assert abs(v1(float(x))) <= v1_bound(float(x)) + 1e-9
        assert abs(v2(float(x), T_F)) <= v2_bound(float(x), T_F) + 1e-9


def test_psi_bounds_dominate_values():
    xs = np.array([1.0, 3.0, 10.0, 100.0])
    for sign, vals in zip((+1, -1), psi_pm_many(xs, default_bump(), T_F)):
        for x, val in zip(xs, vals):
            assert abs(val) <= psi_bound(float(x), T_F, sign) + 1e-9


def test_psi_small_x_vanishes_linearly():
    # shifting left to Re s = -0.9 shows Psi(x) = O(x^{0.9}); the ratio
    # |Psi(x)| / x stays bounded on [1e-4, 1e-1]
    psi = default_bump()
    xs = np.geomspace(1e-4, 1e-1, 6)
    pp, pm = psi_pm_many(xs, psi, T_F)
    for sign, vals in ((+1, pp), (-1, pm)):
        for x, v in zip(xs, vals):
            assert abs(v) <= psi_bound(float(x), T_F, sign)
            assert abs(v) / x < 50.0


def test_psi_large_x_decay():
    psi = default_bump()
    xs = np.array([100.0, 1000.0, 10000.0])
    _, pm = psi_pm_many(xs, psi, T_F)
    # minus kernel decay steepens past x ~ 100: at least x^{-2} from there
    for i in range(1, len(xs)):
        assert abs(pm[i]) < abs(pm[0]) * (xs[0] / xs[i]) ** 2


def test_psi_batch_abscissa_independence():
    psi = default_bump()
    xs = np.geomspace(0.8, 20.0, 6)
    p0, m0 = psi_pm_many(xs, psi, T_F)
    p5, m5 = psi_pm_many(xs, psi, T_F, sigma=0.5)
    assert np.max(np.abs(p0 - p5)) < 2e-9
    assert np.max(np.abs(m0 - m5)) < 2e-9
    with pytest.raises(ValueError):
        psi_pm_many(xs, psi, T_F, sigma=-0.5)


def test_abscissa_validation():
    # the program rejects arguments off its domain (and psi_pm_many a
    # negative abscissa, test_psi_batch_abscissa_independence); the oracles
    # reject abscissae c <= 0
    for xs in ([1.0, 0.0], [-1.0]):
        with pytest.raises(ValueError):
            v1_many(xs)
        with pytest.raises(ValueError):
            v2_many(xs, T_F)
        with pytest.raises(ValueError):
            psi_pm_many(xs, default_bump(), T_F)
    with pytest.raises(ValueError):
        v2_many([1.0, math.inf], T_F)
    for c in (-1.0, 0.0):
        with pytest.raises(ValueError):
            v1(1.0, c=c)
        with pytest.raises(ValueError):
            v2(1.0, T_F, c=c)
