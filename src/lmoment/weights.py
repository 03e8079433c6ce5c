"""Gamma factors, AFE weights V1/V2 and Voronoi kernels G+- / Psi+-.

The weights are inverse Mellin transforms, evaluated by quadrature on a
vertical segment [c - iH, c + iH]: truncation heights come from tail bounds,
and panel counts are doubled until two refinements agree, which is the
a-posteriori certificate demanded of every contour integral here.

One batch engine, _batch_line, evaluates many arguments and kernel rows at
once.  Every kernel it takes satisfies Schwarz reflection, k(c - it) =
conj k(c + it), so each integral is real, twice the real part of its upper
half: the engine evaluates the kernel and the phase on the upper half of
the panel grid only, and checks the reflection once per call on the
mirrored first panel.  Its nodes t = m_p + h xi_k lie on an exact arithmetic
grid, and _grid_phase splits the phase e^{-iut} in two levels, coarse panels
and fine panels times nodes, for the phase sum and the bump's Mellin
transform alike.  It gives the Psi+- kernels of the dual sum (psi_pm_many)
and builds the V2 table: v2_many reads per-form Chebyshev pieces in log x
over the dyadic intervals [2^j, 2^(j+1)], each fitted once to the engine and
accepted only after an off-node check against it.

The tests check the engine against oracles that share no code with this
module.  For V1 and V2 they are dense scalar contour integrals with their
own gamma ratio (tests/contour_oracle.py), whose abscissa c is their one
setting.  For Psi+- it is the Bessel form, Psi+(x) = 4x cosh(pi T) int
psi(y) K_2iT(4 pi sqrt(xy)) dy over [1, 2] and its J_2iT counterpart for
Psi-, which the tests compute with mpmath (tests/bessel_oracle.py).

V1 has the closed form Q(1/4, pi x^2), which v1_many evaluates directly.

Each weight's gamma factors are written once (_v2_kernel for V2, g_pm for
G+-), from scipy.special.loggamma.  G+- is taken in its closed form,
2 pi G+-(s) = 4^(-s) Gamma(1+s+iT) Gamma(1+s-iT) (cosh(pi T) or
-cos(pi s)) / pi, in log space: one loggamma pair serves both signs, nothing
cancels, and values below the smallest normal double are an exact 0.  The
bump's Mellin transform along a vertical line is sampled by a 2^16-point FFT
down to its double-precision floor.  By Poisson summation each sample is
the transform plus its aliases, which the k = 8 integration-by-parts bound
holds below a tenth of the floor, a proven check made on every line
(_bump_mellin_line).  Beyond the floor one empirical stretched-exponential
fit continues the line (_psi_line); both the Psi+- truncation heights and
the Psi+- decay ladders read it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc, loggamma

from .errors import QuadratureFailure

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# vertical decay of the gamma function

def gamma_line_bound(sigma: float, y: float) -> float:
    """Upper bound for |Gamma(sigma + iy)|, |y| >= 2, 0 <= sigma <= 2.5.

    Classical vertical-decay estimate with a safety factor of 2.
    """
    y = abs(y)
    if y < 2:
        raise ValueError("bound valid for |y| >= 2")
    if not 0.0 <= sigma <= 2.5:
        raise ValueError("bound coded for 0 <= sigma <= 2.5")
    return 2.0 * math.sqrt(2 * math.pi) * (y ** (sigma - 0.5)) * math.exp(-math.pi * y / 2 + 1.0 / (6 * y))


# ---------------------------------------------------------------------------
# quadrature on a vertical segment

# Gauss-Legendre nodes per contour panel, and the panel cap of a V2 contour.
_GL_ORDER = 24
_MAX_PANELS = 4096

# Target accuracy of V2 at each point of its table (v2_table_error).
_V_TOL = 1e-10

# The abscissa of the V2 table: at c = 1 the integrand carries (pi x)^-1, and
# for x = 1e-6 its cancellation costs 1.3e-9; at c = 1/2 the engine stays
# within 2e-12 of V2's residue series from x = 1e-6 to 14.4.
_V2_C = 0.5

# Target accuracy of the Psi+- kernels.
_PSI_TOL = 1e-9


@lru_cache(maxsize=16)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _grow_height(tail_bound, tol: float, h0: float = 20.0, hmax: float = 6000.0) -> float:
    """Smallest height (by doubling) with certified tail below tol/10."""
    H = h0
    while H <= hmax:
        if tail_bound(H) < tol / 10:
            return H
        H *= 1.5
    raise QuadratureFailure("tail bound does not reach tolerance; integrand decays too slowly")


# ---------------------------------------------------------------------------
# V2

def _v2_kernel(s, T_f: float):
    """Gamma((2s+1+2iT)/4) Gamma((2s+1-2iT)/4) / (norm s) at complex s, with
    norm = |Gamma((1+2iT)/4)|^2: the Mellin kernel of V2."""
    a = 2j * T_f
    lg = (loggamma((2 * s + 1 + a) / 4) + loggamma((2 * s + 1 - a) / 4)
          - 2.0 * loggamma((1 + a) / 4).real)
    return np.exp(lg) / s


def _v2_tail_bound(x: float, T_f: float, c: float):
    a = 2 * abs(T_f)
    denom = math.exp(2.0 * loggamma((1 + 2j * T_f) / 4).real)

    def bound(H):
        if H <= a + 8:
            return math.inf
        sig = (2 * c + 1) / 4
        amp = ((math.pi * x) ** (-c)
               * gamma_line_bound(sig, (H + a) / 2)
               * gamma_line_bound(sig, (H - a) / 2) / (denom * H))
        return amp * (2 / math.pi) / TWO_PI
    return bound


# ---------------------------------------------------------------------------
# smooth bump test function and its Mellin transform

def _bump_panels(tmax: float) -> int:
    """Starting panel count of the bump's Mellin rule up to frequency tmax."""
    return max(4, int(0.12 * tmax / 4) + 2)


def _bump_rule(psi: TestFunction, panels: int):
    """(log x_m, b_m): composite 16-point Gauss-Legendre on [1, 2] with
    b_m = weight_m psi(x_m), so that psi~(s) ~ sum_m b_m x_m^(s-1)."""
    x0, w0 = _gl_nodes(16)
    edges = np.linspace(1.0, 2.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * x0[None, :]).ravel()
    base = np.broadcast_to(half * w0[None, :], (panels, 16)).ravel() * psi(x)
    return np.log(x), base


def _mellin_dense(rule, s) -> np.ndarray:
    """psi~(s) on a 1-d array by a node rule, one exponential per node and s."""
    lx, base = rule
    s = np.asarray(s, dtype=complex)
    out = np.empty(s.shape, dtype=complex)
    for i0 in range(0, s.size, 4096):
        blk = s[i0:i0 + 4096]
        out[i0:i0 + 4096] = np.exp(lx[None, :] * (blk[:, None] - 1)) @ base
    return out


class TestFunction:
    """Canonical smooth bump supported on [1,2].

    psi(x) = exp(4 - 1/(u(1-u))), u = x-1, extended by zero.  Each derivative
    is exact up to rounding, a polynomial with integer coefficients times a
    power of u(1-u) times psi (_bump_derivative); their L1 norms feed the
    decay certificates for the Mellin transform.
    """

    support = (1.0, 2.0)
    name = "canonical_bump"
    __test__ = False

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape if x.ndim else (1,))
        xs = np.atleast_1d(x)
        inside = (xs > 1.0) & (xs < 2.0)
        u = xs[inside] - 1.0
        out_in = np.exp(4.0 - 1.0 / (u * (1.0 - u)))
        res = np.zeros(xs.shape)
        res[inside] = out_in
        return float(res[0]) if x.ndim == 0 else res

    def derivative(self, k: int, x):
        """k-th derivative of psi (0 outside the open support)."""
        if k == 0:
            return self(x)
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        res = np.zeros(xs.shape)
        inside = (xs > 1.0) & (xs < 2.0)
        if np.any(inside):
            w = xs[inside] - 1.5
            e = 1.0 - 4.0 * w * w
            res[inside] = (np.polynomial.polynomial.polyval(
                w, _bump_derivative(k).astype(float))
                * np.exp(4.0 - 4.0 / e - 2 * k * np.log(e)))
        return float(res[0]) if x.ndim == 0 else res

    @lru_cache(maxsize=16)
    def deriv_l1(self, k: int) -> float:
        """integral over [1,2] of |psi^(k)|, by dense trapezoid (certificate input)."""
        x = np.linspace(1.0, 2.0, 40001)
        y = np.abs(self.derivative(k, x))
        return float(np.trapezoid(y, x))

    def mellin_line_bound(self, sigma_w: float, k: int = 8):
        """Bound |psi~(sigma_w + i t)| <= C_k / |t|^k from k-fold integration by parts."""
        # sup of x^(sigma_w + k - 1) on [1, 2]: at x = 2 for a nonnegative
        # exponent, at x = 1 otherwise
        ck = self.deriv_l1(k) * max(1.0, 2.0 ** (sigma_w + k - 1))

        def bound(t):
            t = abs(t)
            # |w (w+1) ... (w+k-1)| >= t^k
            return ck / t ** k if t > 0 else math.inf
        return bound


@lru_cache(maxsize=None)
def _bump_derivative(k: int) -> np.ndarray:
    """Integer coefficients, lowest first, of the polynomial M_k in
    w = x - 3/2 with psi^(k) = M_k(w) E^(-2k) psi, E = 1 - 4w^2 = 4u(1-u).

    As psi = exp(4 - 4/E) and psi' = 4 E' E^(-2) psi, M_0 = 1 and
    M_{k+1} = M_k' E^2 + (4 - 2k E) E' M_k, in Python integers.  The array
    is read-only."""
    P = np.polynomial.polynomial
    E = np.array([1, 0, -4], dtype=object)
    if k == 0:
        m = np.array([1], dtype=object)
    else:
        m = _bump_derivative(k - 1)
        m = P.polyadd(P.polymul(P.polyder(m), P.polymul(E, E)),
                      P.polymul(P.polymul(P.polyder(E), m),
                                P.polysub([4], 2 * (k - 1) * E)))
    m.flags.writeable = False
    return m


@lru_cache(maxsize=1)
def default_bump() -> TestFunction:
    return TestFunction()


# ---------------------------------------------------------------------------
# Voronoi kernels G+- and Psi+-

# Below this, exp of a log value is subnormal or zero: such values are taken
# as an exact 0, since subnormal kernel values slow every product they enter.
_LOG_TINY = math.log(np.finfo(float).tiny)


def _exp_normal(lg):
    """exp(lg), and an exact 0 where Re lg < _LOG_TINY."""
    return np.where(lg.real < _LOG_TINY, 0.0, np.exp(lg))


def _log_g_shared(s, T_f: float):
    """log of 4^(-s) Gamma(1+s+iT) Gamma(1+s-iT) / (2 pi^2), the factor that
    G_+ and G_- share."""
    return (loggamma(1 + s + 1j * T_f) + loggamma(1 + s - 1j * T_f)
            - s * math.log(4.0) - math.log(2.0 * math.pi ** 2))


def _log_g_factor(s, T_f: float, sign: int):
    """log cosh(pi T) for sign=+1, log(-cos(pi s)) for sign=-1.

    -cos(pi s) = e^{i e pi (1 - s)} (1 + e^{2i e pi s}) / 2 with e the sign
    of Im s, so the exponential under log1p never exceeds 1, where cos(pi s)
    itself overflows past |Im s| ~ 225, and the value at conj s is the
    conjugate of the value at s."""
    if sign > 0:
        T = abs(T_f)
        return math.pi * T + math.log1p(math.exp(-TWO_PI * T)) - math.log(2.0)
    e = np.where(s.imag < 0, -1.0, 1.0)
    return (1j * math.pi * e * (1.0 - s) - math.log(2.0)
            + np.log1p(np.exp(2j * math.pi * e * s)))


def g_pm(s, T_f: float, sign: int):
    """G_{+-}(s), the Voronoi kernel's gamma factor; sign=+1 selects the plus
    kernel.

    By reflection and duplication, 2 pi G_{+-}(s) = 4^(-s) Gamma(1+s+iT)
    Gamma(1+s-iT) (cosh(pi T) for +, -cos(pi s) for -) / pi, taken in log
    space: two loggamma calls, no cancellation, and an exact 0 where the
    value is below the smallest normal double.  G(conj s) = conj G(s).
    """
    s_arr = np.asarray(s, dtype=complex)
    scalar = s_arr.ndim == 0
    s_flat = np.atleast_1d(s_arr)
    val = _exp_normal(_log_g_shared(s_flat, T_f)
                      + _log_g_factor(s_flat, T_f, sign))
    return complex(val[0]) if scalar else val


@lru_cache(maxsize=32)
def _mellin_rule(psi: TestFunction, tmax: float, tol: float):
    """The node rule of _bump_rule for |Im s| <= tmax, validated once by
    panel doubling to tol at the worst-case frequency.  The arrays are
    read-only."""
    panels = _bump_panels(tmax)
    probe = np.array([1.0 - 1j * tmax, -1.0 - 1j * tmax, -1j * tmax * 0.7])
    while True:
        rule, rule2 = _bump_rule(psi, panels), _bump_rule(psi, 2 * panels)
        if np.max(np.abs(_mellin_dense(rule, probe)
                         - _mellin_dense(rule2, probe))) <= tol:
            for a in rule2:
                a.flags.writeable = False
            return rule2
        panels *= 2
        if panels > 4096:
            raise QuadratureFailure("Mellin node rule did not validate")


def _mellin_separable(rule, sigma: float, mid: np.ndarray,
                      off: np.ndarray) -> np.ndarray:
    """psi~(-s) at s = sigma + i(mid_p + off_k), as a (panels, nodes) array:
    x_m^(-s-1) = x_m^(-sigma-1) e^{-i (mid_p + off_k) log x_m}, whose phase
    _grid_phase splits; the coarse factor folds into one matrix product."""
    lx, base = rule
    coarse, fused = _grid_phase(lx, mid, off)
    fused *= (base * np.exp(-(sigma + 1.0) * lx))[:, None]
    return (coarse.T @ fused).reshape(-1, off.size)[:mid.size]


# The FFT of _bump_mellin_line: its points, and its period in v = log x as a
# multiple of log 2, the length of the bump's support.  2^16 points leave
# 1024 samples on the support and a Nyquist frequency of 4640, against
# floors at t <= 1010; _bump_mellin_line bounds the aliasing this admits.
_LINE_FFT = 1 << 16
_LINE_PAD = 64

# zeta(8), the sum over j >= 1 of j^-8
_ZETA8 = math.pi ** 8 / 9450.0


@lru_cache(maxsize=32)
def _bump_mellin_line(C: float):
    """|psi~(-C - i t)| for the canonical bump, sampled on an FFT frequency grid.

    In the log variable v = log x, psi~(-C - i t) is the Fourier transform at
    t of g(v) = psi(e^v) e^{-C v}, smooth and supported in [0, log 2].  The
    FFT samples g at v = n h over one period L = 64 log 2 with h = L /
    _LINE_FFT, so by Poisson summation its value at t_k = 2 pi k / L is
    exactly the sum over all j of psi~(-C - i (t_k + 2 pi j / h)): aliasing
    is its only error beyond rounding.  For 0 <= t_k <= t_cut the terms
    j >= 1 lie at |t| >= j 2 pi / h and the terms j <= -1 at
    |t| >= |j| (2 pi / h - t_cut), where the k = 8 bound B of
    mellin_line_bound(-C) holds, so the aliasing is at most
    zeta(8) (B(2 pi / h) + B(2 pi / h - t_cut)).  QuadratureFailure is raised
    unless that is below a tenth of the floor (1e-14 of the line's maximum,
    and at least 1e-16).

    Returns (t, |psi~(-C-it)|, slope, a2) for t >= 0 up to the last sample
    above the floor, t_cut = t[-1].  Beyond it |psi~| is taken, empirically,
    to decay like a2 exp(-slope (sqrt t - sqrt t[-1])), with slope measured
    between t[-1] / 4 and t[-1].  The arrays are read-only.
    """
    psi = default_bump()
    L = _LINE_PAD * math.log(2.0)
    h = L / _LINE_FFT
    v = np.arange(_LINE_FFT) * h
    g = np.zeros(_LINE_FFT)
    m = v < math.log(2.0)
    g[m] = psi(np.exp(v[m])) * np.exp(-C * v[m])
    aF = np.abs(h * np.fft.rfft(g))
    t = np.arange(aF.size) * (TWO_PI / L)
    floor = max(1e-14 * float(aF.max()), 1e-16)
    cut = int(np.nonzero(aF > floor)[0].max())
    bound = psi.mellin_line_bound(-C, 8)
    alias = _ZETA8 * (bound(TWO_PI / h) + bound(TWO_PI / h - t[cut]))
    if not alias < floor / 10:
        raise QuadratureFailure(
            f"FFT line of the bump at Re s = {-C:g} aliases by up to "
            f"{alias:.2e}, above a tenth of its floor {floor:.2e}")
    i1 = int(np.searchsorted(t, 0.25 * t[cut]))
    # windowed maxima so the slope is fit to the envelope of |psi~|, not to
    # one of its near-zeros
    w = 60
    a1 = float(np.max(aF[max(0, i1 - w): i1 + w]))
    a2 = float(np.max(aF[max(0, cut - w): cut + 1]))
    slope = (math.log(a1) - math.log(a2)) / (math.sqrt(t[cut]) - math.sqrt(t[i1]))
    tt, aF = t[: cut + 1].copy(), aF[: cut + 1].copy()
    tt.flags.writeable = aF.flags.writeable = False
    return tt, aF, slope, a2


def _psi_line(C: float, T_f: float, sign: int):
    """(tt, body, te, ext): |G(C+it) psi~(-C-it)| on the FFT line up to the
    floor of psi~, and its extrapolated tail on te from tt[-1] to 400 tt[-1].

    The tail is empirical: the measured stretched-exponential decay of psi~
    (softened by 0.8) under the kernel envelope t^(2C+1) measured on the
    same line (with 5% margin)."""
    tt, aF, slope, a2 = _bump_mellin_line(C)
    gv = np.abs(g_pm(C + 1j * tt, T_f, sign))
    env = 1.05 * float(np.max(gv / (1.0 + tt) ** (2 * C + 1)))
    te = np.geomspace(tt[-1], 400.0 * tt[-1], 4001)
    ext = (env * (1.0 + te) ** (2 * C + 1)
           * a2 * np.exp(-0.8 * slope * (np.sqrt(te) - math.sqrt(tt[-1]))))
    return tt, gv * aF, te, ext


@lru_cache(maxsize=16)
def _psi_height_table(sigma: float, T_f: float, sign: int):
    """Tail integrals of |G(sigma+it) psi~(-sigma-it)| as a function of height.

    Returns (t_grid, tail) with tail[i] = integral from t_grid[i] to infinity,
    over the FFT line and its empirical extrapolation (_psi_line).
    """
    tt, body, te, ext = _psi_line(sigma, T_f, sign)
    tg = np.concatenate([tt, te[1:]])
    vals = np.concatenate([body, ext[1:]])
    seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(tg)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    return tg, tail


# ---------------------------------------------------------------------------
# certified power-decay bounds (contour-shift ladder)

_LADDER_CS = (2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 160.0)


def _abs_line_integral(fun_abs, c: float, rel: float = 1e-3) -> float:
    """(1/2 pi) integral of |fun(c+it)| dt, growing the height until stable."""
    H = 40.0
    prev = None
    for _ in range(14):
        n = min(160001, 2 * int(40 * H) + 1)
        t = np.linspace(-H, H, n)
        vals = fun_abs(c + 1j * t)
        cur = float(np.trapezoid(vals, t)) / TWO_PI
        if prev is not None and abs(cur - prev) <= rel * max(abs(cur), 1e-300):
            return cur * (1 + 2 * rel)
        prev = cur
        H *= 1.6
    raise QuadratureFailure("absolute line integral did not stabilize")


@lru_cache(maxsize=8)
def v2_decay_ladder(T_f: float) -> tuple:
    """(C, B_C) pairs with |V2(x)| <= B_C * (pi x)^{-C} from shifting right to Re s = C."""
    return tuple((C, _abs_line_integral(lambda s: np.abs(_v2_kernel(s, T_f)), C))
                 for C in _LADDER_CS)


def v1_bound(x: float) -> float:
    """|V1(x)| = Q(1/4, pi x^2) <= (pi x^2)^{-3/4} e^{-pi x^2} / Gamma(1/4), plus cap."""
    z = math.pi * x * x
    if z < 1.0:
        return 1.0
    return min(1.0, z ** (-0.75) * math.exp(-z) / math.gamma(0.25))


_PSI_LADDER_CS = (-0.9, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0)


@lru_cache(maxsize=8)
def psi_decay_ladder(T_f: float, sign: int) -> tuple:
    """(C, B_C) with |Psi_{+-}(x)| <= B_C (pi^2 x)^{-C}.

    B_C = (1/2 pi) integral over the line Re s = C of |G(s) psi~(-s)|.  The
    kernel grows like t^{2C+1} while psi~ decays like exp(-a sqrt(t)), so the
    integrand is integrated out to where psi~ meets its double-precision
    floor; the remainder is covered by the empirical extrapolation of
    _psi_line, and the sum by a safety factor of 1.001.
    """
    out = []
    for C in _PSI_LADDER_CS:
        tt, body, te, ext = _psi_line(C, T_f, sign)
        out.append((C, (2.0 * float(np.trapezoid(body, tt)) / TWO_PI
                        + 2.0 * float(np.trapezoid(ext, te)) / TWO_PI) * 1.001))
    return tuple(out)


# ---------------------------------------------------------------------------
# batch evaluation: one contour, one node rule, many arguments

# Arguments per block: at 1360 panels, a 14.5 MB fused factor (1024 x 37 x 24).
_PHASE_BLOCK = 1024

# Quadrature weights w k below this are dropped.  Their products with the
# phase factors would be subnormal, which slowed the (7, 1, 50) phase sums
# 1.6-fold, and each is some 1e260 below any tolerance of a contour here.
_NEGLIGIBLE = 1e-270


def _fine_panels(panels: int) -> int:
    """Panels per coarse row of _grid_phase, ceil(sqrt(panels))."""
    return math.isqrt(panels - 1) + 1


def _grid_phase(u: np.ndarray, mid: np.ndarray, off: np.ndarray):
    """(coarse, fused), e^{-iu t} = coarse[i, a] fused[i, b nodes + k] at the
    nodes t = mid_p + off_k, p = aF + b, of an exact arithmetic grid mid, with
    coarse = e^{-iu mid_aF}, fused = e^{-iu (mid_b - mid_0)} e^{-iu off_k}."""
    F = _fine_panels(mid.size)
    coarse = np.exp(-1j * np.outer(u, mid[::F]))
    fine = np.exp(-1j * np.outer(u, mid[:F] - mid[0]))
    node = np.exp(-1j * np.outer(u, off))
    return coarse, (fine[:, :, None] * node[:, None, :]).reshape(u.size, -1)


def _phase_sum(u: np.ndarray, mid: np.ndarray, off: np.ndarray,
               wk: np.ndarray) -> np.ndarray:
    """sum over p, k of e^{-i u (mid_p + off_k)} wk[j, p, k] for every u and
    row j: sum_a coarse[., a] (fused @ W)[., (j, a)] by _grid_phase, where W
    is wk zero-padded to whole coarse rows and laid out as ((b, k), (j, a))."""
    rows, panels, nodes = wk.shape
    F = _fine_panels(panels)
    w = np.pad(wk, ((0, 0), (0, -panels % F), (0, 0)))
    w = w.reshape(rows, -1, F, nodes).transpose(2, 3, 0, 1).reshape(
        F * nodes, -1)
    out = np.empty((rows, u.size), dtype=complex)
    for i0 in range(0, u.size, _PHASE_BLOCK):
        ub = u[i0:i0 + _PHASE_BLOCK]
        coarse, fused = _grid_phase(ub, mid, off)
        a = (fused @ w).reshape(ub.size, rows, -1)
        out[:, i0:i0 + _PHASE_BLOCK] = np.einsum("ba,bja->jb", coarse, a)
    return out


def _panel_grid(H: float, panels: int):
    """(mid, h): midpoints (2p + 1 - panels) h of panels that cover [-H, H];
    h is H / panels rounded up to k 2^-30, so each is exact for H < 2^23."""
    h = math.ceil(H / panels * 2.0 ** 30) / 2.0 ** 30
    return h * np.arange(1 - panels, panels, 2), h


def _check_reflection(kernel, k: np.ndarray, mid: np.ndarray,
                      off: np.ndarray) -> None:
    """Raise QuadratureFailure unless kernel(c - it) = conj kernel(c + it) on
    the first upper panel k = kernel(mid, off), to rounding: 1e-12 of each
    row's largest value there.  The Gauss-Legendre offsets are symmetric, so
    the mirrored panel's nodes are those of the first one, reversed."""
    mirror = kernel(-mid[:1], off)[:, :, ::-1]
    first = k[:, :1]
    dev = np.max(np.abs(mirror - np.conj(first)), axis=(1, 2))
    if np.any(dev > 1e-12 * np.max(np.abs(first), axis=(1, 2))):
        raise QuadratureFailure(
            "contour kernel fails Schwarz reflection; its integral is not "
            "twice the real part of the upper half")


def _batch_line(base: float, xs: np.ndarray, c: float, H: float, tol: float,
                kernel, min_panels: int,
                max_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(1/2 pi) integral over t in [-H, H] of (base*x)^{-s} k_j(s) dt at
    s = c + it, for every kernel row k_j and every x in xs at once.

    Every kernel satisfies Schwarz reflection, k_j(c - it) = conj k_j(c + it),
    so the integral is 2 Re of its upper half, and only the upper half of
    _panel_grid's symmetric midpoints is evaluated: kernel(mid, off) returns
    k_j(c + i(mid_p + off_k)) as a (rows, panels, _GL_ORDER) array at those
    midpoints mid > 0 and the offsets h xi_k.  Once per call the kernel is
    checked on the mirrored first panel (_check_reflection).  Panel counts
    are even; they double from min_panels until every value agrees with the
    previous level within tol/2 plus its rounding floor, the full line's
    4e-15 sum|w k_j| (base x)^-c / 2 pi = 8e-15 sum_{t>0} |w k_j| (base x)^-c
    / 2 pi.  Returns (values, floors), real, each of shape (rows, xs.size).
    """
    if min_panels % 2:
        raise ValueError("panel counts must be even")
    x0, w0 = _gl_nodes(_GL_ORDER)
    lx = np.log(base * xs)
    pref = np.exp(-c * lx) / TWO_PI
    panels = min_panels
    prev = None
    while panels <= max_panels:
        mid, half = _panel_grid(H, panels)
        mid = mid[panels // 2:]
        off = half * x0
        k = kernel(mid, off)
        if prev is None:
            _check_reflection(kernel, k, mid, off)
        wk = half * w0 * k
        wk[np.abs(wk) < _NEGLIGIBLE] = 0.0
        out = 2.0 * _phase_sum(lx, mid, off, wk).real * pref
        floor = 8e-15 * np.sum(np.abs(wk), axis=(1, 2))[:, None] * pref
        if prev is not None and np.all(np.abs(out - prev) <= tol / 2 + floor):
            return out, floor
        prev = out
        panels *= 2
    raise QuadratureFailure(
        f"batch contour integral did not converge within {max_panels} panels")


def v1_many(xs) -> np.ndarray:
    """V1 on an array of arguments by its closed form Q(1/4, pi x^2), the
    normalized upper incomplete gamma function."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("arguments must be positive")
    return gammaincc(0.25, math.pi * xs * xs)


def _v2_contour(xs: np.ndarray, T_f: float):
    """V2 and its rounding floor at every x in xs by one shared contour rule
    (the builder of the V2 table)."""
    H = _grow_height(_v2_tail_bound(float(xs.min()), T_f, _V2_C), _V_TOL,
                     h0=2 * abs(T_f) + 20.0)

    def kernel(mid, off):
        return _v2_kernel(_V2_C + 1j * (mid[:, None] + off[None, :]), T_f)[None]

    # one doubling above max(8, H / 6), whose level never passed the check
    out, floor = _batch_line(math.pi, xs, _V2_C, H, _V_TOL, kernel,
                             2 * max(8, int(H / 6)), _MAX_PANELS)
    return out[0], floor[0]


# A V2 table piece starts at this Chebyshev degree and doubles it, up to the
# cap, until it passes the off-node check.
_V2_DEGREE0 = 16
_V2_DEGREE_CAP = 256


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through vals at the points
    cos(pi k / n), k = 0..n (a DCT-I by real FFT of the even extension)."""
    n = vals.size - 1
    c = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
    c[0] /= 2
    c[n] /= 2
    return c


@lru_cache(maxsize=256)
def _v2_piece(T_f: float, j: int) -> tuple[np.ndarray, float]:
    """(coefficients, delta) of the V2 table piece for x in [2^j, 2^(j+1)]: a
    Chebyshev interpolant in t = 2 log2(x) - 2j - 1, and its largest
    deviation from the contour engine at the check points.

    The degree-n nodes are the even points cos(pi k / 2n); the odd ones
    interleave them and are the check points.  A degree passes when its
    deviation there is at most _V_TOL/2, the rule of panel doubling; only
    where the engine's own rounding floor exceeds _V_TOL/2 (x below about
    2e-8) does the floor take its place.  Each piece is built once per
    (T_f, j) from its own nodes, so no value depends on which arguments were
    asked first.
    """
    n = _V2_DEGREE0
    while n <= _V2_DEGREE_CAP:
        s = np.cos(np.pi * np.arange(2 * n + 1) / (2 * n))
        vals, floor = _v2_contour(2.0 ** (j + 0.5 * (s + 1.0)), T_f)
        coef = _cheb_coeffs(vals[::2])
        dev = np.abs(np.polynomial.chebyshev.chebval(s[1::2], coef) - vals[1::2])
        if np.all(dev <= np.maximum(_V_TOL / 2, floor[1::2])):
            coef.flags.writeable = False
            return coef, float(dev.max())
        n *= 2
    raise QuadratureFailure(
        f"V2 table piece [2^{j}, 2^{j + 1}] failed its off-node check")


def _dyadic(xs: np.ndarray):
    """(j, t) with x = 2^j 2^((t+1)/2), t in [-1, 1): the table piece and the
    Chebyshev variable of each argument, exact at the piece edges."""
    m, e = np.frexp(xs)          # xs = m 2^e with m in [1/2, 1)
    return e - 1, 2.0 * np.log2(m) + 1.0


def v2_table_error(T_f: float, x_lo: float, x_hi: float) -> float:
    """Per-point error of the V2 table on [x_lo, x_hi]: the contour tolerance
    _V_TOL plus delta, the largest deviation of the table from the contour
    engine at the off-node check points of every piece that meets the
    interval.  delta is an a-posteriori check, not a proven bound."""
    j_lo, j_hi = (int(j) for j in _dyadic(np.array([x_lo, x_hi]))[0])
    return _V_TOL + max(_v2_piece(T_f, j)[1] for j in range(j_lo, j_hi + 1))


def v2_many(xs, T_f: float) -> np.ndarray:
    """V2 on an array of arguments, read from the per-form table of dyadic
    Chebyshev pieces; each value depends only on (x, T_f)."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("arguments must be positive and finite")
    flat = xs.ravel()
    j, t = _dyadic(flat)
    out = np.empty(flat.shape)
    for jj in np.unique(j):
        sel = j == jj
        out[sel] = np.polynomial.chebyshev.chebval(
            t[sel], _v2_piece(T_f, int(jj))[0])
    return out.reshape(xs.shape)


def psi_pm_many(xs, psi: TestFunction, T_f: float,
                sigma: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(Psi_plus, Psi_minus) on an array of arguments, as real arrays: the
    two kernels are the two rows of one batch contour integral at abscissa
    sigma, with one Mellin node rule and one loggamma pair per node shared
    by all x and both signs."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0), np.zeros(0)
    if np.any(xs <= 0):
        raise ValueError("arguments must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    pref_max = float(np.max((math.pi ** 2 * xs) ** (-sigma)))
    H = 0.0
    for sign in (+1, -1):
        tg, tail = _psi_height_table(sigma, T_f, sign)
        ok = np.nonzero(pref_max * 2.0 * tail / TWO_PI < _PSI_TOL / 10)[0]
        if ok.size == 0:
            raise QuadratureFailure("Psi integrand tail does not reach tolerance")
        H = max(H, float(tg[int(ok.min())]))
    rule = _mellin_rule(psi, 1.001 * H, _PSI_TOL / 100)
    Lmax = float(np.max(np.abs(np.log(math.pi ** 2 * xs))))
    cycles = Lmax * H / TWO_PI + H / 40.0
    start = max(8, int(cycles / 6) + 4)

    def kernel(mid, off):
        s = sigma + 1j * (mid[:, None] + off[None, :])
        lg = _log_g_shared(s, T_f)
        m = _mellin_separable(rule, sigma, mid, off)
        return np.stack([_exp_normal(lg + _log_g_factor(s, T_f, sign)) * m
                         for sign in (+1, -1)])

    # one doubling above the oscillation budget, whose level never passed the
    # check on the dual-sum arguments; the cap stays that of the budget
    out, _ = _batch_line(math.pi ** 2, xs, sigma, H, _PSI_TOL, kernel,
                         2 * start, max(4096, 4 * start))
    return out[0], out[1]
