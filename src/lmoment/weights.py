"""Gamma factors, AFE weights V1/V2 and Voronoi kernels G+- / Psi+-.

V1 has the closed form Q(1/4, pi x^2) (v1_many).  V2 and Psi+- are inverse
Mellin transforms on a line Re s = c, Fourier integrals in u = log(base x):
W(x) = (base x)^(-c) (1/2 pi) int k(c + it) e^(-iut) dt.  One contour engine
evaluates them.  Its kernels satisfy Schwarz reflection, checked on each line
(_half_line), so it samples the half line t_k = 2 pi k / L, takes the
trapezoid sum onto a uniform u-grid of period L by one inverse real FFT
(_trapezoid_grid) and reads each argument from a barycentric stencil
(_interpolate) of _STENCIL points for Psi+- and _V2_STENCIL for V2.  The grid
of each line is built once per form and cached (_psi_grid, _v2_grid); its
rows are padded with wrapped points, so that each stencil is one contiguous
window of a row.  Each call states three error terms per argument and raises
QuadratureFailure where their sum exceeds half its tolerance:

- aliasing, empirical: by Poisson summation the trapezoid sum adds
  e^(c j L) W(x e^(jL)) over j != 0, bounded by the decay ladders, which are
  line integrals grown until stable (V2) or carry an empirical tail (Psi+-);
  the FFT aliasing of the bump's Mellin samples is proven (k = 8 bound);
- truncation in t: proven for V2 (gamma_line_bound), empirical for Psi+-
  (the extrapolated tail of _psi_height_table, until ROADMAP item 2);
- interpolation, proven: the Lagrange remainder, with the P-th derivative
  of the trapezoid sum bounded by (dt / pi) sum_k |k(c + i t_k)| t_k^P.
Rounding, about 1e-16 of (dt / pi) sum_k |k(c + i t_k)|, is not stated.

psi_pm_many reads both Psi+- from one engine call.  v2_many reads V2 straight
from the engine, an 8-point stencil on its own grid, at a stated error of at
most _V_TOL / 2 per point; the AFE charges _V_TOL per point.  The gamma
factors are written once (_v2_kernel, g_pm) from scipy.special.loggamma; G+-
in its closed form, in log space.  The bump's Mellin transform on a vertical
line is a 2^16-point FFT (_bump_fft) on the Psi engine's grid t_k; beyond its
floor one empirical stretched-exponential fit continues it (_psi_line) for
the Psi+- truncation heights and decay ladders.

The tests check the engine against oracles that share no code with it:
dense scalar contour integrals for V1 and V2 (tests/contour_oracle.py), the
Bessel form of Psi+- with mpmath (tests/bessel_oracle.py), and the bump's
Mellin transform by a Gauss-Legendre node rule (tests/mellin_oracle.py).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaincc, loggamma

from .errors import QuadratureFailure

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# vertical decay of the gamma function

def gamma_line_bound(sigma: float, y: float) -> float:
    """Upper bound for |Gamma(sigma + iy)|, |y| >= 2, 0 <= sigma <= 2.5:
    the classical vertical-decay estimate with a safety factor of 2."""
    y = abs(y)
    if y < 2:
        raise ValueError("bound valid for |y| >= 2")
    if not 0.0 <= sigma <= 2.5:
        raise ValueError("bound coded for 0 <= sigma <= 2.5")
    return 2.0 * math.sqrt(2 * math.pi) * (y ** (sigma - 0.5)) * math.exp(-math.pi * y / 2 + 1.0 / (6 * y))


# Target accuracy of V2 at each point (afe2_err_estimate charges it per point).
_V_TOL = 1e-10

# The abscissa of the V2 engine: at c = 1 the integrand carries (pi x)^-1,
# which at x = 1e-6 costs 1.3e-9 in cancellation.
_V2_C = 0.5

# The period in u = log(pi x) of the V2 engine: aliasing e^(-L/2) = 1.6e-28.
_V2_L = 128.0

# Target accuracy of the Psi+- kernels.
_PSI_TOL = 1e-9

# Points per period of the engine's u-grid and of the interpolation stencils:
# stated interpolation errors below 1e-16 for the (7, 1, 50) dual sum at 12
# points, and below 1.2e-15 for V2 at 8.
_U_FFT = 1 << 16
_STENCIL = 12
_V2_STENCIL = 8


def _grow_height(tail_bound, tol: float, h0: float = 20.0, hmax: float = 6000.0) -> float:
    """Smallest height h0 1.5^k, up to hmax, with certified tail below tol/10."""
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

class TestFunction:
    """Canonical smooth bump psi(x) = exp(4 - 1/(u(1-u))), u = x-1, on [1,2]
    and zero outside.  Each derivative is exact up to rounding, an integer
    polynomial times a power of u(1-u) times psi (_bump_derivative); their L1
    norms feed the decay certificates for the Mellin transform."""

    support = (1.0, 2.0)
    name = "canonical_bump"
    __test__ = False

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        inside = (xs > 1.0) & (xs < 2.0)
        u = xs[inside] - 1.0
        res = np.zeros(xs.shape)
        res[inside] = np.exp(4.0 - 1.0 / (u * (1.0 - u)))
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


def g_pm(s, T_f: float, sign: int):
    """G_{+-}(s), the Voronoi kernel's gamma factor; sign=+1 selects the plus
    kernel.

    By reflection and duplication, 2 pi G_{+-}(s) = 4^(-s) Gamma(1+s+iT)
    Gamma(1+s-iT) (cosh(pi T) for +, -cos(pi s) for -) / pi, taken in log
    space: two loggamma calls, no cancellation, and an exact 0 where the
    value is below the smallest normal double.  For the minus sign,
    -cos(pi s) = e^{i e pi (1 - s)} (1 + e^{2i e pi s}) / 2 with e the sign
    of Im s, so the exponential under log1p never exceeds 1, where cos(pi s)
    itself overflows past |Im s| ~ 225.  G(conj s) = conj G(s).
    """
    s_arr = np.asarray(s, dtype=complex)
    s = np.atleast_1d(s_arr)
    lg = (loggamma(1 + s + 1j * T_f) + loggamma(1 + s - 1j * T_f)
          - s * math.log(4.0) - math.log(2.0 * math.pi ** 2))
    if sign > 0:
        T = abs(T_f)
        lg = lg + (math.pi * T + math.log1p(math.exp(-TWO_PI * T)) - math.log(2.0))
    else:
        e = np.where(s.imag < 0, -1.0, 1.0)
        lg = lg + (1j * math.pi * e * (1.0 - s) - math.log(2.0)
                   + np.log1p(np.exp(2j * math.pi * e * s)))
    val = np.where(lg.real < _LOG_TINY, 0.0, np.exp(lg))
    return complex(val[0]) if s_arr.ndim == 0 else val


# The bump's FFT line: its points, and its period in v = log x over log 2,
# the length of the bump's support.  2^16 points leave 1024 samples on the
# support and a Nyquist frequency of 4640, against floors at t <= 1010.
_LINE_FFT = 1 << 16
_LINE_PAD = 64

# zeta(8), the sum over j >= 1 of j^-8
_ZETA8 = math.pi ** 8 / 9450.0


def _bump_fft(psi: TestFunction, C: float) -> np.ndarray:
    """psi~(-C - i t_k), t_k = 2 pi k / L, k <= _LINE_FFT / 2, plus aliases:
    h times the real FFT of g(v) = psi(e^v) e^{-C v} at v = n h, with
    L = _LINE_PAD log 2 = _LINE_FFT h.  g is real, so the line has Schwarz
    reflection exactly."""
    h = _LINE_PAD * math.log(2.0) / _LINE_FFT
    v = np.arange(_LINE_FFT) * h
    g = np.zeros(_LINE_FFT)
    m = v < math.log(2.0)
    g[m] = psi(np.exp(v[m])) * np.exp(-C * v[m])
    return h * np.fft.rfft(g)


@lru_cache(maxsize=32)
def _bump_mellin_line(C: float):
    """(t, |psi~(-C-it)|, slope, a2) of the canonical bump on the FFT line of
    _bump_fft, for t >= 0 up to the last sample above the floor (1e-14 of
    the line's maximum, at least 1e-16), t_cut = t[-1]; read-only.

    By Poisson summation each sample is psi~(-C - i (t_k + 2 pi j / h))
    summed over all j.  For t_k <= t_cut the terms j >= 1 lie at
    |t| >= j 2 pi / h and the terms j <= -1 at |t| >= |j| (2 pi / h - t_cut),
    so with B the k = 8 bound of mellin_line_bound(-C) the aliasing is at
    most zeta(8) (B(2 pi / h) + B(2 pi / h - t_cut)): QuadratureFailure
    unless that is below a tenth of the floor.  Beyond t_cut |psi~| is
    taken, empirically, to decay like a2 exp(-slope (sqrt t - sqrt t_cut)),
    with slope measured between t_cut / 4 and t_cut.
    """
    psi = default_bump()
    L = _LINE_PAD * math.log(2.0)
    h = L / _LINE_FFT
    aF = np.abs(_bump_fft(psi, C))
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
    floor of psi~, and its empirical tail on te from tt[-1] to 400 tt[-1]:
    the measured stretched-exponential decay of psi~ (softened by 0.8) under
    the kernel envelope t^(2C+1) measured on the same line (5% margin)."""
    tt, aF, slope, a2 = _bump_mellin_line(C)
    gv = np.abs(g_pm(C + 1j * tt, T_f, sign))
    env = 1.05 * float(np.max(gv / (1.0 + tt) ** (2 * C + 1)))
    te = np.geomspace(tt[-1], 400.0 * tt[-1], 4001)
    ext = (env * (1.0 + te) ** (2 * C + 1)
           * a2 * np.exp(-0.8 * slope * (np.sqrt(te) - math.sqrt(tt[-1]))))
    return tt, gv * aF, te, ext


@lru_cache(maxsize=16)
def _psi_height_table(sigma: float, T_f: float, sign: int):
    """(t_grid, tail): tail[i] = integral from t_grid[i] to infinity of
    |G(sigma+it) psi~(-sigma-it)|, over the FFT line and its empirical
    extrapolation (_psi_line)."""
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
# the contour engine: the trapezoid rule in t and one FFT in u

def _half_line(kernel, L: float, K: int) -> np.ndarray:
    """kernel(t), rows k_j(c + it), at t_k = 2 pi k / L, k = 0..K, after a
    check that k_j(c - it) = conj k_j(c + it) on the first 32 nodes, to 1e-12
    of each row's largest value there."""
    t = (TWO_PI / L) * np.arange(K + 1)
    line = kernel(t)
    first = line[:, :32]
    dev = np.max(np.abs(kernel(-t[:32]) - np.conj(first)), axis=1)
    if np.any(dev > 1e-12 * np.max(np.abs(first), axis=1)):
        raise QuadratureFailure(
            "contour kernel fails Schwarz reflection; its integral is not "
            "twice the real part of the upper half")
    return line


def _trapezoid_grid(line: np.ndarray, L: float, P: int):
    """(win, deriv), read-only: S_j(u) = (dt / 2 pi) sum over |k| <= K of
    k_j(c + i t_k) e^(-iu t_k), dt = 2 pi / L, from the half line
    line[j, k], on the grid u_m = m L / N, N = _U_FFT, where it is real and
    of period L; and deriv_j = (dt / pi) sum_k |line[j, k]| t_k^P >= |S_j^(P)|,
    P the stencil length.  Each row is padded with P wrapped points at each
    end, and win[j, s], s = 0 .. N + P, is the contiguous window of its P
    values at u_m, m = s - P .. s - 1 (mod N): a view of shape
    (rows, N + P + 1, P)."""
    N, nodes = _U_FFT, line.shape[1]
    if nodes > N // 2:
        raise QuadratureFailure(f"{nodes} nodes exceed the {N}-point u-grid")
    dt = TWO_PI / L
    grid = np.fft.irfft(np.conj(line) * (N * dt / TWO_PI), n=N, axis=-1)
    padded = np.concatenate([grid[:, N - P:], grid, grid[:, :P]], axis=1)
    deriv = (dt / math.pi) * (np.abs(line) @ (dt * np.arange(nodes)) ** P)
    deriv.flags.writeable = False
    return sliding_window_view(padded, P, axis=-1, writeable=False), deriv


def _interpolate(win, deriv, L: float, base: float, c: float, xs: np.ndarray):
    """(values, interpolation error), each (rows, xs.size), of
    (base x)^(-c) S_j(u), u = log(base x), by the barycentric formula on the
    P grid points around u, one window of _trapezoid_grid, P its length; the
    error is the Lagrange remainder |omega(u)| deriv_j / P!, omega the
    product of the distances to them.  A lone argument is evaluated as a
    pair: numpy would sum its P stencil terms pairwise, and a batch's in
    order, so that every call size gives the batch value bit for bit."""
    if xs.size == 1:
        vals, err = _interpolate(win, deriv, L, base, c, np.repeat(xs, 2))
        return vals[:, :1], err[:, :1]
    P = win.shape[-1]
    N = win.shape[1] - P - 1
    h = L / N
    u = np.log(base * xs)
    p = np.mod(u, L) / h
    m0 = np.floor(p)
    # (u - u_i) / h at the stencil points u_i, i = m0 - P/2 + 1 .. m0 + P/2,
    # one row per point, each a contiguous vector over the arguments; the
    # window of the u_i starts at index m0 + P/2 + 1 of the padded row
    d = (p - m0) + (P // 2 - 1 - np.arange(P))[:, None]
    stencil = win[:, m0.astype(np.int64) + (P // 2 + 1)]
    on_grid = d[P // 2 - 1] == 0
    omega = h ** P * np.abs(np.prod(d, axis=0))
    w = np.array([(-1) ** i * math.comb(P - 1, i) for i in range(P)], float)
    with np.errstate(divide="ignore", invalid="ignore"):
        wd = np.divide(w[:, None], d, out=d)     # d is not read again
        vals = np.einsum("jnp,pn->jn", stencil, wd) / np.sum(wd, axis=0)
    vals[:, on_grid] = stencil[:, on_grid, P // 2 - 1]
    pref = np.exp(-c * u)
    return vals * pref, np.outer(deriv, omega * pref / math.factorial(P))


def _alias(ladder, c: float, L: float, u: np.ndarray, side: int) -> np.ndarray:
    """Bound on the aliases e^(c j L) |W(x e^(jL))| summed over j >= 1
    (side = 1) or j <= -1 (side = -1), u = log(base x), for a weight with
    |W(x)| <= B (base x)^(-C) at each (C, B) of ladder: the least over the C
    with (C - c) side > 0 of a geometric series of ratio e^(-|C - c| L)."""
    least = np.full(u.shape, np.inf)
    for C, B in ladder:
        if (g := side * (C - c) * L) > 0:
            log_b = math.log(B) - g - math.log(-math.expm1(-g))
            np.minimum(least, log_b - C * u, out=least)
    return np.exp(least)


def _check_stated(errors: dict, tol: float, what: str) -> None:
    if not (total := float(np.max(sum(errors.values())))) <= tol / 2:
        raise QuadratureFailure(f"{what}: stated error {total:.2e} > {tol / 2:.1e}")


def _psi_kernel_line(psi: TestFunction, sigma: float, T_f: float, K: int):
    """(line, alias): G_{+-}(sigma + i t_k) psi~(-sigma - i t_k), k = 0..K,
    rows (+, -), with G checked for Schwarz reflection; and per row the FFT
    aliasing of the psi~ samples carried into the sum,
    (dt / pi) sum_k |G| zeta(8) (B(2 pi / h) + B(2 pi / h - t_K))."""
    L = _LINE_PAD * math.log(2.0)
    bump = _bump_fft(psi, sigma)
    if K >= bump.size:
        raise QuadratureFailure("Psi height beyond the bump line's Nyquist frequency")
    G = _half_line(lambda t: np.stack([g_pm(sigma + 1j * t, T_f, sign)
                                       for sign in (+1, -1)]), L, K)
    h = L / _LINE_FFT
    bound = psi.mellin_line_bound(-sigma, 8)
    sample = _ZETA8 * (bound(TWO_PI / h) + bound(TWO_PI / h - K * TWO_PI / L))
    return G * bump[:K + 1], (2.0 / L) * sample * np.sum(np.abs(G), axis=1)


@lru_cache(maxsize=8)
def _psi_grid(psi: TestFunction, sigma: float, T_f: float, K: int):
    """((win, deriv), alias): the engine's u-grid of the Psi+- line to height
    index K (_trapezoid_grid), built once per form, abscissa and height, and
    the line's sample aliasing (_psi_kernel_line)."""
    line, sample_alias = _psi_kernel_line(psi, sigma, T_f, K)
    sample_alias.flags.writeable = False
    grid = _trapezoid_grid(line, _LINE_PAD * math.log(2.0), _STENCIL)
    return grid, sample_alias


def _psi_contour(xs: np.ndarray, psi: TestFunction, T_f: float, sigma: float):
    """(values, errors) of (Psi_plus, Psi_minus) at xs by the engine at
    Re s = sigma, each term of errors (aliasing, truncation, interpolation)
    of shape (2, xs.size), the height H as in the height tables."""
    pref = (math.pi ** 2 * xs) ** (-sigma)
    tails = [_psi_height_table(sigma, T_f, sign) for sign in (+1, -1)]
    H = 0.0
    for tg, tail in tails:
        ok = np.nonzero(float(pref.max()) * 2.0 * tail / TWO_PI < _PSI_TOL / 10)[0]
        if ok.size == 0:
            raise QuadratureFailure("Psi integrand tail does not reach tolerance")
        H = max(H, float(tg[int(ok.min())]))
    L = _LINE_PAD * math.log(2.0)
    grid, sample_alias = _psi_grid(psi, sigma, T_f, math.ceil(H * L / TWO_PI))
    vals, interp = _interpolate(*grid, L, math.pi ** 2, sigma, xs)
    u = np.log(math.pi ** 2 * xs)
    ladders = [psi_decay_ladder(T_f, sign) for sign in (+1, -1)]
    errors = {
        "aliasing": np.outer(sample_alias, pref) + np.array(
            [_alias(lad, sigma, L, u, 1) + _alias(lad, sigma, L, u, -1)
             for lad in ladders]),
        "truncation": np.outer([2.0 * tail[np.searchsorted(tg, H, "right") - 1]
                                / TWO_PI for tg, tail in tails], pref),
        "interpolation": interp}
    _check_stated(errors, _PSI_TOL, "Psi+- contour")
    return vals, errors


def v1_many(xs) -> np.ndarray:
    """V1 on an array of arguments by its closed form Q(1/4, pi x^2), the
    normalized upper incomplete gamma function."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("arguments must be positive and finite")
    return gammaincc(0.25, math.pi * xs * xs)


@lru_cache(maxsize=8)
def _v2_left_bound(T_f: float) -> float:
    """B with |V2(x) - 1| <= B (pi x)^(1/4), from Re s = -1/4: the contour
    crosses one pole, s = 0 with residue 1."""
    return _abs_line_integral(lambda s: np.abs(_v2_kernel(s, T_f)), -0.25)


@lru_cache(maxsize=8)
def _v2_grid(T_f: float, K: int):
    return _trapezoid_grid(_half_line(
        lambda t: _v2_kernel(_V2_C + 1j * t, T_f)[None], _V2_L, K),
        _V2_L, _V2_STENCIL)


def v2_many(xs, T_f: float) -> np.ndarray:
    """V2 on an array of arguments by the engine at Re s = _V2_C, to the
    height where the proven truncation bound at the smallest argument meets
    _V_TOL / 10; aliasing by v2_decay_ladder at x e^L and by
    |V2| <= 1 + B (pi x)^(1/4) (_v2_left_bound) at x e^(-L).  A value depends
    on (x, T_f) and that height, which is the same for every call whose
    smallest argument exceeds 1e-9."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("arguments must be positive and finite")
    if xs.size == 0:
        return np.zeros(xs.shape)
    flat = xs.ravel()
    x_min = float(flat.min())
    tail = _v2_tail_bound(x_min, T_f, _V2_C)
    H = _grow_height(tail, _V_TOL, h0=2 * abs(T_f) + 20.0)
    grid = _v2_grid(T_f, math.ceil(H * _V2_L / TWO_PI))
    vals, interp = _interpolate(*grid, _V2_L, math.pi, _V2_C, flat)
    u = np.log(math.pi * flat)
    alias = (_alias(v2_decay_ladder(T_f), _V2_C, _V2_L, u, 1)
             + _alias([(0.0, 1.0)], _V2_C, _V2_L, u, -1)
             + _alias([(-0.25, _v2_left_bound(T_f))], _V2_C, _V2_L, u, -1))
    _check_stated({"aliasing": alias,
                   "truncation": tail(H) * (x_min / flat) ** _V2_C,
                   "interpolation": interp[0]}, _V_TOL, "V2 contour")
    return vals[0].reshape(xs.shape)


def psi_pm_many(xs, psi: TestFunction, T_f: float,
                sigma: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(Psi_plus, Psi_minus) on an array of arguments, as real arrays: the
    two rows of one contour engine call at abscissa sigma (_psi_contour)."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0), np.zeros(0)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("arguments must be positive and finite")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    vals, _ = _psi_contour(xs, psi, T_f, sigma)
    return vals[0], vals[1]
