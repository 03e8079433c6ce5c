"""V1 and V2 as dense scalar contour integrals, with scipy's complex gamma.

The oracle for lmoment.weights.v1_many and v2_many.  It imports nothing from
lmoment: its gamma ratios come from scipy.special.gamma, not from the
loggamma kernel of the V2 engine, and its quadrature, heights and tail bounds
are its own.  On the line Re s = c > 0,

    V1(x) = (1/2 pi i) int Gamma((2s+1)/4) / Gamma(1/4) (sqrt(pi) x)^-s ds/s,
    V2(x) = (1/2 pi i) int Gamma((2s+1+2iT)/4) Gamma((2s+1-2iT)/4)
                           / |Gamma((1+2iT)/4)|^2 (pi x)^-s ds/s,

each truncated at a height H whose tail bound is below TOL/10, and summed by
composite Gauss-Legendre with panel doubling until two levels agree within
TOL/2 plus their rounding floor.
"""

import math

import numpy as np
from scipy.special import gamma

TOL = 1e-10
V2_C = 0.5

_ORDER = 24
_MAX_PANELS = 4096


class ContourFailure(RuntimeError):
    """The quadrature or the height search did not reach TOL."""


def _gamma_line_bound(sigma, y):
    # |Gamma(sigma + iy)| for |y| >= 2, 0 <= sigma <= 2.5, from Stirling's
    # formula with a safety factor of 2
    y = abs(y)
    return 2.0 * math.sqrt(2 * math.pi) * y ** (sigma - 0.5) * math.exp(
        -math.pi * y / 2 + 1.0 / (6 * y))


def _height(tail_bound, h0):
    H = h0
    while H <= 6000.0:
        if tail_bound(H) < TOL / 10:
            return H
        H *= 1.5
    raise ContourFailure("tail bound does not reach the tolerance")


def line_integral(fun, c, H):
    """(1/2 pi) int_{-H}^{H} fun(c + it) dt, by panel doubling from 8 panels."""
    x0, w0 = np.polynomial.legendre.leggauss(_ORDER)
    panels, prev = 8, None
    while panels <= _MAX_PANELS:
        edges = np.linspace(-H, H, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x0).ravel()
        wf = np.tile(half * w0, panels) * fun(c + 1j * t)
        val = np.sum(wf) / (2 * math.pi)
        floor = 4e-15 * float(np.sum(np.abs(wf))) / (2 * math.pi)
        if prev is not None and abs(val - prev) <= TOL / 2 + floor:
            return complex(val)
        prev, panels = val, 2 * panels
    raise ContourFailure(f"no convergence within {_MAX_PANELS} panels")


def _real(val):
    if abs(val.imag) > TOL:
        raise ContourFailure(f"imaginary residual {val.imag:.2e}")
    return val.real


def v1(x, c=1.0):
    """V1(x) on the line Re s = c > 0."""
    if c <= 0 or x <= 0:
        raise ValueError("V1 needs c > 0 and x > 0")
    base = math.sqrt(math.pi) * x
    sig = (2 * c + 1) / 4
    H = _height(lambda H: (base ** -c * _gamma_line_bound(sig, H / 2)
                           / (gamma(0.25) * H) * 2 / math.pi ** 2), 20.0)
    return _real(line_integral(
        lambda s: gamma((2 * s + 1) / 4) / gamma(0.25) * base ** -s / s, c, H))


def v2(x, T_f, c=V2_C):
    """V2(x) for the form of spectral parameter T_f on the line Re s = c > 0."""
    if c <= 0 or x <= 0:
        raise ValueError("V2 needs c > 0 and x > 0")
    a = 2j * T_f
    norm = abs(gamma((1 + a) / 4)) ** 2
    base = math.pi * x
    sig = (2 * c + 1) / 4

    def tail(H):
        if H <= 2 * abs(T_f) + 8:
            return math.inf
        return (base ** -c * _gamma_line_bound(sig, (H + abs(a)) / 2)
                * _gamma_line_bound(sig, (H - abs(a)) / 2) / (norm * H)
                / math.pi ** 2)
    H = _height(tail, 20.0)
    return _real(line_integral(
        lambda s: (gamma((2 * s + 1 + a) / 4) * gamma((2 * s + 1 - a) / 4)
                   / norm * base ** -s / s), c, H))
