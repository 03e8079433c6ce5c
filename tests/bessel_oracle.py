"""Psi+- of the canonical bump from their Bessel integrals, with mpmath.

The oracle for lmoment.weights.psi_pm_many.  It takes the bump from its
formula and imports nothing from lmoment, so it shares no code with the
contour engine it checks.  With K and J of imaginary order 2iT (DLMF 10.32),

    Psi+(x) = 4 x cosh(pi T) int_1^2 psi(y) K_{2iT}(4 pi sqrt(x y)) dy,
    Psi-(x) = -(2 pi x / sinh(pi T)) int_1^2 psi(y) Im J_{2iT}(4 pi sqrt(x y)) dy,

the latter since J_{-2iT}(z) = conj J_{2iT}(z) for real z > 0.  The y
integral is one Gauss-Legendre rule on [1, 2] with 96 nodes for x <= 50
and 384 beyond, where the Bessel functions oscillate faster.  Doubling the
nodes moved no value at x = 0.8..50 by more than 1.8e-14, nor at x = 300
by more than 9.2e-15 or at x = 16326.5 by more than 1.5e-12.  The Bessel
values are taken at 30 digits.
"""

import math

import mpmath
import numpy as np


def _bump(y: float) -> float:
    """The canonical bump exp(4 - 1/(u(1-u))), u = y - 1, inside (1, 2)."""
    u = y - 1.0
    return math.exp(4.0 - 1.0 / (u * (1.0 - u)))


def psi_bessel(x: float, T_f: float, sign: int) -> float:
    """Psi_{+-}(x) of the canonical bump; sign=+1 selects the plus kernel."""
    t, w = np.polynomial.legendre.leggauss(96 if x <= 50 else 384)
    with mpmath.workdps(30):
        order = mpmath.mpc(0, 2 * T_f)
        total = mpmath.mpf(0)
        for y, wy in zip(1.5 + 0.5 * t, 0.5 * w):
            z = 4 * mpmath.pi * mpmath.sqrt(mpmath.mpf(x) * mpmath.mpf(y))
            if sign > 0:
                b = mpmath.re(mpmath.besselk(order, z))
            else:
                b = mpmath.im(mpmath.besselj(order, z))
            total += mpmath.mpf(wy) * _bump(float(y)) * b
        if sign > 0:
            scale = 4 * mpmath.mpf(x) * mpmath.cosh(mpmath.pi * T_f)
        else:
            scale = -2 * mpmath.pi * mpmath.mpf(x) / mpmath.sinh(mpmath.pi * T_f)
        return float(scale * total)
