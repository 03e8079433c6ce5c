"""The Mellin transform of the canonical bump by a Gauss-Legendre node rule.

The oracle for the FFT line of the bump in lmoment.weights (_bump_fft and
_bump_mellin_line).  It takes the bump from its formula and imports nothing
from lmoment.  With composite 16-point Gauss-Legendre on equal panels of
[1, 2], psi~(s) = int psi(x) x^(s-1) dx ~ sum_m b_m x_m^(s-1), where
b_m = weight_m psi(x_m); mellin_rule doubles the panel count until two
levels agree at the worst-case frequency.
"""

import numpy as np


class RuleFailure(RuntimeError):
    """The node rule did not validate within 4096 panels."""


def bump_rule(panels):
    """(log x_m, b_m) of the composite rule on `panels` panels of [1, 2]."""
    x0, w0 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(1.0, 2.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    x = (mid[:, None] + half * x0[None, :]).ravel()
    u = x - 1.0
    psi = np.exp(4.0 - 1.0 / (u * (1.0 - u)))
    return np.log(x), np.tile(half * w0, panels) * psi


def mellin_dense(rule, s):
    """psi~(s) on a 1-d array by a node rule, one exponential per node and s."""
    lx, base = rule
    s = np.asarray(s, dtype=complex)
    out = np.empty(s.shape, dtype=complex)
    for i0 in range(0, s.size, 4096):
        blk = s[i0:i0 + 4096]
        out[i0:i0 + 4096] = np.exp(lx[None, :] * (blk[:, None] - 1)) @ base
    return out


def mellin_rule(tmax, tol):
    """The node rule for |Im s| <= tmax, validated by panel doubling to tol
    at Re s = 1 and -1 and Im s = -tmax, and at -0.7i tmax."""
    panels = max(4, int(0.12 * tmax / 4) + 2)
    probe = np.array([1.0 - 1j * tmax, -1.0 - 1j * tmax, -1j * tmax * 0.7])
    while panels <= 4096:
        rule, rule2 = bump_rule(panels), bump_rule(2 * panels)
        if np.max(np.abs(mellin_dense(rule, probe)
                         - mellin_dense(rule2, probe))) <= tol:
            return rule2
        panels *= 2
    raise RuleFailure("Mellin node rule did not validate")
