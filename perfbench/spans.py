"""Per-layer spans for the lmoment benchmark, recorded from outside the program.

lmoment's modules import each other's functions by name
(``from .weights import v2_many``), so a layer is traced by replacing the
function at every module attribute that holds it: ``lmoment.weights.v2_many``,
``lmoment.moment.v2_many``, ``lmoment.lvalues.v2_many`` and so on. Each
wrapper records its span's duration, subtracts the time of the traced spans
it caused (self time), and adds a work count where one exists. Spans are
summed in memory per (phase, layer) and read once when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _n_args(xs, *_args, **_kw) -> int:
    return len(xs)


def _upto(_f, N, *_args, **_kw) -> int:
    return int(N)


# layer name -> (defining module, function names, work count or None)
LAYERS = {
    "hecke.load_hecke_data": ("lmoment.hecke", ("load_hecke_data",), None),
    "hecke.l_one": ("lmoment.hecke", ("l_one",), None),
    "hecke.coefficients_upto": ("lmoment.hecke", ("coefficients_upto",), _upto),
    "weights.v1_many": ("lmoment.weights", ("v1_many",), _n_args),
    "weights.v2_many": ("lmoment.weights", ("v2_many",), _n_args),
    "weights.psi_pm_many": ("lmoment.weights", ("psi_pm_many",), _n_args),
    "weights.psi_decay_ladder": ("lmoment.weights", ("psi_decay_ladder",), None),
    "weights.v2_decay_ladder": ("lmoment.weights", ("v2_decay_ladder",), None),
    "characters.build_modulus": ("lmoment.characters", ("build_modulus",), None),
    "expsums.gauss_sums_all": ("lmoment.expsums", ("gauss_sums_all",), None),
    "lvalues.afe_err": ("lmoment.lvalues",
                        ("afe1_err_estimate", "afe2_err_estimate"), None),
    "moment.twisted_moment": ("lmoment.moment", ("twisted_moment",), None),
    "voronoi.voronoi_lhs": ("lmoment.voronoi", ("voronoi_lhs",), None),
    "voronoi.rhs_truncation_default": ("lmoment.voronoi",
                                       ("rhs_truncation_default",), None),
    "voronoi.voronoi_rhs": ("lmoment.voronoi", ("voronoi_rhs",), None),
}


class Tracer:
    """Self time and work count per (phase, layer)."""

    def __init__(self):
        self.phase = "setup"
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self._child_s = []          # open spans: time spent in their children

    def _wrap(self, layer, fn, count):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                key = (self.phase, layer)
                self.self_s[key] += dt - self._child_s.pop()
                if count is not None:
                    self.work[key] += count(*args, **kwargs)
                if self._child_s:
                    self._child_s[-1] += dt
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self):
        """Wrap every layer at each lmoment module attribute that holds it.

        A layer whose function no longer exists is skipped and reads 0.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lmoment" or name.startswith("lmoment.")]
        for layer, (home, names, count) in LAYERS.items():
            for name in names:
                fn = getattr(sys.modules.get(home), name, None)
                if fn is None:
                    continue
                traced = self._wrap(layer, fn, count)
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        setattr(mod, name, traced)

    def seconds(self, phase, layer) -> float:
        return self.self_s[(phase, layer)]

    def count(self, phase, layer) -> int:
        return self.work[(phase, layer)]
