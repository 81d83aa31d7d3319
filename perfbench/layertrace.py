"""Layer tracing from outside the program.

The tracer wraps public koszulkit functions and methods after the package is
imported, without changing any program file.  A module-level function is
replaced at every name that binds it, because ``echelonize``,
``build_graded_algebra``, ``koszul_homology`` and friends are imported by
name into other modules and the caller resolves the name in its own
namespace.  Methods are replaced on their class.

Timed wrappers record a span (name, start, end, parent span, pass id) in
memory; count-only wrappers just count, because timing every call of the
hottest functions (``GradedAlgebra.multiply`` runs millions of times per
pass) would roughly double the pass.  Spans are written out after the run.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from functools import wraps
from typing import Dict, List

# (span name, module, attribute): attribute is "func" or "Class.method".
TIMED = [
    ("linalg.rref", "linalg", "rref"),
    ("backend.rref_mod", "backend", "rref_mod"),
    ("frobenius.init", "frobenius", "FrobeniusStructure.__init__"),
    ("frobenius.nakayama_on_elem", "frobenius", "FrobeniusStructure.nakayama_on_elem"),
    ("frobenius.degree2", "frobenius", "Degree2Comparison.__init__"),
    ("verify.type_char", "verify", "verify_type_char"),
    ("verify.hochschild2", "verify", "hochschild2_checks"),
    ("duality.verify_duality", "duality", "verify_duality"),
    ("koszul.cup", "koszul", "KoszulCalculus.cup"),
    ("koszul.cap", "koszul", "KoszulCalculus.cap"),
    ("algebra.build", "algebra", "build_graded_algebra"),
    ("koszul.init", "koszul", "KoszulCalculus.__init__"),
    ("homology.koszul_homology", "homology", "koszul_homology"),
    ("homology.higher_calculus", "homology", "higher_calculus"),
    ("homology.bimodule", "homology", "BimoduleHomology.__init__"),
    ("duality.ae_route", "duality", "ae_coefficient_route"),
    ("report.run", "report", "run"),
    ("report.render", "report", "render"),
]

# (metric name, module, attribute) of calls that are only counted
COUNTED = [
    ("linalg.span_solver.calls", "linalg", "SpanSolver.__init__"),
    ("duality.theta.calls", "duality", "theta"),
    ("algebra.multiply.calls", "algebra", "GradedAlgebra.multiply"),
    ("homology.class_of.calls", "homology", "CalculusSpaces.class_of"),
    ("verify.checks", "verify", "CheckLog.record"),
]

REPORT_PHASES = ("build", "calculus", "products", "higher")

#: every per-layer metric the traced run reports, with its unit
PER_LAYER = [
    ("linalg.rref.calls", "count"),
    ("linalg.rref.s", "s"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "cells"),
    ("linalg.rref.nnz", "count"),
    ("linalg.rref.max_cells", "cells"),
    ("linalg.rref.rank_ratio", "ratio"),
    ("linalg.span_solver.calls", "count"),
    ("backend.rref_mod.calls", "count"),
    ("backend.rref_mod.s", "s"),
    ("backend.rref_mod.cells", "cells"),
    ("frobenius.init.s", "s"),
    ("frobenius.nakayama_on_elem.calls", "count"),
    ("frobenius.nakayama_on_elem.s", "s"),
    ("frobenius.degree2.s", "s"),
    ("verify.type_char.s", "s"),
    ("verify.hochschild2.s", "s"),
    ("verify.checks", "count"),
    ("duality.verify_duality.s", "s"),
    ("duality.theta.calls", "count"),
    ("algebra.multiply.calls", "count"),
    ("koszul.cup.calls", "count"),
    ("koszul.cup.s", "s"),
    ("koszul.cap.calls", "count"),
    ("koszul.cap.s", "s"),
    ("homology.class_of.calls", "count"),
    ("algebra.build.calls", "count"),
    ("algebra.build.s", "s"),
    ("koszul.init.s", "s"),
    ("homology.koszul_homology.s", "s"),
    ("homology.higher_calculus.s", "s"),
    ("homology.bimodule.s", "s"),
    ("duality.ae_route.s", "s"),
    ("report.run.s", "s"),
    ("report.render.s", "s"),
] + [(f"report.phase.{p}_s", "s") for p in REPORT_PHASES] + [
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans and counters for one traced pass (set-up included)."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        # span: [id, parent id or -1, pass id, name, start, end]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.sums: Dict[str, float] = defaultdict(float)

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.pass_id, name, 0.0, 0.0]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call counters ------------------------------------------------------

    def _rref_before(self, args, kwargs):
        rows, ambient = args[0], args[1]
        cells = len(rows) * ambient
        s = self.sums
        s["linalg.rref.rows"] += len(rows)
        s["linalg.rref.cells"] += cells
        s["linalg.rref.nnz"] += sum(map(len, rows))
        if cells > s["linalg.rref.max_cells"]:
            s["linalg.rref.max_cells"] = cells

    def _rref_after(self, args, kwargs, result):
        self.sums["linalg.rref.pivots"] += len(result[1])

    def _rref_mod_before(self, args, kwargs):
        self.sums["backend.rref_mod.cells"] += len(args[0]) * args[1]

    def _report_after(self, args, kwargs, result):
        for phase in REPORT_PHASES:
            self.sums[f"report.phase.{phase}_s"] += result.get("timings", {}).get(phase, 0.0)

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "koszulkit") -> None:
        """Wrap every traced name in the freshly imported package."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package or k.startswith(package + "."))]
        hooks = {
            "linalg.rref": (self._rref_before, self._rref_after),
            "backend.rref_mod": (self._rref_mod_before, None),
            "report.run": (None, self._report_after),
        }
        for name, mod, attr in TIMED:
            before, after = hooks.get(name, (None, None))
            self._replace(package, mod, attr, modules,
                          lambda fn, n=name, b=before, a=after: self.timed(n, fn, b, a))
        for name, mod, attr in COUNTED:
            self._replace(package, mod, attr, modules,
                          lambda fn, n=name: self.counted(n, fn))

    @staticmethod
    def _replace(package, mod, attr, modules, make) -> None:
        module = sys.modules[f"{package}.{mod}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    # -- results ------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, float]:
        """Calls, inclusive and self time per span name, plus the counters.

        Inclusive time counts only the outermost span of a name, so a
        re-entrant call is not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        child_time = defaultdict(float)
        for _sid, parent, _p, _name, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for sid, parent, _p, name, t0, t1 in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child_time[sid]
            if not self._nested_in_same(sid, name):
                out[f"{name}.s"] += t1 - t0
        for name, n in self.counts.items():
            out[name] += n
        out.update(self.sums)
        rows = self.sums.get("linalg.rref.rows", 0)
        out["linalg.rref.rank_ratio"] = (self.sums.get("linalg.rref.pivots", 0) / rows
                                         if rows else 0.0)
        return out

    def _nested_in_same(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][1]
        while parent >= 0:
            if self.spans[parent][3] == name:
                return True
            parent = self.spans[parent][1]
        return False


def median_layers(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over traced passes of every per-layer metric (missing = 0)."""
    return {name: statistics.median(p.get(name, 0.0) for p in passes)
            for name, _unit in PER_LAYER if name != "trace.overhead_s"}
