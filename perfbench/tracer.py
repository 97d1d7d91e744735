"""Span tracer that wraps syzlab's layer functions from outside the program.

``install`` replaces each target function with a wrapper that records a
span (name, start, end, parent, job id).  A function imported by name into
another module (``from .fields import compile_scalars``) is replaced in every
syzlab namespace that binds it, so calls through those names are traced too.
Methods are replaced on their class.  The evaluator that ``compile_scalars``
returns gets its own ``fields.eval`` span.  Per-term hot paths such as
``BigradedElement._add_term`` are deliberately not wrapped.

Spans stay in memory; ``dump`` writes them out when the pass ends, and
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# (module, qualified name, span name, hook); hook names a counter rule in
# Tracer._before, or the counter itself when there is no span
TARGETS = [
    ("scenarios", "validate_scenario", "scenarios.validate", None),
    ("scenarios", "run_scenario_doc", "scenarios.dispatch", None),
    ("fields", "parse_scalar", "fields.parse", None),
    ("fields", "compile_scalars", "fields.compile", "compile"),
    ("fields", "sup_norm_scalars", "fields.sup_norm", None),
    ("algebra", "decomposable_form", "algebra.construct", None),
    ("algebra", "exp_nilpotent", "algebra.construct", None),
    ("algebra", "BigradedElement.from_matrix", "algebra.construct", None),
    ("algebra", "FormElement.exterior_derivative", "algebra.derivative", None),
    ("algebra", "d_y", "algebra.derivative", None),
    ("algebra", "d_x", "algebra.derivative", None),
    ("algebra", "d_x_prime", "algebra.derivative", None),
    ("algebra", "bracket", "algebra.bracket", None),
    ("algebra", "BigradedElement.sup_norm", "algebra.sup_norm", "terms"),
    ("algebra", "FormElement.sup_norm", "algebra.sup_norm", "terms"),
    ("semiflat", "BetaStructure.__init__", "semiflat.beta", None),
    ("semiflat", "pointwise_checks", "semiflat.pointwise", None),
    ("semiflat", "require_compatible", "semiflat.compat", None),
    ("semiflat", "closedness_residuals", "semiflat.closedness", None),
    ("semiflat", "structure_equations", "semiflat.structure", None),
    ("semiflat", "flatness_probe", "semiflat.flatness", None),
    ("quadrature", "fibre_integral", "quadrature", None),
    ("quadrature", "subtorus_integral", "quadrature", None),
    ("quadrature", "cycle_line_integral", "quadrature", None),
    ("quadrature", "base_integral", "quadrature", None),
    ("quadrature", "chart_integral", "quadrature", None),
    ("quadrature", "integrate", "quadrature", None),
    ("duality", "mclean_metrics", "duality.mclean", None),
    ("duality", "dual_structure_check", "duality.dual_check", None),
    ("duality", "hitchin", "duality.hitchin", None),
    ("duality", "yukawa", "duality.yukawa", None),
    ("intlinalg", "smith_normal_form", "intlinalg.snf", "entries"),
    ("intlinalg", "mat_mul", "intlinalg.matmul", None),
    ("intlinalg", "kernel_basis", "intlinalg.kernel", None),
    ("intlinalg", "solve_int", "intlinalg.solve", None),
    ("intlinalg", "homology_groups", "intlinalg.homology", "maps"),
    ("complexes", "build_complex", "complexes.build", None),
    ("complexes", "circle_complex", "complexes.build", None),
    ("complexes", "torus_complex", "complexes.build", None),
    ("complexes", "product_complex", "complexes.build", None),
    ("complexes", "quotient_complex", "complexes.build", None),
    ("complexes", "point_complex", "complexes.build", None),
    ("complexes", "ChainComplex.validate", "complexes.validate", None),
    ("complexes", "ChainComplex.homology", "complexes.homology", "cells"),
    ("fibre_models", "build_model", "fibre_models.build", None),
    ("fibre_models", "integral_cohomology", "fibre_models.cohomology", None),
    ("sheaf", "LocalSystemOnSphere.__post_init__", "sheaf.construct", None),
    ("sheaf", "pushforward_cohomology", "sheaf.pushforward", "two_maps"),
    ("sheaf", "euler_characteristic", "sheaf.euler", None),
    ("k3", "validate_and_align", "k3.align", None),
    ("k3", "mirror_classes", "k3.mirror", None),
    ("k3", "double_mirror_check", "k3.double_mirror", None),
    ("k3", "GramLattice.dot", None, "k3.dot.calls"),   # counted, no span
]

# per-layer metric names; unit() gives each its unit
SELF_S = ["scenarios.validate", "fields.parse", "fields.compile", "fields.eval",
          "fields.sup_norm", "algebra.construct", "algebra.derivative",
          "algebra.bracket", "algebra.sup_norm", "semiflat.beta", "semiflat.pointwise",
          "semiflat.closedness", "semiflat.structure", "semiflat.flatness", "quadrature",
          "duality.mclean", "duality.dual_check", "duality.hitchin", "duality.yukawa",
          "intlinalg.snf", "intlinalg.matmul", "intlinalg.kernel", "intlinalg.solve",
          "intlinalg.homology", "complexes.build", "complexes.validate",
          "fibre_models.build", "fibre_models.cohomology", "sheaf.construct",
          "sheaf.pushforward", "sheaf.euler", "k3.align", "k3.mirror", "k3.double_mirror"]
CALLS = ["scenarios.validate", "fields.compile", "fields.eval", "quadrature",
         "intlinalg.snf", "intlinalg.matmul", "complexes.validate"]
COUNTS = ["fields.compile.exprs", "fields.compile.ops", "fields.eval.points",
          "algebra.sup_norm.terms", "intlinalg.snf.entries", "complexes.cells",
          "k3.dot.calls"]
RATIOS = ["semiflat.compat.calls", "quadrature.compiles_per_call", "intlinalg.snf_per_map"]
CLI = ["cli.interp_ms", "cli.import_ms", "cli.import.sympy_ms", "cli.import.numpy_ms",
       "cli.import.jsonschema_ms", "cli.command_ms"]
TRACE = ["trace.coverage", "trace.overhead"]
PER_LAYER = ([f"{n}.self_s" for n in SELF_S] + [f"{n}.calls" for n in CALLS]
             + COUNTS + RATIOS + CLI + TRACE)


def unit(metric):
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    return "ratio" if metric in RATIOS or metric in TRACE else "count"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, job id]
        self.stack = []
        self.counts = defaultdict(int)
        self.job = None
        self.compiled = []       # expression lists given to compile_scalars
        self.missing = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def in_span(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    # -- hooks run before the span opens, so their cost stays outside it ----
    def _before(self, hook, args):
        c = self.counts
        if hook == "compile":
            exprs = args[0]
            c["fields.compile.exprs"] += len(exprs)
            self.compiled.append(list(exprs))
            if self.in_span("quadrature"):
                c["quadrature.compiles"] += 1
        elif hook == "terms":
            c["algebra.sup_norm.terms"] += len(args[0].terms)
        elif hook == "entries":
            m = args[0]
            c["intlinalg.snf.entries"] += len(m) * (len(m[0]) if m else 0)
        elif hook == "maps":
            c["intlinalg.maps"] += sum(1 for b in args[0] if b)
        elif hook == "two_maps":
            c["intlinalg.maps"] += 2
        elif hook == "cells":
            c["complexes.cells"] += args[0].total_cells()

    def wrap(self, fn, name, hook):
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[hook] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook:
                self._before(hook, args)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook == "compile":
                out = self._wrap_evaluator(out, len(args[0]))
            return out
        return traced

    def _wrap_evaluator(self, evaluate, nexprs):
        def traced_eval(Y, X):
            self.counts["fields.eval.points"] += len(Y) * nexprs
            idx = self.open("fields.eval")
            try:
                return evaluate(Y, X)
            finally:
                self.close(idx)
        return traced_eval

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer):
    """Wrap every TARGETS entry; return the targets that no longer exist."""
    import syzlab

    for info in pkgutil.iter_modules(syzlab.__path__):
        importlib.import_module(f"syzlab.{info.name}")
    namespaces = [m for k, m in list(sys.modules.items())
                  if k == "syzlab" or k.startswith("syzlab.")]
    for modname, qualname, span, hook in TARGETS:
        mod = sys.modules[f"syzlab.{modname}"]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                tracer.missing.append(f"{modname}.{qualname}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, span, hook)))
            else:
                setattr(owner, attr, tracer.wrap(raw, span, hook))
            continue
        raw = getattr(mod, attr, None)
        if raw is None:
            tracer.missing.append(f"{modname}.{qualname}")
            continue
        wrapped = tracer.wrap(raw, span, hook)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is raw:
                    setattr(ns, key, wrapped)
    return tracer.missing


def count_ops(expr_lists):
    """sympy count_ops over every compiled expression, run after the pass."""
    import sympy as sp

    return sum(int(sp.count_ops(e)) for exprs in expr_lists for e in exprs)


def layer_metrics(spans, counts, wall, njobs, ops):
    """Per-layer self times, call counts, work counts and ratios of one pass.

    A span's self time is its duration minus the durations of its direct
    child spans.  ``calls`` counts spans whose parent has another name, so a
    recursive or nested call within one layer counts once.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        if parent < 0 or spans[parent][0] != name:
            calls[name] += 1
    out = {f"{n}.self_s": self_s[n] for n in SELF_S}
    out.update({f"{n}.calls": float(calls[n]) for n in CALLS})
    out.update({n: float(counts.get(n, 0)) for n in COUNTS})
    out["fields.compile.ops"] = float(ops)
    out["semiflat.compat.calls"] = calls["semiflat.compat"] / njobs
    out["quadrature.compiles_per_call"] = (
        counts.get("quadrature.compiles", 0) / calls["quadrature"] if calls["quadrature"] else 0.0)
    out["intlinalg.snf_per_map"] = (
        calls["intlinalg.snf"] / counts["intlinalg.maps"] if counts.get("intlinalg.maps") else 0.0)
    out["trace.span_self_s"] = sum(self_s.values())
    return out
