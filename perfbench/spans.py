"""Spans around the public functions of each cf3 layer, for the traced run.

A span is taken where the caller looks the function up: the wrapper replaces
the module attribute that the calling module reads at call time, for
example ``cf3.frobenius.q3`` or ``cf3.sail.sign_at_root``.  Spans (name,
start, end, parent, op) are kept in memory and written out once the run
ends.  cf3 itself is not edited.

``intmat`` (IntMat arithmetic is finer-grained than a wrapper), ``parallel``,
``acceptance`` and ``cli`` are not traced: the workloads run serially and
bypass the front ends.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter


def _search_box_counts(counts, args, kwargs, result):
    exponents = args[1] if len(args) > 1 else kwargs["exponents"]
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    counts["solver.search_box_points"] += (2 * bound + 1) ** len(exponents[0])
    counts["solver.search_box_hits"] += result is not None


def _modular_counts(counts, args, kwargs, result):
    counts["solver.modular_certificates"] += result is not None


def _match_counts(counts, args, kwargs, result):
    counts["frobenius.match_no_fiber"] += result[0] == "no_fiber"


def _units_counts(counts, args, kwargs, result):
    counts["sail.units_certified"] += bool(result.certified)


def _sail_counts(counts, args, kwargs, result):
    counts["sail.faces"] += len(result.faces)


# (span name, defining module, function, modules whose attribute is wrapped,
#  count hook).  The first span names are the workloads' own operations.
POINTS = (
    ("op.decide_thm3", "frobenius", "decide_thm3", ("frobenius",), None),
    ("op.classify", "frobenius", "classify_fraction", ("frobenius",), None),
    ("op.invariant", "sail", "torus_invariant_for", ("sail",), None),
    ("census.enumerate", "census", "matrices_in_class", ("census",), None),
    ("commutant.basis", "commutant", "commutant_basis", ("forms", "frobenius", "sail"), None),
    ("zlinalg.solve_unique", "zlinalg", "solve_unique", ("commutant", "zlinalg"), None),
    ("zlinalg.coords_in_basis", "zlinalg", "coords_in_basis", ("commutant", "sail"), None),
    ("zlinalg.hnf_basis", "zlinalg", "hnf_basis", ("commutant", "frobenius", "zlinalg"), None),
    ("forms.q3", "forms", "q3", ("frobenius",), None),
    ("solver.search_box", "solver", "search_box", ("solver", "frobenius"), _search_box_counts),
    ("solver.modular", "solver", "modular_obstruction", ("solver",), _modular_counts),
    ("frobenius.match", "frobenius", "conjugate_commuting", ("frobenius",), _match_counts),
    ("frobenius.det_form", "frobenius", "det_form", ("frobenius", "sail"), None),
    ("roots.sign_at_root", "roots", "sign_at_root", ("sail",), None),
    ("roots.refine_interval", "roots", "refine_interval", ("sail",), None),
    ("roots.isolate", "roots", "isolate_real_roots", ("sail",), None),
    ("sail.eigen_cone", "sail", "eigen_cone", ("sail",), None),
    ("sail.units", "sail", "dirichlet_generators", ("sail",), _units_counts),
    ("sail.compute_sail", "sail", "compute_sail", ("sail",), _sail_counts),
    ("sail.orbits", "sail", "torus_invariants", ("sail",), None),
)

# Per-layer metrics: (name, unit, how).  "calls" counts spans, "s" sums
# outermost span durations, "self_s" sums self times, "count" reads a hook.
LAYER_METRICS = (
    ("census.enumerate_calls", "count", "calls", "census.enumerate"),
    ("census.enumerate_s", "s", "s", "census.enumerate"),
    ("commutant.basis_calls", "count", "calls", "commutant.basis"),
    ("commutant.basis_s", "s", "s", "commutant.basis"),
    ("zlinalg.solve_unique_calls", "count", "calls", "zlinalg.solve_unique"),
    ("zlinalg.solve_unique_s", "s", "s", "zlinalg.solve_unique"),
    ("zlinalg.coords_in_basis_s", "s", "s", "zlinalg.coords_in_basis"),
    ("zlinalg.hnf_basis_s", "s", "s", "zlinalg.hnf_basis"),
    ("forms.q3_calls", "count", "calls", "forms.q3"),
    ("forms.q3_self_s", "s", "self_s", "forms.q3"),
    ("solver.search_box_calls", "count", "calls", "solver.search_box"),
    ("solver.search_box_hits", "count", "count", "solver.search_box_hits"),
    ("solver.search_box_points", "count", "count", "solver.search_box_points"),
    ("solver.search_box_s", "s", "s", "solver.search_box"),
    ("solver.modular_calls", "count", "calls", "solver.modular"),
    ("solver.modular_certificates", "count", "count", "solver.modular_certificates"),
    ("solver.modular_s", "s", "s", "solver.modular"),
    ("frobenius.decide_thm3_self_s", "s", "self_s", "op.decide_thm3"),
    ("frobenius.match_calls", "count", "calls", "frobenius.match"),
    ("frobenius.match_no_fiber", "count", "count", "frobenius.match_no_fiber"),
    ("frobenius.match_s", "s", "s", "frobenius.match"),
    ("frobenius.match_self_s", "s", "self_s", "frobenius.match"),
    ("frobenius.det_form_s", "s", "s", "frobenius.det_form"),
    ("roots.sign_at_root_calls", "count", "calls", "roots.sign_at_root"),
    ("roots.sign_at_root_s", "s", "s", "roots.sign_at_root"),
    ("roots.refine_interval_s", "s", "s", "roots.refine_interval"),
    ("roots.isolate_s", "s", "s", "roots.isolate"),
    ("sail.eigen_cone_s", "s", "s", "sail.eigen_cone"),
    ("sail.units_calls", "count", "calls", "sail.units"),
    ("sail.units_s", "s", "s", "sail.units"),
    ("sail.units_self_s", "s", "self_s", "sail.units"),
    ("sail.units_certified", "count", "count", "sail.units_certified"),
    ("sail.compute_sail_calls", "count", "calls", "sail.compute_sail"),
    ("sail.compute_sail_s", "s", "s", "sail.compute_sail"),
    ("sail.faces", "count", "count", "sail.faces"),
    ("sail.orbits_s", "s", "s", "sail.orbits"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op index]
        self.stack = []
        self.counts = Counter()
        self.op = -1

    def wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, mods):
        for name, home, attr, callers, hook in POINTS:
            original = getattr(mods[home], attr)
            for caller in callers:
                current = getattr(mods[caller], attr)
                if current is not original and getattr(current, "__wrapped__", None) is not original:
                    raise RuntimeError("cf3.%s.%s is not cf3.%s.%s" % (caller, attr, home, attr))
                setattr(mods[caller], attr, self.wrap(name, current, hook))

    def summary(self):
        """(calls, outermost busy seconds, self seconds) per span name."""
        calls, busy, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                busy[name] += end - start
        return calls, busy, self_s

    def layer_metrics(self):
        calls, busy, self_s = self.summary()
        table = {"calls": calls, "s": busy, "self_s": self_s, "count": self.counts}
        return {metric: {"value": table[how].get(key, 0), "unit": unit}
                for metric, unit, how, key in LAYER_METRICS}

    def write(self, path, origin):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,op,name,parent,start_us,end_us\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write("%d,%d,%s,%d,%.1f,%.1f\n" % (
                    idx, op, name, parent, (start - origin) * 1e6, (end - origin) * 1e6))
