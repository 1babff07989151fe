"""The four workloads: what one run decides, and how its answers are checked.

Every workload decides serially (workers=1), in one fresh process, and each
input at most once per process, because ``solver._residues_mod`` is an
lru_cache and ``solver._GRID_CACHE`` fills on first use.  A run is a list of
rounds of the same make-up; how many rounds it holds follows from
``--seconds`` and the round's nominal cost on the reference machine (see
README.md), so every run of a workload attempts the same number of
operations and counts its certified answers over the same kind of inputs.
"""

from __future__ import annotations

import math
import random

import checks
import inputs

# A companion matrix of norm 17 with irreducible chi: outside every workload.
WARM_DECIDE = inputs.frobenius_matrix((5, -3, 7))
# A norm-7 conjugate of M(-1,2,1), outside classify (norms 5, 6): it takes
# the whole matching path.  M(1,4,1) is hyperbolic and outside sail.
WARM_CLASSIFY = ((-1, -1, 0), (0, -1, 1), (1, 1, 1))
WARM_SAIL = inputs.frobenius_matrix((1, 4, 1))

CLASSES = ("golden_ratio", "M_-1_3_1", "M_0_3_1")
REFERENCE_DISCRIMINANTS = {label: checks.discriminant(inputs.frobenius_matrix(inputs.REFERENCES[label]))
                           for label in CLASSES}


def _rounds_for(seconds, nominal_round_s, available):
    return max(1, min(available, math.ceil(seconds / nominal_round_s)))


def _fill_grids(mods, boxes, arities):
    """search_box on the zero form builds every lazy numpy grid up front."""
    solver = mods["solver"]
    for arity in arities:
        exponents = solver.BINARY_CUBIC_EXPONENTS if arity == 2 else solver.TERNARY_CUBIC_EXPONENTS
        for box in boxes:
            solver.search_box((0,) * len(exponents), exponents, box)


def _certificate(sol):
    cert = sol.certificate
    if cert is None:
        return None
    return {"kind": cert.kind, "modulus": cert.modulus,
            "residues": list(cert.residues), "detail": cert.detail}


class _Decide:
    """Shared by sweep and hunt: one decide_thm3 per matrix."""

    uses_forms = True

    def warm_up(self, mods):
        mods["frobenius"].decide_thm3(mods["cf3"].IntMat(WARM_DECIDE))
        _fill_grids(mods, mods["frobenius"].BOX_LADDER, (2, 3))

    def decide(self, mods, recorder, m):
        verdict = mods["frobenius"].decide_thm3(mods["cf3"].IntMat(m))
        pf = recorder.take()
        sol = verdict.solvability
        return {
            "matrix": m, "status": verdict.status,
            "witness": tuple(sol.witness) if sol.witness is not None else None,
            "certificate": _certificate(sol),
            "binary": tuple(pf.mn_primitive), "ternary": tuple(pf.xyz_primitive),
            "cubic_mn": pf.cubic_mn.as_tuple(), "cubic_xyz": tuple(pf.cubic_xyz.coeffs),
        }

    @staticmethod
    def certified(rec):
        return rec["status"] in ("frobenius", "non_frobenius")

    @staticmethod
    def outcome(rec):
        return rec["status"]

    @staticmethod
    def digest_line(rec):
        cert = rec["certificate"]
        return "%s %s %s %s" % (inputs.fmt(rec["matrix"]), rec["status"], rec["witness"],
                                 (cert["modulus"], cert["detail"]) if cert else None)

    @staticmethod
    def check_answer(rec):
        errs = checks.check_input(rec["matrix"])
        if rec["status"] == "frobenius":
            errs += checks.check_witness(rec["binary"], rec["ternary"], rec["witness"])
        elif rec["status"] == "non_frobenius":
            errs += checks.check_refutation(rec["certificate"], rec["binary"], rec["ternary"],
                                            rec["cubic_mn"], rec["cubic_xyz"])
        return errs


class Sweep(_Decide):
    """Every irreducible 3x3 matrix of norm <= 6 (paper claim 3)."""

    name = "sweep"
    ROUND = 96
    NOMINAL_ROUND_S = 0.24      # 96 decisions at about 2.5 ms

    def plan(self, seed, seconds):
        order = list(range(sum(checks.CENSUS_COUNTS.values())))
        random.Random("sweep:%d" % seed).shuffle(order)
        rounds = _rounds_for(seconds, self.NOMINAL_ROUND_S, len(order) // self.ROUND)
        return [order[r * self.ROUND:(r + 1) * self.ROUND] for r in range(rounds)]

    def start(self, mods):
        census = mods["census"]
        by_norm = {n: census.matrices_in_class(3, n, ("M", "H")) for n in checks.CENSUS_COUNTS}
        return {"by_norm": by_norm, "all": [m for n in sorted(by_norm) for m in by_norm[n]]}

    def run(self, mods, recorder, ctx, item):
        return self.decide(mods, recorder, ctx["all"][item].rows)

    def check_run(self, records, ctx):
        errs = _check_enumeration(ctx["by_norm"], hyperbolic=False)
        errs += checks.check_census({n: len(ms) for n, ms in ctx["by_norm"].items()})
        errs += ["norm <= 6 matrix %s refuted; paper claim 3 says all are Frobenius type"
                 % (rec["matrix"],) for rec in records if rec["status"] == "non_frobenius"]
        return errs


class Hunt(_Decide):
    """Seeded matrices of norms 7..14 drawn by path stratum, plus the
    paper's norm-42 counterexample as the first operation."""

    name = "hunt"
    RECIPE = {"open3": 1, "w12": 60, "refuted": 2, "open2": 1}
    NOMINAL_ROUND_S = 10.0

    def plan(self, seed, seconds):
        pool = [e for e in inputs.load_pool()["hunt"] if e["tag"] in self.RECIPE]
        rounds = inputs.stratified_rounds(random.Random("hunt:%d" % seed), pool,
                                          self.RECIPE, _rounds_for(seconds, self.NOMINAL_ROUND_S, 8),
                                          key=lambda e: e["tag"])
        plan = [[inputs.parse(e["matrix"]) for e in batch] for batch in rounds]
        plan[0].insert(0, inputs.COUNTEREXAMPLE)
        return plan

    def start(self, mods):
        return {}

    def run(self, mods, recorder, ctx, item):
        return self.decide(mods, recorder, item)

    def check_run(self, records, ctx):
        first = records[0] if records else None
        if first is None or first["matrix"] != inputs.COUNTEREXAMPLE:
            return ["the norm-42 counterexample was not decided"]
        if first["status"] != "non_frobenius":
            return ["norm-42 matrix came back %s, paper says non_frobenius" % first["status"]]
        return checks.check_counterexample(first["certificate"])


class Classify:
    """All 960 hyperbolic matrices of norms 5 and 6 (paper claim 2)."""

    name = "classify"
    uses_forms = False
    NORMS = (5, 6)
    ROUND = 96
    NOMINAL_ROUND_S = 0.9

    def plan(self, seed, seconds):
        total = sum(sum(checks.CLASSIFY_COUNTS[n].values()) for n in self.NORMS)
        order = list(range(total))
        random.Random("classify:%d" % seed).shuffle(order)
        rounds = _rounds_for(seconds, self.NOMINAL_ROUND_S, total // self.ROUND)
        return [order[r * self.ROUND:(r + 1) * self.ROUND] for r in range(rounds)]

    def warm_up(self, mods):
        mods["frobenius"].classify_fraction(mods["cf3"].IntMat(WARM_CLASSIFY))
        _fill_grids(mods, mods["frobenius"].CLASSIFY_DET_BOXES, (3,))

    def start(self, mods):
        census = mods["census"]
        by_norm = {n: census.matrices_in_class(3, n, ("H",)) for n in self.NORMS}
        return {"by_norm": by_norm,
                "all": [(n, m) for n in self.NORMS for m in by_norm[n]]}

    def run(self, mods, recorder, ctx, item):
        norm, m = ctx["all"][item]
        return {"matrix": m.rows, "norm": norm,
                "label": mods["frobenius"].classify_fraction(m)}

    @staticmethod
    def certified(rec):
        return rec["label"] != "unresolved"

    @staticmethod
    def outcome(rec):
        return rec["label"]

    @staticmethod
    def digest_line(rec):
        return "%s %s" % (inputs.fmt(rec["matrix"]), rec["label"])

    @staticmethod
    def check_answer(rec):
        return (checks.check_input(rec["matrix"], hyperbolic=True)
                + checks.check_label(rec["matrix"], rec["label"], REFERENCE_DISCRIMINANTS))

    def check_run(self, records, ctx):
        errs = _check_enumeration(ctx["by_norm"], hyperbolic=True)
        if len(records) == len(ctx["all"]):
            counts = {n: {} for n in self.NORMS}
            for rec in records:
                counts[rec["norm"]][rec["label"]] = counts[rec["norm"]].get(rec["label"], 0) + 1
            errs += checks.check_classification(counts)
        return errs


class Sail:
    """Seeded SL(3,Z) conjugates of the three reference matrices through
    torus_invariant_for, drawn by (reference, unit-group flag) stratum."""

    name = "sail"
    uses_forms = False
    RECIPE = {(ref, tag): n for ref in CLASSES
              for tag, n in (("certified", 3), ("uncertified", 1))}
    NOMINAL_ROUND_S = 3.4

    def plan(self, seed, seconds):
        pool = inputs.load_pool()["sail"]
        rounds = inputs.stratified_rounds(random.Random("sail:%d" % seed), pool, self.RECIPE,
                                          _rounds_for(seconds, self.NOMINAL_ROUND_S, 20),
                                          key=lambda e: (e["ref"], e["tag"]))
        return [[(e["ref"], inputs.parse(e["matrix"]), inputs.parse(e["p"]),
                  inputs.parse(e["p_inv"])) for e in batch] for batch in rounds]

    def warm_up(self, mods):
        mods["sail"].torus_invariant_for(mods["cf3"].IntMat(WARM_SAIL))

    def start(self, mods):
        return {}

    def run(self, mods, recorder, ctx, item):
        ref, m, p, p_inv = item
        inv = mods["sail"].torus_invariant_for(mods["cf3"].IntMat(m))
        return {"ref": ref, "matrix": m, "p": p, "p_inv": p_inv, "key": inv.key(),
                "group_certified": bool(inv.group_certified)}

    @staticmethod
    def certified(rec):
        return rec["group_certified"]

    @staticmethod
    def outcome(rec):
        return "%s/%s" % (rec["ref"], "certified" if rec["group_certified"] else "uncertified")

    @staticmethod
    def digest_line(rec):
        return "%s %s %s" % (inputs.fmt(rec["matrix"]), rec["key"], rec["group_certified"])

    @staticmethod
    def check_answer(rec):
        ref = inputs.frobenius_matrix(inputs.REFERENCES[rec["ref"]])
        return (checks.check_conjugate(ref, rec["p"], rec["p_inv"], rec["matrix"])
                + checks.check_input(rec["matrix"], hyperbolic=True)
                + checks.check_invariant(rec["ref"], rec["key"]))

    def check_run(self, records, ctx):
        return []


def _check_enumeration(by_norm, hyperbolic):
    errs = []
    seen = set()
    for n, mats in by_norm.items():
        for m in mats:
            rows = m.rows
            if sum(abs(v) for row in rows for v in row) != n:
                errs.append("matrix %s enumerated at norm %d" % (rows, n))
            if rows in seen:
                errs.append("matrix %s enumerated twice" % (rows,))
            seen.add(rows)
            errs += checks.check_input(rows, hyperbolic=hyperbolic)
    return errs


WORKLOADS = {w.name: w for w in (Sweep(), Hunt(), Sail(), Classify())}
