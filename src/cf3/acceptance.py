"""Runnable acceptance suite: one checked claim per headline result.

Each claim function re-derives a documented fact from scratch and returns
(ok, undecided, detail).  ``run_claims`` executes the list in order and
``format_report`` renders one stable line per claim; the ``repro`` CLI
subcommand and tests/test_acceptance.py are thin wrappers around these.

Claims never read caches or fixtures: census counts come from fresh
enumeration, verdicts from the solvers, invariants from the sail pipeline.
A claim can come back *undecided* instead of failed when its search caps
were deliberately lowered (see solver.Caps); that maps to exit code 3.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .census import (REDUCIBLE, HYPERBOLIC, M_ONLY, census, classify_matrix,
                     matrices_in_class, matrix_from_flat)
from .commutant import basis_from_pair, commutant_basis, commutant_lattice, power_basis_index
from .forms import q3
from .frobenius import (REFERENCE_PARAMS, _sample_norm_flat, classification_report,
                        decide_thm2, decide_thm3, oracle_2x2, theorem1_sweep)
from .intmat import IntMat, matrix_norm, parse_matrix
from .sail import torus_invariant_for
from .solver import BINARY_CUBIC_EXPONENTS, Caps, modular_obstruction
from .zlinalg import inverse_unimodular

SEED = "cf3-acceptance"

# the smallest known matrix outside Frobenius type, with its product form
COUNTEREXAMPLE_TEXT = "1,2,0;0,1,2;-7,0,29"
COUNTEREXAMPLE_BINARY = (2, -28, 0, 7)
COUNTEREXAMPLE_TERNARY = (4, -14, 49, 56, 0, 784, 392, -196, 0, 42)
COUNTEREXAMPLE_COEFFS = (Fraction(1, 2), Fraction(-15), Fraction(29, 2))

# (irreducible, hyperbolic) counts per norm for 3x3 matrices
CENSUS_EXPECTED = {1: (0, 0), 2: (0, 0), 3: (0, 0),
                   4: (240, 0), 5: (1248, 48), 6: (8112, 912)}

# classification of the hyperbolic matrices at norms 5 and 6
NORM5_GOLDEN = 48
NORM6_EXPECTED = {"golden_ratio": 480, "M_-1_3_1": 192, "M_0_3_1": 240,
                  "other": 0, "unresolved": 0}

# 2x2 outcomes at norm <= 6, frozen from the exhaustive reduction-cycle run
NON_FROBENIUS_2X2 = 28

SL3_SAMPLE = 20
COMMUTANT_SAMPLE = 200


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    ok: bool
    undecided: bool
    detail: str
    seconds: float


def claim_census_counts(workers=1, caps=Caps(), seed=SEED):
    """Irreducible and hyperbolic matrix counts at norms 1..6."""
    parts = []
    ok = True
    for n in sorted(CENSUS_EXPECTED):
        rep = census(n, dim=3)
        ok = ok and (rep.count_m, rep.count_h) == CENSUS_EXPECTED[n]
        parts.append("norm %d: M %d H %d" % (n, rep.count_m, rep.count_h))
    return ok, False, "; ".join(parts)


def claim_classification_counts(workers=1, caps=Caps(), seed=SEED):
    """Every norm-5 and norm-6 hyperbolic matrix lands on a reference class."""
    rep5 = classification_report(5, workers=workers)
    rep6 = classification_report(6, workers=workers)
    ok = (rep5["golden_ratio"] == NORM5_GOLDEN
          and rep5["matrices"] == NORM5_GOLDEN
          and all(rep5[label] == 0
                  for label in ("M_-1_3_1", "M_0_3_1", "other", "unresolved")))
    ok = ok and rep6["matrices"] == 912
    ok = ok and all(rep6[label] == count for label, count in NORM6_EXPECTED.items())
    triple = sorted((rep6["golden_ratio"], rep6["M_-1_3_1"], rep6["M_0_3_1"]))
    ok = ok and triple == [192, 240, 480]
    undecided = rep5["unresolved"] + rep6["unresolved"] > 0
    detail = ("norm 5: golden %d of %d; norm 6: golden %d, M_-1_3_1 %d, "
              "M_0_3_1 %d, other %d, unresolved %d of %d"
              % (rep5["golden_ratio"], rep5["matrices"], rep6["golden_ratio"],
                 rep6["M_-1_3_1"], rep6["M_0_3_1"], rep6["other"],
                 rep6["unresolved"], rep6["matrices"]))
    return ok, undecided, detail


def claim_frobenius_sweep(workers=1, caps=Caps(), seed=SEED):
    """Every irreducible 3x3 matrix of norm <= 6 certifies as Frobenius type."""
    report = theorem1_sweep(6, workers=workers, caps=caps)
    ok = True
    pending = 0
    for n, row in report.items():
        expected = CENSUS_EXPECTED.get(n, (0, 0))[0]
        ok = ok and row["matrices"] == expected
        ok = ok and row["frobenius"] == row["matrices"] and not row["undecided"]
        pending += len(row["undecided"])
    total = sum(row["matrices"] for row in report.values())
    frob = sum(row["frobenius"] for row in report.values())
    detail = ("%d matrices of norm <= 6: %d with unit witnesses, %d unresolved"
              % (total, frob, pending))
    return ok, pending > 0, detail


def claim_counterexample(workers=1, caps=Caps(), seed=SEED):
    """The norm-42 matrix is certified outside Frobenius type via modulus 7."""
    a = parse_matrix(COUNTEREXAMPLE_TEXT)
    if matrix_norm(a) != 42:
        return False, False, "expected norm 42, got %d" % matrix_norm(a)
    a2 = a @ a
    num = [[a2.rows[i][j] - 30 * a.rows[i][j] + 29 * (i == j) for j in range(3)]
           for i in range(3)]
    if any(v % 2 for row in num for v in row):
        return False, False, "(A^2 - 30A + 29E)/2 is not an integer matrix"
    b = IntMat([[v // 2 for v in row] for row in num])
    basis = basis_from_pair(a, a, b)
    checks = {
        "basis_coefficients": (basis.alpha, basis.beta, basis.gamma) == COUNTEREXAMPLE_COEFFS,
    }
    pf = q3(a, basis=basis)
    checks["binary_primitive"] = pf.mn_primitive == COUNTEREXAMPLE_BINARY
    checks["ternary_primitive"] = pf.xyz_primitive == COUNTEREXAMPLE_TERNARY
    checks["factors_unscaled"] = (pf.cubic_mn.as_tuple() == COUNTEREXAMPLE_BINARY
                                  and pf.cubic_xyz.coeffs == COUNTEREXAMPLE_TERNARY
                                  and pf.content == 1)
    failed = sorted(name for name, good in checks.items() if not good)
    if failed:
        return False, False, "structural checks failed: " + ", ".join(failed)
    verdict = decide_thm3(a, basis=basis, caps=caps)
    if verdict.status == "undecided":
        return False, True, ("undecided with witness box %d and modulus cap %d"
                             % (caps.box, caps.modulus_cap))
    cert = modular_obstruction(COUNTEREXAMPLE_BINARY, BINARY_CUBIC_EXPONENTS,
                               caps.modulus_cap)
    ok = (verdict.status == "non_frobenius"
          and cert is not None and cert.modulus == 7
          and verdict.solvability.certificate.modulus == 7)
    detail = ("norm 42, primitive factors %s and %s, binary factor misses "
              "unit values mod 7: %s" % (COUNTEREXAMPLE_BINARY,
                                         COUNTEREXAMPLE_TERNARY, verdict.status))
    return ok, False, detail


def claim_commutant_statements(workers=1, caps=Caps(), seed=SEED):
    """Random irreducible matrices: rank-3 commutant, E in the basis,
    and the (alpha, beta, gamma) expression of B reconstructs it exactly."""
    rng = random.Random("%s:commutant" % seed)
    e = IntMat.identity(3)
    zero = IntMat.zero(3)
    for _ in range(COMMUTANT_SAMPLE):
        while True:
            n = rng.randint(4, 8)
            m = matrix_from_flat(_sample_norm_flat(rng, 9, n))
            if classify_matrix(m) != REDUCIBLE:
                break
        where = "norm %d matrix %s" % (n, m.rows)
        lattice = commutant_lattice(m)
        if len(lattice) != 3:
            return False, False, "commutant rank %d at %s" % (len(lattice), where)
        basis = commutant_basis(m)
        if basis.members()[0] != e:
            return False, False, "normalized basis does not start at E for %s" % where
        if basis.a @ m - m @ basis.a != zero or basis.b @ m - m @ basis.b != zero:
            return False, False, "basis member fails to commute for %s" % where
        rec = basis.reconstruct_b()
        if any(rec[i][j] != basis.b.rows[i][j] for i in range(3) for j in range(3)):
            return False, False, "power expression of B does not round-trip for %s" % where
        if power_basis_index(m, lattice) < 1:
            return False, False, "power basis index must be positive for %s" % where
    detail = ("%d random irreducible matrices of norm 4..8: rank 3, E primitive, "
              "B == alpha*A^2 + beta*A + gamma*E exactly" % COMMUTANT_SAMPLE)
    return True, False, detail


def claim_pell_oracle(workers=1, caps=Caps(), seed=SEED):
    """The 2x2 decision is conclusive on every irreducible matrix of
    norm <= 6 and never contradicts the brute-force conjugator search."""
    total = 0
    non_frob = 0
    for n in range(1, 7):
        for m in matrices_in_class(2, n, (M_ONLY, HYPERBOLIC)):
            total += 1
            verdict = decide_thm2(m)
            if verdict.status not in ("frobenius", "non_frobenius"):
                return False, False, "2x2 decision undecided at %s" % (m.rows,)
            if oracle_2x2(m, 2) is not None and verdict.status != "frobenius":
                return False, False, ("conjugator found for a matrix judged "
                                      "non-Frobenius: %s" % (m.rows,))
            non_frob += verdict.status == "non_frobenius"
    ok = non_frob == NON_FROBENIUS_2X2
    detail = ("%d irreducible 2x2 matrices of norm <= 6: all decided, "
              "%d non-Frobenius, conjugator oracle consistent" % (total, non_frob))
    return ok, False, detail


def _random_sl3(rng, steps=6):
    """Product of elementary row additions: always determinant 1."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((1, -1))
        for k in range(3):
            m[i][k] += s * m[j][k]
    return IntMat([tuple(row) for row in m])


def conjugate_by(p, c):
    return p @ c @ IntMat(inverse_unimodular([list(row) for row in p.rows]))


def claim_sail_invariants(workers=1, caps=Caps(), seed=SEED):
    """The reference torus invariants are pairwise distinct and survive
    random unimodular conjugation."""
    refs = []
    for label, params in REFERENCE_PARAMS:
        m = params.matrix()
        refs.append((label, m, torus_invariant_for(m)))
    keys = [inv.key() for _, _, inv in refs]
    if len(set(keys)) != len(keys):
        return False, False, "reference invariants are not pairwise distinct: %s" % (keys,)
    for label, m, ref in refs:
        rng = random.Random("%s:%s" % (seed, label))
        for trial in range(SL3_SAMPLE):
            conj = conjugate_by(_random_sl3(rng), m)
            inv = torus_invariant_for(conj)
            if inv.key() != ref.key():
                return False, False, ("conjugation changed the invariant of %s "
                                      "at trial %d: %s vs %s"
                                      % (label, trial, inv.key(), ref.key()))
    detail = "; ".join("%s (V,E,F)=(%d,%d,%d) profile %s"
                       % (label, inv.vertex_orbits, inv.edge_orbits,
                          inv.face_orbits, inv.face_profile)
                       for label, _, inv in refs)
    return True, False, ("pairwise distinct, stable under %d conjugations "
                         "each: %s" % (SL3_SAMPLE, detail))


CLAIMS = (
    ("census_counts", claim_census_counts),
    ("classification_counts", claim_classification_counts),
    ("frobenius_sweep", claim_frobenius_sweep),
    ("counterexample", claim_counterexample),
    ("commutant_statements", claim_commutant_statements),
    ("pell_oracle", claim_pell_oracle),
    ("sail_invariants", claim_sail_invariants),
)


def run_claims(workers=1, caps=Caps(), seed=SEED):
    """Every claim in order, with wall-clock timings."""
    results = []
    for name, fn in CLAIMS:
        start = time.perf_counter()
        ok, undecided, detail = fn(workers=workers, caps=caps, seed=seed)
        results.append(ClaimResult(claim=name, ok=ok, undecided=undecided,
                                   detail=detail,
                                   seconds=time.perf_counter() - start))
    return results


def format_report(results, timings=True):
    """One line per claim; dropping timings makes reports comparable."""
    lines = []
    for r in results:
        status = "PASS" if r.ok else ("UNDECIDED" if r.undecided else "FAIL")
        stamp = " (%.1fs)" % r.seconds if timings else ""
        lines.append("%s %s%s: %s" % (status, r.claim, stamp, r.detail))
    return "\n".join(lines)


def exit_code(results):
    """0 all pass, 2 on any hard failure, 3 when only undecided remain."""
    if any(not r.ok and not r.undecided for r in results):
        return 2
    if any(r.undecided for r in results):
        return 3
    return 0


def determinism_check(worker_counts=(1, 4, 8), caps=Caps(), seed=SEED):
    """Timing-stripped reports must agree byte for byte across pool sizes."""
    reports = {}
    for w in worker_counts:
        reports[w] = format_report(run_claims(workers=w, caps=caps, seed=seed),
                                   timings=False)
    base = reports[worker_counts[0]]
    ok = all(report == base for report in reports.values())
    detail = ("worker counts %s produce %s" %
              (list(worker_counts),
               "identical reports" if ok else "DIFFERENT reports"))
    return ok, False, detail
