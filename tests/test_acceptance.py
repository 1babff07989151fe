"""The acceptance gate: every headline claim re-derived and reported.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s``,
and on any failure) and asserts the claim.  Criterion order and wording
track the package README's claims table.
"""

from cf3.acceptance import (ClaimResult, claim_census_counts,
                            claim_classification_counts, claim_commutant_statements,
                            claim_counterexample, claim_frobenius_sweep,
                            claim_pell_oracle, claim_sail_invariants,
                            determinism_check, exit_code)
from cf3.solver import Caps


def report(number, name, outcome):
    ok, undecided, detail = outcome
    status = "PASS" if ok else ("UNDECIDED" if undecided else "FAIL")
    print("criterion %d %s %s: %s" % (number, name, status, detail))
    assert ok and not undecided, "%s: %s" % (name, detail)


def test_criterion_1_census_counts():
    report(1, "census_counts", claim_census_counts())


def test_criterion_2_classification_counts():
    report(2, "classification_counts", claim_classification_counts())


def test_criterion_3_frobenius_sweep():
    report(3, "frobenius_sweep", claim_frobenius_sweep())


def test_criterion_4_counterexample():
    report(4, "counterexample", claim_counterexample())


def test_criterion_5_commutant_statements():
    report(5, "commutant_statements", claim_commutant_statements())


def test_criterion_6_pell_oracle():
    report(6, "pell_oracle", claim_pell_oracle())


def test_criterion_7_sail_invariants():
    report(7, "sail_invariants", claim_sail_invariants())


def test_criterion_8_worker_determinism():
    report(8, "determinism", determinism_check(worker_counts=(1, 4, 8)))


def test_zero_caps_leave_witness_claims_undecided():
    """Cap semantics behind the repro exit-3 contract: with searching and
    obstruction both disabled, the witness claims are undecided, not failed."""
    caps = Caps(box=0, modulus_cap=0)
    ok, undecided, _ = claim_counterexample(caps=caps)
    assert (ok, undecided) == (False, True)
    ok, undecided, _ = claim_frobenius_sweep(caps=caps)
    assert (ok, undecided) == (False, True)


def test_exit_code_mapping():
    # synthetic results: hard failure dominates undecided, undecided beats pass
    def result(ok, undecided):
        return ClaimResult("x", ok, undecided, "", 0.0)

    assert exit_code([result(True, False)]) == 0
    assert exit_code([result(True, False), result(False, True)]) == 3
    assert exit_code([result(False, True), result(False, False)]) == 2
