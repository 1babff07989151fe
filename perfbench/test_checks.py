"""Each independent check accepts a true answer and rejects a tampered one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import random

import pytest

import checks
import inputs
import program

BINARY = (2, -28, 0, 7)             # the norm-42 matrix's primitive binary factor
TERNARY = (4, -14, 49, 56, 0, 784, 392, -196, 0, 42)


def mod7_certificate(residues=(0, 2, 5), modulus=7, detail="binary factor"):
    return {"kind": "modulus", "modulus": modulus, "residues": list(residues),
            "detail": detail}


def test_residues_of_the_counterexample_factor():
    assert checks.residues(BINARY, checks.BINARY_CUBIC, 7) == {0, 2, 5}


def test_refutation_accepts_the_paper_certificate():
    assert checks.check_refutation(mod7_certificate(), BINARY, TERNARY, (), ()) == []
    assert checks.check_counterexample(mod7_certificate()) == []


@pytest.mark.parametrize("cert", [
    mod7_certificate(residues=(0, 2)),              # a residue dropped
    mod7_certificate(residues=(0, 1, 2, 5)),        # contains +1
    mod7_certificate(residues=(0, 2, 5), modulus=5),
    mod7_certificate(detail="ternary factor"),      # the wrong factor
])
def test_refutation_rejects_a_forged_certificate(cert):
    assert checks.check_refutation(cert, BINARY, TERNARY, (), ())


def test_counterexample_rejects_another_modulus():
    assert checks.check_counterexample(mod7_certificate(residues=(0, 2), modulus=5))


def test_witness_accepts_units_and_rejects_a_flipped_coordinate():
    binary = (1, 0, 0, 1)                           # m^3 + n^3
    ternary = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0)        # x^3 + y^3 + z^3
    witness = (1, 0, 0, 1, 0)
    assert checks.check_witness(binary, ternary, witness) == []
    for k in range(5):
        flipped = list(witness)
        flipped[k] += 1
        assert checks.check_witness(binary, ternary, tuple(flipped)), k


def test_content_certificate_needs_every_product_coefficient_divisible():
    cert = {"kind": "modulus", "modulus": 2, "residues": [0],
            "detail": "every coefficient divisible by 2"}
    assert checks.check_refutation(cert, (), (), (1, 1, 1, 1), (2,) * 10) == []
    assert checks.check_refutation(cert, (), (), (1, 1, 1, 1), (2,) * 9 + (3,))


def test_census_and_classification_reject_a_wrong_count():
    assert checks.check_census(dict(checks.CENSUS_COUNTS)) == []
    assert checks.check_census({**checks.CENSUS_COUNTS, 6: 8111})
    good = {n: dict(c) for n, c in checks.CLASSIFY_COUNTS.items()}
    assert checks.check_classification(good) == []
    bad = {n: dict(c) for n, c in good.items()}
    bad[6]["golden_ratio"], bad[6]["M_0_3_1"] = 240, 480
    assert checks.check_classification(bad)


def test_invariant_rejects_a_broken_euler_characteristic_or_profile():
    assert checks.check_invariant("golden_ratio", (1, 3, 2, ((3, 1), (3, 1)))) == []
    assert checks.check_invariant("golden_ratio", (1, 3, 3, ((3, 1), (3, 1))))
    assert checks.check_invariant("golden_ratio", (1, 3, 2, ((3, 1), (3, 3))))


def test_rational_root_test():
    assert checks.is_irreducible(inputs.frobenius_matrix((0, 0, 2)))       # x^3 - 2
    assert not checks.is_irreducible(((1, 0, 0), (0, 2, 1), (0, 1, 1)))    # eigenvalue 1
    assert not checks.is_irreducible(((0, 1, 0), (0, 0, 1), (0, 0, 0)))    # eigenvalue 0
    for params in inputs.REFERENCES.values():
        assert checks.is_hyperbolic(inputs.frobenius_matrix(params))


def test_label_needs_a_square_discriminant_ratio():
    discs = {label: checks.discriminant(inputs.frobenius_matrix(p))
             for label, p in inputs.REFERENCES.items()}
    golden = inputs.frobenius_matrix(inputs.REFERENCES["golden_ratio"])
    assert checks.check_label(golden, "golden_ratio", discs) == []
    assert checks.check_label(golden, "M_-1_3_1", discs)


def test_conjugate_check_rejects_a_tampered_conjugator():
    rng = random.Random(5)
    r = inputs.frobenius_matrix(inputs.REFERENCES["M_0_3_1"])
    p, p_inv = inputs.sl3_word(rng, 6)
    m = checks.matmul(checks.matmul(p, r), p_inv)
    assert checks.check_conjugate(r, p, p_inv, m) == []
    tampered = (m[0], m[1], (m[2][0] + 1,) + m[2][1:])
    assert checks.check_conjugate(r, p, p_inv, tampered)


def test_sphere_sampler_hits_the_norm():
    rng = random.Random(0)
    for n in (1, 7, 14):
        v = inputs.sample_sphere(rng, 9, n)
        assert len(v) == 9 and sum(abs(x) for x in v) == n
    assert inputs.sphere_count(9, 6) == sum(1 for _ in _l1_sphere(9, 6))


def _l1_sphere(length, n):
    if length == 1:
        yield from ((n,), (-n,)) if n else ((0,),)
        return
    for v in range(-n, n + 1):
        for rest in _l1_sphere(length - 1, n - abs(v)):
            yield (v,) + rest


def test_checks_reject_tampered_program_output():
    """A real decide_thm3 answer passes; flipping a witness coordinate fails."""
    try:
        mods = program.load()
    except program.MissingProgram:
        pytest.skip("no cf3 sources in this checkout")
    from workloads import WORKLOADS

    hunt = WORKLOADS["hunt"]
    recorder = program.FormRecorder(mods["frobenius"])
    rec = hunt.decide(mods, recorder, ((0, 1, 0), (0, 0, 1), (1, 1, 0)))
    assert rec["status"] == "frobenius" and hunt.check_answer(rec) == []
    w = list(rec["witness"])
    w[0] += 1
    assert hunt.check_answer({**rec, "witness": tuple(w)})
    cex = hunt.decide(mods, recorder, inputs.COUNTEREXAMPLE)
    assert hunt.check_answer(cex) == [] and hunt.check_run([cex], {}) == []
    forged = {**cex["certificate"], "residues": [0, 2]}
    assert hunt.check_answer({**cex, "certificate": forged})
