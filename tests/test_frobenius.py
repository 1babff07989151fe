"""Frobenius type decisions, both dimensions, and fraction classification."""

import functools
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cf3.census import (HYPERBOLIC, M_ONLY, classify_matrix, matrices_in_class,
                        matrix_from_flat)
from cf3.commutant import CommutantError, commutant_basis
from cf3.forms import TernaryCubicForm, cyclic_form, det_form, q3
from cf3.frobenius import (FrobeniusParams, REFERENCE_PARAMS, classify_fraction,
                           classification_report, commuting_frobenius_params,
                           conjugate_commuting, decide_thm2,
                           decide_thm3, frobenius_matrix, hunt, oracle_2x2,
                           sl2_ball, theorem1_sweep, _commutant_fiber,
                           _ratio_square, _sample_norm_flat)
from cf3.intmat import (CharCubic, CharQuad, IntMat, adjugate, char_cubic,
                        char_quad, format_matrix, is_irreducible, is_square,
                        parse_matrix)
from cf3.solver import _rank, decide_form
from cf3.zlinalg import hnf_basis, right_kernel

A42 = IntMat([[1, 2, 0], [0, 1, 2], [-7, 0, 29]])
GOLDEN = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])


def test_frobenius_matrix_layout_and_char():
    assert frobenius_matrix((-1, 2, 1)) == GOLDEN
    assert frobenius_matrix((5, 7)) == IntMat([[0, 1], [7, 5]])
    rng = random.Random(3)
    for _ in range(50):
        a1, a2, a3 = (rng.randint(-6, 6) for _ in range(3))
        assert char_cubic(frobenius_matrix((a1, a2, a3))) == CharCubic(a1, -a2, a3)
        assert char_quad(frobenius_matrix((a1, a2))) == CharQuad(a1, -a2)
    with pytest.raises(ValueError):
        frobenius_matrix((1,))


def test_commuting_frobenius_params():
    m = frobenius_matrix((4, -3))
    assert commuting_frobenius_params(m).values == (4, -3)
    assert commuting_frobenius_params(IntMat([[1, 2], [2, 3]])).values == (1, 1)
    assert commuting_frobenius_params(IntMat([[0, 2], [1, 0]])) is None


def test_decide_thm2_examples():
    assert decide_thm2(IntMat([[0, 1], [1, 1]])).status == "frobenius"
    v = decide_thm2(IntMat([[0, 2], [1, 0]]))
    assert v.status == "frobenius"
    assert v.conjugator.det() == 1
    assert decide_thm2(IntMat([[0, 3], [5, 0]])).status == "non_frobenius"
    with pytest.raises(ValueError):
        decide_thm2(IntMat([[1, 0], [0, 2]]))
    with pytest.raises(ValueError):
        decide_thm2(GOLDEN)


def test_thm2_is_conclusive_and_oracle_consistent():
    seen = {"frobenius": 0, "non_frobenius": 0}
    for n in range(2, 7):
        for m in matrices_in_class(2, n, ("M", "H")):
            verdict = decide_thm2(m)
            assert verdict.status in seen
            seen[verdict.status] += 1
            found = oracle_2x2(m, 2)
            if found is not None:
                assert verdict.status == "frobenius"
            if verdict.status == "frobenius":
                # the constructed conjugator was verified inside decide_thm2
                assert verdict.conjugator is not None
    assert seen["frobenius"] > 0
    assert seen["non_frobenius"] == 28


def test_sl2_ball_properties():
    ball = sl2_ball(1)
    assert all(x.det() == 1 for x in ball)
    assert IntMat.identity(2) in ball
    assert IntMat([[0, -1], [1, 0]]) in ball
    assert IntMat([[1, 1], [0, 1]]) in ball
    assert len(set(ball)) == len(ball)
    assert len(sl2_ball(2)) > len(ball)


def test_decide_thm3_golden_and_counterexample():
    assert decide_thm3(GOLDEN).status == "frobenius"
    v = decide_thm3(A42)
    assert v.status == "non_frobenius"
    assert v.solvability.certificate.kind == "modulus"
    assert v.solvability.certificate.modulus == 7
    assert v.solvability.certificate.residues == (0, 2, 5)


def test_decide_thm3_on_random_frobenius_matrices():
    rng = random.Random(5)
    done = 0
    while done < 25:
        params = tuple(rng.randint(-4, 4) for _ in range(3))
        m = frobenius_matrix(params)
        if not is_irreducible(m):
            continue
        assert decide_thm3(m).status == "frobenius"
        done += 1


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool.json"


def test_decide_thm3_reproduces_the_frozen_hunt_pool_tags():
    # the tags were written from the decision's search_bound: "w12" is a
    # witness at rung 12 of the ladder, "refuted" a modulus certificate
    tags = {"frobenius": lambda sol: "w%d" % sol.search_bound,
            "non_frobenius": lambda sol: "refuted"}
    checked = 0
    for entry in json.loads(POOL.read_text())["hunt"]:
        if entry["tag"] in ("w12", "w25", "w50", "refuted"):
            verdict = decide_thm3(parse_matrix(entry["matrix"]))
            assert tags[verdict.status](verdict.solvability) == entry["tag"], entry
            checked += 1
    assert checked == 435


def test_decide_thm3_rejects_a_basis_of_another_matrix():
    a42 = parse_matrix("1,2,0;0,1,2;-7,0,29")
    golden_basis = commutant_basis(parse_matrix("0,1,0;0,0,1;1,2,-1"))
    with pytest.raises(CommutantError):
        q3(a42, golden_basis)
    with pytest.raises(CommutantError):
        decide_thm3(a42, basis=golden_basis)
    assert decide_thm3(GOLDEN, basis=golden_basis).status == "frobenius"


def _intertwiner_basis_oracle(y, r):
    """Hermite basis of the integer kernel of the 9x9 system X y = r X."""
    rows = []
    for i in range(3):
        for j in range(3):
            row = [0] * 9
            for p in range(3):
                for q_ in range(3):
                    coef = 0
                    if p == i:
                        coef += y.rows[q_][j]
                    if q_ == j:
                        coef -= r.rows[i][p]
                    row[3 * p + q_] = coef
            rows.append(row)
    return hnf_basis(right_kernel(rows))


def _row_times(v, m):
    return tuple(sum(v[i] * m.rows[i][j] for i in range(3)) for j in range(3))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=9, max_size=9),
       st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_intertwiners_are_the_cyclic_rows(flat, v):
    """For irreducible char Y and R its companion matrix, {X : XY = RX} is
    {[v; vY; vY^2]}: the rows [e_i; Y_i; (Y^2)_i] are the Hermite basis of
    the kernel, and their determinant form is the cyclic form of (Y, Y^2)."""
    y = matrix_from_flat(flat)
    if not is_irreducible(y):
        reject()
    chi = char_cubic(y)
    r = frobenius_matrix((chi.a1, -chi.a2, chi.a3))
    y2 = y @ y
    gs = [IntMat((e, y.rows[i], y2.rows[i])) for i, e in enumerate(IntMat.identity(3).rows)]
    assert [list(g.flat()) for g in gs] == [list(k) for k in _intertwiner_basis_oracle(y, r)]
    form = cyclic_form(y, y2)
    assert det_form(gs) == form
    x = IntMat((v, _row_times(v, y), _row_times(v, y2)))
    assert x @ y == r @ x
    assert x.det() == form.evaluate(*v)


# sha256 of the lines "matrix label conjugator" ("-" when there is none) over
# the hyperbolic matrices of norms 5 and 6 in enumeration order
CLASSIFY_NORMS_5_6_SHA256 = "da58867bf44c1cce9cf42dba2559e30d340f193a5e635738b401458a33a278bf"


def test_classify_labels_and_conjugators_are_frozen():
    refs = dict(REFERENCE_PARAMS)
    digest = hashlib.sha256()
    for m in _matrices((5, 6), (HYPERBOLIC,)):
        label = classify_fraction(m)
        x = None
        if label in refs:
            status, x = conjugate_commuting(commutant_basis(m), refs[label].matrix())
            assert status == "conjugate"
        digest.update(("%s %s %s\n" % (format_matrix(m), label,
                                       format_matrix(x) if x else "-")).encode())
    assert digest.hexdigest() == CLASSIFY_NORMS_5_6_SHA256


def test_commutant_fiber_contains_the_matrix_itself():
    basis = commutant_basis(GOLDEN)
    fiber = _commutant_fiber(basis, char_cubic(GOLDEN))
    assert GOLDEN in fiber
    assert 1 <= len(fiber) <= 3
    for y in fiber:
        assert char_cubic(y) == char_cubic(GOLDEN)
        assert y @ GOLDEN == GOLDEN @ y


def _fiber_box_scan(basis, chi_r):
    """The commutant fiber by brute force: v outer, w inner over the box
    that the definite trace form Q(v, w) = T confines (v, w) to."""
    a0, b0 = (3 * x - x.trace() * basis.e for x in (basis.a, basis.b))
    qa, qb, qc = (a0 @ a0).trace(), (a0 @ b0).trace(), (b0 @ b0).trace()
    d = qa * qc - qb * qb
    t = 6 * chi_r.a1 ** 2 - 18 * chi_r.a2
    vmax, wmax = isqrt(qc * t // d) + 1, isqrt(qa * t // d) + 1
    out = []
    for v in range(-vmax, vmax + 1):
        for w in range(-wmax, wmax + 1):
            num = chi_r.a1 - v * basis.a.trace() - w * basis.b.trace()
            if num % 3:
                continue
            y = (num // 3) * basis.e + v * basis.a + w * basis.b
            if char_cubic(y) == chi_r:
                out.append(y)
    return out


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(5, 12), st.integers(0, 2**32))
def test_commutant_fiber_is_the_box_scan(norm, seed):
    """On a random hyperbolic matrix of the given norm whose discriminant
    matches at least one reference, the fiber for every such reference is
    the brute-force box scan, in the same order."""
    rng = random.Random(seed)
    while True:
        c = matrix_from_flat(_sample_norm_flat(rng, 9, norm))
        if classify_matrix(c) != HYPERBOLIC:
            continue
        dc = char_cubic(c).discriminant()
        chis = [char_cubic(p.matrix()) for _, p in REFERENCE_PARAMS]
        chis = [chi for chi in chis if _ratio_square(dc, chi.discriminant())]
        if chis:
            break
    basis = commutant_basis(c)
    for chi in chis:
        assert _commutant_fiber(basis, chi) == _fiber_box_scan(basis, chi)


def fraction_ratio_square(d1, d2):
    """Reference: d1/d2 in lowest terms has square numerator and denominator."""
    if d1 * d2 <= 0:
        return d1 == 0
    f = Fraction(d1, d2)
    return is_square(f.numerator) and is_square(f.denominator)


@settings(derandomize=True, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool),
       st.integers(-40, 40), st.integers(-40, 40).filter(bool),
       st.integers(-50, 50).filter(bool))
def test_ratio_square_matches_fraction_test(d1, d2, p, q, g):
    for a, b in ((d1, d2), (0, d2), (g * p * p, g * q * q), (g * p * p, -g * q * q),
                 (-g * p * p, -g * q * q), (g * p * p * d2, d2)):
        assert _ratio_square(a, b) == fraction_ratio_square(a, b)


def test_commutant_fiber_needs_a_totally_real_matrix():
    # x^3 - 2 has a complex pair of roots: the trace form is indefinite.
    c = frobenius_matrix((0, 0, 2))
    assert char_cubic(c).discriminant() < 0
    with pytest.raises(AssertionError, match="indefinite trace form"):
        _commutant_fiber(commutant_basis(c), char_cubic(GOLDEN))


def test_conjugate_commuting_statuses():
    basis = commutant_basis(GOLDEN)
    status, x = conjugate_commuting(basis, GOLDEN)
    assert status == "conjugate"
    # distinct fields: no commutant element of the golden matrix has the
    # other reference polynomial
    other = frobenius_matrix((0, 3, 1))
    assert conjugate_commuting(basis, other)[0] == "no_fiber"


def test_conjugate_commuting_refutes_obstructed_cyclic_forms(monkeypatch):
    # 7 times a cyclic-vector form takes only multiples of 7: no hit in the
    # search box, and its residues mod 7 miss +-1, which refutes the match.
    scaled = lambda y, y2: TernaryCubicForm(tuple(7 * c for c in cyclic_form(y, y2).coeffs))
    sols = []

    def recorded(*args):
        sols.append(decide_form(*args))
        return sols[-1]

    monkeypatch.setattr("cf3.frobenius.cyclic_form", scaled)
    monkeypatch.setattr("cf3.frobenius.decide_form", recorded)
    assert conjugate_commuting(commutant_basis(GOLDEN), GOLDEN) == ("refuted", None)
    assert sols and all(s.verdict == "unsolvable" and s.certificate.modulus == 7
                        for s in sols)
    assert classify_fraction(GOLDEN) == "other"


def test_conjugate_commuting_rejects_a_non_frobenius_reference():
    # r has the golden matrix's polynomial but is not in Frobenius form, so
    # a cyclic-vector X solves XY = FX for the Frobenius F, not for r.
    p = IntMat([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
    r = p @ GOLDEN @ adjugate(p)
    assert char_cubic(r) == char_cubic(GOLDEN) and r != GOLDEN
    with pytest.raises(ValueError, match="Frobenius"):
        conjugate_commuting(commutant_basis(GOLDEN), r)


def test_classify_reference_matrices():
    for label, params in REFERENCE_PARAMS:
        assert classify_fraction(params.matrix()) == label


def test_classify_counterexample_is_other():
    assert classify_fraction(A42) == "other"


def test_classify_is_conjugation_invariant():
    shear = IntMat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    rot = IntMat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for x in (shear, rot, shear @ rot):
        assert x.det() == 1
        conj = x @ GOLDEN @ adjugate(x)
        assert classify_fraction(conj) == "golden_ratio"
    m031 = frobenius_matrix((0, 3, 1))
    conj = shear @ m031 @ adjugate(shear)
    assert classify_fraction(conj) == "M_0_3_1"


ELEMENTARY = st.tuples(
    st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
    st.sampled_from([1, -1]))


@functools.cache
def _matrices(norms, classes):
    return [m for n in norms for m in matrices_in_class(3, n, classes)]


def _conjugate_by_word(c, word):
    p = IntMat.identity(3)
    for (i, j), s in word:
        rows = [[int(r == q) for q in range(3)] for r in range(3)]
        rows[i][j] = s
        p = p @ IntMat(rows)
    return p @ c @ adjugate(p)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.lists(ELEMENTARY, max_size=4))
def test_decide_thm3_conjugation_never_contradicts(index, word):
    """An irreducible matrix of norm <= 5 and its conjugate by an elementary
    SL(3,Z) word never get opposite definitive verdicts."""
    pool = _matrices(tuple(range(6)), (M_ONLY, HYPERBOLIC))
    c = pool[index % len(pool)]
    d = _conjugate_by_word(c, word)
    verdicts = {decide_thm3(c).status, decide_thm3(d).status}
    assert verdicts != {"frobenius", "non_frobenius"}


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.lists(ELEMENTARY, max_size=4))
def test_classify_fraction_conjugation_invariant(index, word):
    """A hyperbolic matrix of norm 5 or 6 (the classification claim's set,
    where all three references occur) and its conjugate by an elementary
    SL(3,Z) word get the same label.  An "unresolved" label on either side
    rejects the example, since only definitive labels must agree."""
    pool = _matrices((5, 6), (HYPERBOLIC,))
    c = pool[index % len(pool)]
    d = _conjugate_by_word(c, word)
    labels = [classify_fraction(c), classify_fraction(d)]
    if "unresolved" in labels:
        reject()
    assert labels[0] == labels[1]


def test_classification_report_norm_five():
    report = classification_report(5)
    assert report["matrices"] == 48
    assert report["golden_ratio"] == 48
    assert report["M_-1_3_1"] == report["M_0_3_1"] == 0
    assert report["other"] == report["unresolved"] == 0


def test_theorem1_sweep_small():
    report = theorem1_sweep(norm_cap=4)
    assert report[3] == {"matrices": 0, "frobenius": 0, "undecided": []}
    assert report[4]["matrices"] == 240
    assert report[4]["frobenius"] == 240
    assert report[4]["undecided"] == []


def conjugator_search(c, r, bound=2):
    """Literal bounded search over SL(3,Z): the identity first, then every
    X with max-norm up to the bound in canonical order, returning the
    first whose conjugate of c commutes with r."""
    x = IntMat.identity(3)
    w = x @ c @ adjugate(x)
    if w @ r == r @ w:
        return x
    for shell in range(1, bound + 1):
        vals = sorted(range(-shell, shell + 1), key=_rank)
        for flat in _nine_tuples(vals, shell):
            x = matrix_from_flat(flat)
            if x.det() != 1:
                continue
            w = x @ c @ adjugate(x)
            if w @ r == r @ w:
                return x
    return None


def _nine_tuples(vals, shell):
    """9-tuples over vals whose max-norm is exactly shell, in
    lexicographic order, det filtered in numpy chunks."""
    chunk = []
    for flat in itertools.product(vals, repeat=9):
        if max(abs(v) for v in flat) != shell:
            continue
        chunk.append(flat)
        if len(chunk) == 65536:
            yield from _det_one(chunk)
            chunk = []
    yield from _det_one(chunk)


def _det_one(flats):
    if not flats:
        return
    arr = np.array(flats, dtype=np.int64)
    a, b, c = arr[:, 0], arr[:, 1], arr[:, 2]
    d, e_, f = arr[:, 3], arr[:, 4], arr[:, 5]
    g, h, i = arr[:, 6], arr[:, 7], arr[:, 8]
    det = a * (e_ * i - f * h) - b * (d * i - f * g) + c * (d * h - e_ * g)
    for idx in np.flatnonzero(det == 1):
        yield flats[idx]


def test_conjugator_search_identity_first():
    assert conjugator_search(GOLDEN, GOLDEN) == IntMat.identity(3)


def test_conjugator_search_finds_small_conjugator():
    x0 = IntMat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    c = x0 @ GOLDEN @ adjugate(x0)
    found = conjugator_search(c, GOLDEN, bound=1)
    assert found is not None
    w = found @ c @ adjugate(found)
    assert w @ GOLDEN == GOLDEN @ w


def test_hunt_smoke_and_determinism():
    first = hunt(5, 12, seed=9)
    again = hunt(5, 12, seed=9)
    assert first == again
    assert len(first) == 12
    assert all(rec["status"] == "frobenius" for rec in first)
    parallel = hunt(5, 12, seed=9, workers=2)
    assert parallel == first
    two_dim = hunt(4, 8, seed=1, dim=2)
    assert len(two_dim) == 8
    assert all(rec["status"] in ("frobenius", "non_frobenius") for rec in two_dim)
