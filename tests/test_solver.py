"""Solver: box search, modular obstructions, and the quadratic cycle walk."""

import random
from dataclasses import replace
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cf3.commutant import basis_from_pair
from cf3.forms import (BinaryCubicForm, BinaryQF, TernaryCubicForm,
                       evaluate_form, product_form, q2, q3)
from cf3.intmat import IntMat, is_irreducible
from cf3.solver import (_TABLE_BOX, _TABLE_CACHE, BINARY_CUBIC_EXPONENTS,
                        BINARY_QUAD_EXPONENTS, TERNARY_CUBIC_EXPONENTS, Caps, Certificate,
                        Solvability, _content_certificate, _monomial_table, _rank,
                        _residues_mod, box_values, decide_form, decide_product,
                        decide_quadratic, grid_coords, modular_obstruction,
                        pell_decide, search_box)

A42 = IntMat([[1, 2, 0], [0, 1, 2], [-7, 0, 29]])
GOLDEN = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])


def b42():
    e = IntMat.identity(3)
    num = A42 @ A42 - 30 * A42 + 29 * e
    return IntMat([[v // 2 for v in row] for row in num.rows])


def grid_values(coeffs, exponents, coords):
    """Oracle: the form at every grid point, monomial by monomial, in the
    dtype of ``coords`` (int64, or object for exact Python integers)."""
    total = np.zeros_like(coords[0])
    for c, exps in zip(coeffs, exponents):
        term = c
        for g, e in zip(coords, exps):
            for _ in range(e):
                term = term * g
        total = total + term
    return total


# ---------------------------------------------------------------- search_box

def _search_box_python(coeffs, exponents, bound, targets):
    """Oracle: the canonical order spelled out point by point."""
    arity = len(exponents[0])
    for shell in range(bound + 1):
        vals = sorted(range(-shell, shell + 1), key=_rank)
        for point in product(vals, repeat=arity):
            if max(abs(v) for v in point) != shell:
                continue
            if evaluate_form(coeffs, exponents, point) in targets:
                return point
    return None


def test_search_box_canonical_first_hit():
    # x^2 + y^2 == 1 has four solutions; canonical order prefers
    # the one with x = 0, y = 1 (0 sorts before 1, 1 before -1)
    point, value = search_box((1, 0, 1), BINARY_QUAD_EXPONENTS, 3, targets=(1,))
    assert point == (0, 1)
    assert value == 1


def test_search_box_respects_shells():
    # m^3 == 8 first reached on the shell of max-norm 2
    point, value = search_box((1, 0, 0, 0), BINARY_CUBIC_EXPONENTS, 5,
                              targets=(8,))
    assert point == (2, 0)
    assert value == 8


def test_search_box_no_hit():
    assert search_box((2, 0, 2), BINARY_QUAD_EXPONENTS, 10) is None


def test_search_box_python_fallback_agrees():
    rng = random.Random(31)
    for _ in range(60):
        coeffs = tuple(rng.randint(-6, 6) for _ in range(4))
        if all(c == 0 for c in coeffs):
            continue
        fast = search_box(coeffs, BINARY_CUBIC_EXPONENTS, 4)
        slow = _search_box_python(coeffs, BINARY_CUBIC_EXPONENTS, 4, (1, -1))
        if fast is None:
            assert slow is None
        else:
            assert fast[0] == slow


CUBIC_EXPONENTS = {2: BINARY_CUBIC_EXPONENTS, 3: TERNARY_CUBIC_EXPONENTS}


def _python_answer(coeffs, exponents, bound):
    point = _search_box_python(coeffs, exponents, bound, (1, -1))
    return None if point is None else (point, evaluate_form(coeffs, exponents, point))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4), st.integers(0, 6))
def test_search_box_binary_cubic_matches_python(coeffs, bound):
    assert search_box(coeffs, BINARY_CUBIC_EXPONENTS, bound) == \
        _python_answer(coeffs, BINARY_CUBIC_EXPONENTS, bound)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=10, max_size=10), st.integers(0, 6))
def test_search_box_ternary_cubic_matches_python(coeffs, bound):
    assert search_box(coeffs, TERNARY_CUBIC_EXPONENTS, bound) == \
        _python_answer(coeffs, TERNARY_CUBIC_EXPONENTS, bound)


@pytest.mark.parametrize("coeffs, exponents, first", [
    # n^2 (5n - m): a unit value needs n = +-1 and m = 5n -+ 1, so |m| >= 4
    ((0, 0, -1, 5), BINARY_CUBIC_EXPONENTS, (4, 1)),
    # z^2 (5z - x), free in y: the same on shell 4, with y = 0 first
    ((0, 0, 5, 0, 0, 0, -1, 0, 0, 0), TERNARY_CUBIC_EXPONENTS, (4, 0, 1)),
])
def test_search_box_first_hit_past_the_first_passes(coeffs, exponents, first):
    # shells <= 1 and <= 3 miss; the third pass (shells 4..6) finds it
    for bound in (4, 5, 6):
        assert search_box(coeffs, exponents, bound) == (first, 1)
        assert _search_box_python(coeffs, exponents, bound, (1, -1)) == first
    assert search_box(coeffs, exponents, 3) is None


@pytest.mark.parametrize("k, rung", [(11, 12), (21, 25)])
def test_search_box_hit_within_a_rung_costs_no_more_than_its_box(monkeypatch, k, rung):
    # n^2 (k n - m) first hits (k - 1, 1): past the monomial table the passes
    # evaluate the boxes of the rungs up to the one holding the hit, no larger
    sides = []

    def counted(coeffs, exponents, side, *args, **kwargs):
        sides.append(len(side))
        return box_values(coeffs, exponents, side, *args, **kwargs)

    _monomial_table(BINARY_CUBIC_EXPONENTS)
    monkeypatch.setattr("cf3.solver.box_values", counted)
    assert search_box((0, 0, -1, k), BINARY_CUBIC_EXPONENTS, 50) == ((k - 1, 1), 1)
    assert sides == [2 * b + 1 for b in (12, 25) if b <= rung]


@pytest.mark.parametrize("arity", [2, 3])
def test_monomial_table_is_in_canonical_order(arity):
    # sorted by shell first, so box b <= _TABLE_BOX is the first (2b+1)^arity rows
    exponents = CUBIC_EXPONENTS[arity]
    listed, table = _monomial_table(exponents)
    assert listed == sorted(product(range(-_TABLE_BOX, _TABLE_BOX + 1), repeat=arity),
                            key=lambda p: (max(abs(v) for v in p), [_rank(v) for v in p]))
    units = np.eye(len(exponents), dtype=int).tolist()
    assert table.dtype == np.int64
    assert table.tolist() == [[evaluate_form(u, exponents, p) for u in units] for p in listed]


def test_monomial_table_is_built_once_per_exponent_table(monkeypatch):
    calls = []

    def counted(coeffs, exponents, side, *args, **kwargs):
        calls.append(exponents)
        return box_values(coeffs, exponents, side, *args, **kwargs)

    monkeypatch.setattr("cf3.solver.box_values", counted)
    _TABLE_CACHE.clear()
    # n^2 (7n - m) and z^2 (7z - x) first hit on shell 6, inside the table
    forms = [((0, 0, -1, 7), BINARY_CUBIC_EXPONENTS),
             ((0, 0, 7, 0, 0, 0, -1, 0, 0, 0), TERNARY_CUBIC_EXPONENTS)]
    built = {}
    for bound in (4, 7, 6, 0):
        for coeffs, exponents in forms:
            assert search_box(coeffs, exponents, bound) == _python_answer(coeffs, exponents, bound)
            built.setdefault(exponents, _TABLE_CACHE[exponents])
            assert _TABLE_CACHE[exponents] is built[exponents]
    assert set(_TABLE_CACHE) == {BINARY_CUBIC_EXPONENTS, TERNARY_CUBIC_EXPONENTS}
    # one pass per monomial at the first search, none after it
    assert calls == [BINARY_CUBIC_EXPONENTS] * 4 + [TERNARY_CUBIC_EXPONENTS] * 10


def _signed_permutation(coeffs, exponents, perm, signs):
    """The form at the point (signs[i] * v[perm[i]])_i."""
    index = {e: j for j, e in enumerate(exponents)}
    out = [0] * len(exponents)
    for c, e in zip(coeffs, exponents):
        f = [0] * len(e)
        for i, ei in enumerate(e):
            f[perm[i]] = ei
        out[index[tuple(f)]] += c * prod(s ** ei for s, ei in zip(signs, e))
    return tuple(out)


@st.composite
def late_hit_forms(draw):
    """z^2 (k z - x) + big x^2 (x - (k - 1) z) in the first variable x and
    the last z, under a random signed permutation of the variables.  Its
    unit values lie on z = +-1, x = +-(k - 1) or +-(k + 1), so the first
    is on shell k - 1, past the first passes.  A nonzero big is sized so
    that the table passes run in int64 and the box passes on exact
    integers: weight * 7^3 < 2^62 <= weight * 12^3."""
    exponents = draw(st.sampled_from([BINARY_CUBIC_EXPONENTS, TERNARY_CUBIC_EXPONENTS]))
    arity = len(exponents[0])
    k = draw(st.integers(8, 30))
    big = (draw(st.sampled_from((0, 1, -1)))
           * draw(st.integers(2 ** 62 // (1728 * k) + 1, 2 ** 62 // (343 * k) - 2)))
    x, z = (1,) + (0,) * (arity - 1), (0,) * (arity - 1) + (1,)

    def mono(i, j):
        return tuple(i * a + j * b for a, b in zip(x, z))

    terms = {mono(0, 3): k, mono(1, 2): -1, mono(3, 0): big, mono(2, 1): -(k - 1) * big}
    coeffs = [terms.get(e, 0) for e in exponents]
    perm = draw(st.permutations(range(arity)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=arity, max_size=arity))
    return _signed_permutation(coeffs, exponents, perm, signs), exponents, big


@settings(derandomize=True, max_examples=40, deadline=None)
@given(late_hit_forms(), st.integers(0, 50))
@example(((0, 0, 30, 0, 0, 0, -1, 0, 0, 0), TERNARY_CUBIC_EXPONENTS, 0), 50)
def test_search_box_past_the_monomial_table_matches_python(form, bound):
    coeffs, exponents, big = form
    weight = sum(map(abs, coeffs))
    assert not big or weight * 7 ** 3 < 2 ** 62 <= weight * 12 ** 3
    assert search_box(coeffs, exponents, bound) == _python_answer(coeffs, exponents, bound)


# small coefficients, and ones near the int64 guard: the switch to exact
# integers then happens on a pass inside the monomial table
NEAR_GUARD = st.one_of(st.integers(-3, 3), st.integers(-2**61, 2**61))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(NEAR_GUARD, min_size=4, max_size=4), st.integers(0, 9))
@example([2**59, 0, 0, 5 * 2**59 + 1], 3)
@example([2**61, 2**61, 0, 1], 7)
def test_search_box_near_the_int64_guard_matches_python(coeffs, bound):
    assert search_box(coeffs, BINARY_CUBIC_EXPONENTS, bound) == \
        _python_answer(coeffs, BINARY_CUBIC_EXPONENTS, bound)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.lists(NEAR_GUARD, min_size=10, max_size=10), st.integers(0, 7))
def test_search_box_ternary_near_the_int64_guard_matches_python(coeffs, bound):
    assert search_box(coeffs, TERNARY_CUBIC_EXPONENTS, bound) == \
        _python_answer(coeffs, TERNARY_CUBIC_EXPONENTS, bound)


def test_search_box_huge_coefficients_use_exact_path():
    big = 10 ** 18
    found = search_box((big, big - 1), ((1, 0), (0, 1)), 2)
    assert found is not None
    point, value = found
    assert big * point[0] + (big - 1) * point[1] == value
    assert value in (1, -1)


@pytest.mark.parametrize("coeffs, bound, expected", [
    # n^2 (5n - m) + big m^2 (m - 4n), big = 10^17: off the line m = 4n the
    # big term swamps the rest, on it the form is n^3, so the first unit
    # value is (4, 1) on shell 4, in the third pass
    ((10 ** 17, -4 * 10 ** 17, -1, 5), 7, ((4, 1), 1)),
    # 2^59 m^3 + (5 2^59 + 1) n^3 never takes +-1, but at (3, 1) it is
    # 2^64 + 1, which int64 arithmetic wraps to a false hit
    ((2 ** 59, 0, 0, 5 * 2 ** 59 + 1), 3, None),
])
def test_search_box_switches_to_exact_integers_per_pass(coeffs, bound, expected):
    # the int64 guard holds on shell 1 and fails from shell 3 on
    weight = sum(abs(c) for c in coeffs)
    assert weight < 2 ** 62 <= weight * 3 ** 3
    assert _python_answer(coeffs, BINARY_CUBIC_EXPONENTS, bound) == expected
    assert search_box(coeffs, BINARY_CUBIC_EXPONENTS, bound) == expected


# ---------------------------------------------------------------- obstructions

def test_modular_obstruction_golden_binary_factor():
    cert = modular_obstruction((2, -28, 0, 7), BINARY_CUBIC_EXPONENTS, 100)
    assert cert is not None
    assert cert.kind == "modulus"
    assert cert.modulus == 7
    assert cert.residues == (0, 2, 5)


def test_modular_obstruction_none_for_cube():
    assert modular_obstruction((1, 0, 0, 0), BINARY_CUBIC_EXPONENTS, 30) is None


def _oracle_residues(coeffs, exponents, q):
    """Residue set by evaluating every monomial on the full (Z/q)^arity grid."""
    coords = grid_coords(np.arange(q, dtype=np.int64), len(exponents[0]))
    maxdeg = max(max(e) for e in exponents)
    powers = []
    for g in coords:
        col = [np.ones_like(g)]
        for _ in range(maxdeg):
            col.append((col[-1] * g) % q)
        powers.append(col)
    total = np.zeros_like(coords[0])
    for c, exps in zip(coeffs, exponents):
        term = np.full_like(coords[0], c % q)
        for gi, e in enumerate(exps):
            if e:
                term = (term * powers[gi][e]) % q
        total = (total + term) % q
    return frozenset(int(v) for v in np.unique(total))


def _oracle_obstruction(coeffs, exponents, cap, targets=(1, -1)):
    """Smallest obstructing modulus by scanning every q <= cap."""
    for q in range(2, cap + 1):
        got = _oracle_residues(coeffs, exponents, q)
        if not any(t % q in got for t in targets):
            return Certificate(kind="modulus", modulus=q, residues=tuple(sorted(got)))
    return None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([BINARY_CUBIC_EXPONENTS, TERNARY_CUBIC_EXPONENTS]).flatmap(
           lambda e: st.tuples(st.just(e), st.lists(st.integers(-50, 50), min_size=len(e),
                                                    max_size=len(e)))),
       st.integers(0, 6), st.integers(2, 30))
def test_box_values_is_the_grid_evaluation(form, bound, q):
    """One Horner pass equals the monomial-by-monomial grid evaluation, over
    a box and over the residues mod q, and over their upper halves in the
    first variable."""
    exponents, coeffs = form
    arity = len(exponents[0])
    for side, modulus in ((np.arange(-bound, bound + 1, dtype=np.int64), 0),
                          (np.arange(q, dtype=np.int64), q)):
        got = box_values(coeffs, exponents, side, modulus)
        assert got.shape == (len(side), len(side) ** (arity - 1))
        want = grid_values(coeffs, exponents, grid_coords(side, arity))
        assert (got.ravel() == (want % modulus if modulus else want)).all()
        half = len(side) // 2
        assert (box_values(coeffs, exponents, side, modulus, first=side[half:])
                == got[half:]).all()


def test_residues_match_direct_enumeration():
    rng = random.Random(37)
    for _ in range(20):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(3))
        q = rng.randint(2, 11)
        want = {(coeffs[0] * x * x + coeffs[1] * x * y + coeffs[2] * y * y) % q
                for x in range(q) for y in range(q)}
        cert = modular_obstruction(coeffs, BINARY_QUAD_EXPONENTS, q,
                                   targets=(q + 5,))
        # targets (q+5,) % q == 5; certificate exists iff 5 unattained
        if 5 % q in want:
            assert cert is None or cert.modulus != q
        assert _residues_mod(coeffs, BINARY_QUAD_EXPONENTS, q) == frozenset(want)
    for exponents in (BINARY_CUBIC_EXPONENTS, TERNARY_CUBIC_EXPONENTS):
        for _ in range(20):
            coeffs = tuple(rng.randint(-30, 30) for _ in exponents)
            q = rng.randint(2, 13)
            want = {evaluate_form(coeffs, exponents, point) % q
                    for point in product(range(q), repeat=len(exponents[0]))}
            assert _residues_mod(coeffs, exponents, q) == frozenset(want)


def _cubics(exponents):
    # All coefficients but at most three are multiples of a small modulus,
    # so that obstructions (mod 2, 3, 4, 7, 9, 13, ...) are common.
    n = len(exponents)
    return st.tuples(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 13)),
                     st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                     st.sets(st.integers(0, n - 1), max_size=3)).map(
        lambda t: tuple(c if i in t[2] else c * t[0] for i, c in enumerate(t[1])))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_cubics(BINARY_CUBIC_EXPONENTS))
def test_prime_power_scan_matches_full_scan_binary(coeffs):
    assert (modular_obstruction(coeffs, BINARY_CUBIC_EXPONENTS, 100)
            == _oracle_obstruction(coeffs, BINARY_CUBIC_EXPONENTS, 100))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_cubics(TERNARY_CUBIC_EXPONENTS), st.integers(2, 40))
def test_prime_power_scan_matches_full_scan_ternary(coeffs, cap):
    assert (modular_obstruction(coeffs, TERNARY_CUBIC_EXPONENTS, cap)
            == _oracle_obstruction(coeffs, TERNARY_CUBIC_EXPONENTS, cap))


def test_prime_power_scan_rejects_even_form_with_two_targets():
    # x^2 + y^2 is even, so its residue sets need not be closed under negation
    with pytest.raises(ValueError):
        modular_obstruction((1, 0, 1), BINARY_QUAD_EXPONENTS, 10, targets=(1, -1))


# ---------------------------------------------------------------- quadratics

def test_pell_fibonacci_form_represents_both_units():
    r = pell_decide(BinaryQF(1, 1, -1))
    assert r.verdict == "solvable"
    x, y = r.witness
    assert x * x + x * y - y * y == r.value
    assert r.value in (1, -1)


def test_pell_sqrt2_form():
    r = pell_decide(BinaryQF(1, 0, -2))
    assert r.verdict == "solvable"
    x, y = r.witness
    assert x * x - 2 * y * y == r.value


def test_pell_unsolvable_cycle():
    r = pell_decide(BinaryQF(3, 0, -5))
    assert r.verdict == "unsolvable"
    assert r.certificate.kind == "cycle"
    assert all(a not in (1, -1) for a in r.certificate.leading)
    # confirm by brute force over a generous box
    for x in range(-40, 41):
        for y in range(-40, 41):
            assert abs(3 * x * x - 5 * y * y) != 1


def test_pell_rejects_definite_and_square_disc():
    with pytest.raises(ValueError):
        pell_decide(BinaryQF(1, 0, 1))
    with pytest.raises(ValueError):
        pell_decide(BinaryQF(1, 0, -1))


def test_pell_step_cap_returns_unknown(monkeypatch):
    import cf3.solver
    monkeypatch.setattr(cf3.solver, "PELL_STEP_CAP", 1)
    assert pell_decide(BinaryQF(3, 0, -5)).verdict == "unknown"


def test_pell_agrees_with_box_search():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        p, q, r_ = rng.randint(-7, 7), rng.randint(-7, 7), rng.randint(-7, 7)
        f = BinaryQF(p, q, r_)
        d = f.discriminant()
        from cf3.intmat import is_square
        if d <= 0 or is_square(d):
            continue
        verdict = pell_decide(f)
        boxed = search_box(f.as_tuple(), BINARY_QUAD_EXPONENTS, 30)
        if verdict.verdict == "solvable":
            assert abs(f.evaluate(*verdict.witness)) == 1
        else:
            assert boxed is None
        checked += 1


def test_definite_decisions():
    r = decide_quadratic(BinaryQF(2, 0, 3))
    assert r.verdict == "unsolvable"
    assert r.certificate.kind == "definite"
    r = decide_quadratic(BinaryQF(1, 0, 3))
    assert r.verdict == "solvable"
    assert r.witness in ((1, 0), (-1, 0))
    r = decide_quadratic(BinaryQF(-1, 0, -3))
    assert r.verdict == "solvable" and r.value == -1


def test_content_shortcut():
    r = decide_quadratic(BinaryQF(2, 4, 6))
    assert r.verdict == "unsolvable"
    assert r.certificate.kind == "modulus"
    assert r.certificate.modulus == 2
    assert r.certificate.residues == (0,)


def test_square_disc_raises():
    # q2 of an irreducible matrix never has a square discriminant
    for qf in (BinaryQF(1, 0, -1), BinaryQF(0, 1, 0)):
        with pytest.raises(ValueError):
            decide_quadratic(qf)


def test_decide_quadratic_on_matrix_forms():
    rng = random.Random(43)
    seen_solvable = seen_unsolvable = False
    for _ in range(300):
        m = IntMat([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
        if not is_irreducible(m):
            continue
        r = decide_quadratic(q2(m))
        assert r.verdict in ("solvable", "unsolvable")
        seen_solvable |= r.verdict == "solvable"
        seen_unsolvable |= r.verdict == "unsolvable"
    assert seen_solvable and seen_unsolvable


# ---------------------------------------------------------------- products

def test_product_counterexample_is_unsolvable_with_mod7_certificate():
    for pf in (q3(A42), q3(A42, basis=basis_from_pair(A42, A42, b42()))):
        r = decide_product(pf)
        assert r.verdict == "unsolvable"
        assert r.certificate.kind == "modulus"
        assert r.certificate.modulus == 7
        assert r.certificate.residues == (0, 2, 5)


def test_product_solvable_for_plainly_frobenius_matrix():
    r = decide_product(q3(GOLDEN))
    assert r.verdict == "solvable"
    pf = q3(GOLDEN)
    value = pf.evaluate(*r.witness[:3], *r.witness[3:])
    assert abs(value) == 1
    assert int(value) == r.value


def test_product_content_certificate():
    pf = product_form(BinaryCubicForm(1, 0, 0, 0), TernaryCubicForm((-2,) + (0,) * 9))
    assert (pf.mn_content, pf.xyz_content, pf.content) == (1, -2, 2)
    r = decide_product(pf)
    assert r.verdict == "unsolvable"
    assert r.certificate.modulus == 2
    assert r.certificate.residues == (0,)


def test_product_unknown_with_tiny_caps():
    r = decide_product(q3(GOLDEN), Caps(box=0, modulus_cap=1))
    assert r.verdict == "unknown"
    assert r.search_bound == 0
    assert r.modulus_cap == 1


def _ladder_decide_product(pf, caps):
    """Oracle: the interleaved box ladder, each factor searched box by box
    until both have a witness, then obstructed in turn."""
    if pf.content > 1:
        return _content_certificate(pf.content)
    factors = [
        [pf.mn_primitive, BINARY_CUBIC_EXPONENTS, "binary factor", None],
        [pf.xyz_primitive, TERNARY_CUBIC_EXPONENTS, "ternary factor", None],
    ]
    cap = caps.modulus_cap
    for box in caps.ladder:
        for fac in factors:
            if fac[3] is None:
                fac[3] = search_box(fac[0], fac[1], box)
        if all(fac[3] is not None for fac in factors):
            witness = factors[1][3][0] + factors[0][3][0]
            value = pf.evaluate(*witness[:3], *witness[3:])
            return Solvability("solvable", witness=witness, value=value,
                               search_bound=box)
    for fac in factors:
        if fac[3] is None:
            cert = modular_obstruction(fac[0], fac[1], cap)
            if cert is not None:
                return Solvability("unsolvable", certificate=replace(cert, detail=fac[2]),
                                   search_bound=box, modulus_cap=cap)
    return Solvability("unknown", search_bound=box, modulus_cap=cap)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       st.lists(st.integers(-6, 6), min_size=10, max_size=10),
       st.sampled_from((0, 1, 5, 12, 13, 30)), st.sampled_from((0, 10, 30)))
# n^2 (14n - m) first hits on shell 13, x^3 on shell 1: the rungs differ
@example([0, 0, -1, 14], [1] + [0] * 9, 30, 10)
def test_decide_product_matches_the_ladder(binary, ternary, box, modulus_cap):
    if not any(binary) or not any(ternary):
        return
    pf = product_form(BinaryCubicForm(*binary), TernaryCubicForm(tuple(ternary)))
    caps = Caps(box=box, modulus_cap=modulus_cap)
    assert decide_product(pf, caps) == _ladder_decide_product(pf, caps)


def test_decide_form_reports_the_rung_of_the_witness():
    # n^2 (5n - m) first hits on shell 4: rung 5 of box 5, rung 12 of box 30
    coeffs = (0, 0, -1, 5)
    assert decide_form(coeffs, BINARY_CUBIC_EXPONENTS, Caps(box=5)).search_bound == 5
    sol = decide_form(coeffs, BINARY_CUBIC_EXPONENTS, Caps(box=30))
    assert (sol.verdict, sol.witness, sol.search_bound) == ("solvable", (4, 1), 12)
    sol = decide_form(coeffs, BINARY_CUBIC_EXPONENTS, Caps(box=3))
    assert (sol.verdict, sol.search_bound, sol.modulus_cap) == ("unknown", 3, 100)


def test_config_defaults():
    assert Caps().ladder == (12, 25, 50)
    assert Caps().modulus_cap == 100
    assert Caps(box=30).ladder == (12, 25, 30)
    assert Caps(box=0).ladder == (0,)
