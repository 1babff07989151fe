"""Forms: the binary quadratic, the two cubic factors, and their product."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cf3.census import matrices_in_class
from cf3.commutant import basis_from_pair, commutant_basis
from cf3.forms import (BinaryCubicForm, BinaryQF, IntegralityError, MONOMIALS,
                       P_TILDE_TABLE, TernaryCubicForm, _primitive_scaled,
                       bracket, p_bar, p_tilde, product_form, q2, q3)
from cf3.intmat import CharCubic, IntMat, adjugate, char_cubic, is_irreducible


def rand_mat(rng, dim=3, lo=-5, hi=5):
    return IntMat([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])


def rand_irreducible(rng, dim=3, lo=-5, hi=5):
    while True:
        m = rand_mat(rng, dim, lo, hi)
        if is_irreducible(m):
            return m


A42 = IntMat([[1, 2, 0], [0, 1, 2], [-7, 0, 29]])


def b42():
    e = IntMat.identity(3)
    num = A42 @ A42 - 30 * A42 + 29 * e
    assert all(v % 2 == 0 for v in num.flat())
    return IntMat([[v // 2 for v in row] for row in num.rows])


# ---------------------------------------------------------------- binary quadratic

def test_q2_fibonacci_like():
    f = q2(IntMat([[0, 1], [1, 1]]))
    assert f.as_tuple() == (1, 1, -1)
    assert f.discriminant() == 5


def test_q2_sqrt2_like():
    assert q2(IntMat([[0, 2], [1, 0]])).as_tuple() == (2, 0, -1)


def test_q2_gcd_normalization():
    # entries (2, 2, 2) share the factor 2
    assert q2(IntMat([[1, 2], [2, 3]])).as_tuple() == (1, 1, -1)


def test_q2_rejects_reducible_and_wrong_dim():
    with pytest.raises(ValueError):
        q2(IntMat([[1, 0], [0, 2]]))
    with pytest.raises(ValueError):
        q2(IntMat.identity(3))


def test_q2_primitive_and_nonsquare_disc():
    rng = random.Random(7)
    for _ in range(300):
        a = rand_irreducible(rng, dim=2, lo=-6, hi=6)
        f = q2(a)
        assert f.content() == 1
        d = f.discriminant()
        assert d != 0
        from cf3.intmat import is_square
        assert not (d > 0 and is_square(d))


# ---------------------------------------------------------------- binary cubic

def test_p_bar_golden():
    basis = basis_from_pair(A42, A42, b42())
    assert (basis.alpha, basis.beta) == (Fraction(1, 2), -15)
    f = p_bar(char_cubic(A42), basis.alpha, basis.beta)
    assert f.as_tuple() == (1, -14, 0, Fraction(7, 2))
    prim, scale = f.primitive()
    assert prim == (2, -28, 0, 7)
    assert scale == 2


def test_p_bar_alpha_zero_is_a_cube():
    rng = random.Random(11)
    for _ in range(100):
        chi = char_cubic(rand_mat(rng))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        f = p_bar(chi, 0, beta)
        assert f.as_tuple() == (1, 3 * beta, 3 * beta ** 2, beta ** 3)
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert f.evaluate(m, n) == (m + beta * n) ** 3


def test_binary_cubic_primitive_rejects_zero():
    with pytest.raises(ValueError):
        BinaryCubicForm(Fraction(0), Fraction(0), Fraction(0), Fraction(0)).primitive()
    with pytest.raises(ValueError):
        _primitive_scaled((0, 0, 0, 0), 5)


def oracle_p_bar(chi, alpha, beta):
    # the coefficients computed in Fraction arithmetic, term by term
    a1, a2, a3 = chi.as_tuple()
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    c21 = 2 * a1 * alpha + 3 * beta
    c12 = (a2 + a1 * a1) * alpha * alpha + 4 * a1 * alpha * beta + 3 * beta * beta
    c03 = ((a1 * a2 - a3) * alpha ** 3 + (a2 + a1 * a1) * alpha * alpha * beta
           + 2 * a1 * alpha * beta * beta + beta ** 3)
    return (Fraction(1), c21, c12, c03)


def oracle_primitive(coeffs):
    # clear the denominators, divide out the content, sign by the leading entry
    coeffs = tuple(Fraction(c) for c in coeffs)
    denom = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * denom) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    scale = Fraction(denom, g)
    if next(v for v in ints if v != 0) < 0:
        ints = [-v for v in ints]
        scale = -scale
    return tuple(ints), scale


RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       RATIONALS, RATIONALS)
def test_p_bar_matches_fraction_oracle(a1, a2, a3, alpha, beta):
    chi = CharCubic(a1, a2, a3)
    f = p_bar(chi, alpha, beta)
    want = oracle_p_bar(chi, alpha, beta)
    assert f.as_tuple() == want
    assert all(type(c) is Fraction for c in f.as_tuple())
    prim, scale = f.primitive()
    assert (prim, scale) == oracle_primitive(want)
    assert tuple(scale * c for c in want) == prim


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=10, max_size=10).filter(any))
def test_ternary_primitive_matches_fraction_oracle(coeffs):
    assert TernaryCubicForm(tuple(coeffs)).primitive() == oracle_primitive(coeffs)


def test_binary_cubic_primitive_sign_and_scale():
    f = BinaryCubicForm(Fraction(-2, 3), Fraction(4), Fraction(0), Fraction(-8, 3))
    prim, scale = f.primitive()
    assert prim == (1, -6, 0, 4)
    assert scale == Fraction(-3, 2)
    assert tuple(scale * c for c in f.as_tuple()) == prim


# ---------------------------------------------------------------- brackets

def test_bracket_antisymmetry_and_diagonal():
    rng = random.Random(13)
    pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    for _ in range(50):
        a, b = rand_mat(rng), rand_mat(rng)
        ij, kl = rng.choice(pairs), rng.choice(pairs)
        assert bracket(a, b, ij, kl) == -bracket(a, b, kl, ij)
        assert bracket(a, a, ij, kl) == 0
        assert bracket(a, b, ij, ij) == 0


def test_bracket_index_validation():
    with pytest.raises(ValueError):
        bracket(A42, A42, (0, 1), (1, 2))


def test_p_tilde_vanishes_on_equal_arguments_and_is_antisymmetric():
    rng = random.Random(17)
    for _ in range(50):
        a, b = rand_mat(rng), rand_mat(rng)
        assert p_tilde(a, a).is_zero()
        pab, pba = p_tilde(a, b), p_tilde(b, a)
        assert pab.coeffs == tuple(-c for c in pba.coeffs)


def test_p_tilde_additive_in_each_argument():
    rng = random.Random(19)
    for _ in range(50):
        a, b1, b2 = rand_mat(rng), rand_mat(rng), rand_mat(rng)
        left = p_tilde(a, b1 + b2).coeffs
        right = tuple(x + y for x, y in zip(p_tilde(a, b1).coeffs,
                                            p_tilde(a, b2).coeffs))
        assert left == right


def test_adjugate_bracket_diagonal_identity():
    # <12,21>, <23,32>, <31,13> agree on (A, adj A): each equals the
    # difference of the two cyclic determinant terms of A
    rng = random.Random(23)
    for _ in range(200):
        a = rand_mat(rng)
        b = adjugate(a)
        v1 = bracket(a, b, (1, 2), (2, 1))
        v2 = bracket(a, b, (2, 3), (3, 2))
        v3 = bracket(a, b, (3, 1), (1, 3))
        assert v1 == v2 == v3
        r = a.rows
        expect = (r[0][1] * r[1][2] * r[2][0] - r[0][2] * r[1][0] * r[2][1])
        assert v1 == expect


def test_p_tilde_table_matches_hand_transcription():
    # independently written-out coefficient groups, one per monomial
    literal = {
        "x3": [((1, 2), (1, 3), 1)],
        "y3": [((2, 3), (2, 1), 1)],
        "z3": [((3, 1), (3, 2), 1)],
        "x2y": [((1, 3), (1, 1), 1), ((2, 2), (1, 3), 1), ((1, 2), (2, 3), 1)],
        "xy2": [((2, 2), (2, 3), 1), ((2, 3), (1, 1), 1), ((1, 3), (2, 1), 1)],
        "x2z": [((1, 2), (3, 3), 1), ((1, 1), (1, 2), 1), ((3, 2), (1, 3), 1)],
        "xz2": [((3, 2), (3, 3), 1), ((1, 1), (3, 2), 1), ((3, 1), (1, 2), 1)],
        "y2z": [((2, 1), (2, 2), 1), ((3, 3), (2, 1), 1), ((2, 3), (3, 1), 1)],
        "yz2": [((3, 1), (2, 2), 1), ((3, 3), (3, 1), 1), ((2, 1), (3, 2), 1)],
        "xyz": [((1, 1), (2, 2), 1), ((2, 2), (3, 3), 1), ((3, 3), (1, 1), 1),
                ((1, 3), (3, 1), 3)],
    }
    assert set(P_TILDE_TABLE) == set(literal) == set(MONOMIALS)
    for name in MONOMIALS:
        assert sorted(P_TILDE_TABLE[name]) == sorted(literal[name]), name


def test_ternary_coeff_lookup_and_evaluate():
    f = TernaryCubicForm(tuple(range(1, 11)))
    assert f.coeff("x3") == 1
    assert f.coeff("xyz") == 10
    # x=1, y=0, z=0 picks out the x3 coefficient
    assert f.evaluate(1, 0, 0) == 1
    assert f.evaluate(0, 1, 0) == 2
    assert f.evaluate(0, 0, 1) == 3
    assert f.evaluate(1, 1, 1) == sum(range(1, 11))


# ---------------------------------------------------------------- golden product

F2_DISPLAY = (4, -14, 49, 56, 0, 784, 392, -196, 0, 42)


def test_p_tilde_golden_counterexample():
    raw = p_tilde(A42, adjugate(A42))
    assert raw.coeffs == tuple(2 * c for c in F2_DISPLAY)
    prim, scale = raw.primitive()
    assert prim == F2_DISPLAY
    assert scale == Fraction(1, 2)


def test_q3_golden_product_and_scaling():
    pf = q3(A42, basis=basis_from_pair(A42, A42, b42()))
    assert pf.mn_primitive == (2, -28, 0, 7)
    assert pf.mn_scale == 2
    assert pf.xyz_primitive == F2_DISPLAY
    assert pf.xyz_scale == Fraction(1, 2)
    assert pf.scaling_product == 1
    assert pf.content == 1
    # the unscaled product equals the displayed product exactly
    # (global sign +1): compare all pairwise coefficient products
    f1 = (2, -28, 0, 7)
    for i, cm in enumerate(pf.cubic_mn.as_tuple()):
        for j, cx in enumerate(pf.cubic_xyz.coeffs):
            assert cm * cx == Fraction(f1[i] * F2_DISPLAY[j]), (i, j)


def test_q3_canonical_basis_agrees_with_supplied_basis_up_to_unit_values():
    # different bases can change the factors, but unit solvability is a
    # property of the matrix; here just check both products are integral
    # and evaluation runs exactly over a sample grid
    pf1 = q3(A42)
    pf2 = q3(A42, basis=basis_from_pair(A42, A42, b42()))
    for pf in (pf1, pf2):
        assert pf.content >= 1
    vals1 = sorted(abs(pf1.evaluate(x, y, z, m, n)) == 1
                   for x in range(-2, 3) for y in range(-2, 3)
                   for z in range(-2, 3) for m in range(-2, 3)
                   for n in range(-2, 3))
    assert vals1  # smoke: evaluation runs exactly over the grid


def test_product_form_integrality_guard():
    bad = BinaryCubicForm(Fraction(1), Fraction(1, 3), Fraction(0), Fraction(0))
    tern = TernaryCubicForm((1, 0, 0, 0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(IntegralityError):
        product_form(bad, tern)
    with pytest.raises(IntegralityError):
        product_form(bad, TernaryCubicForm((0,) * 10))


def test_q3_integral_over_small_census():
    mats = matrices_in_class(3, 4, ("M", "H"))
    assert len(mats) == 240
    for m in mats:
        assert q3(m).content >= 1
