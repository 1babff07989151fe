import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cf3.intmat import (
    CharCubic,
    IntMat,
    adjugate,
    char_cubic,
    char_quad,
    format_matrix,
    is_hyperbolic,
    is_irreducible,
    is_square,
    matrix_norm,
    parse_matrix,
)

A42 = IntMat([[1, 2, 0], [0, 1, 2], [-7, 0, 29]])
E3 = IntMat.identity(3)


def random_intmat(rng, k=3, lo=-9, hi=9):
    return IntMat([[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)])


def test_char_cubic_identity():
    assert char_cubic(E3).as_tuple() == (3, 3, 1)


def test_char_cubic_a42():
    c = char_cubic(A42)
    assert c.as_tuple() == (31, 59, 1)
    assert A42.det() == 1


def test_char_cubic_companion_bottom_row():
    m = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])
    assert char_cubic(m).as_tuple() == (-1, -2, 1)


def test_char_cubic_matches_det_at_small_points():
    rng = random.Random(0)
    for _ in range(300):
        m = random_intmat(rng)
        c = char_cubic(m)
        assert c.evaluate(0) == m.det()
        for x in (1, -1, 2):
            assert c.evaluate(x) == (m - x * E3).det()


def test_adjugate_identity_and_diagonal():
    assert adjugate(E3) == E3
    d = IntMat([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert adjugate(d) == IntMat([[15, 0, 0], [0, 10, 0], [0, 0, 6]])


def test_adjugate_counterexample_is_inverse():
    assert A42 @ adjugate(A42) == E3


def test_adjugate_product_identity_random():
    rng = random.Random(1)
    for _ in range(1000):
        k = rng.choice((2, 3))
        m = random_intmat(rng, k=k)
        adj = adjugate(m)
        d = m.det()
        de = d * IntMat.identity(k)
        assert m @ adj == de
        assert adj @ m == de


def cofactor_adjugate(m):
    """Reference: entry (i, j) is the (j, i) cofactor, from 2x2 minors."""
    r = m.rows

    def cof(i, j):
        ri = [a for a in range(3) if a != i]
        cj = [b for b in range(3) if b != j]
        minor = r[ri[0]][cj[0]] * r[ri[1]][cj[1]] - r[ri[0]][cj[1]] * r[ri[1]][cj[0]]
        return minor if (i + j) % 2 == 0 else -minor

    return IntMat(tuple(tuple(cof(j, i) for j in range(3)) for i in range(3)))


def test_adjugate_matches_cofactors():
    rng = random.Random(3)
    for _ in range(300):
        m = random_intmat(rng, lo=-2, hi=2)
        assert adjugate(m) == cofactor_adjugate(m)


def divisor_roots(c):
    """Reference: the integer roots of chi, by trial over the divisors of a3."""
    n = abs(c.a3)
    return [r for d in range(1, n + 1) if n % d == 0 for r in (d, -d) if c.evaluate(r) == 0]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-60, 60),
       st.integers(-3000, 3000))
def test_rational_root_matches_divisor_trial(r, u, v, a3):
    # chi with the root r (chi = -(x - r)(x^2 + u x + v)), and a free cubic
    for c in (CharCubic(r - u, v - r * u, r * v), CharCubic(r, u, a3)):
        assert c.has_rational_root() == (c.a3 == 0 or bool(divisor_roots(c)))


def test_rational_root_near_10_to_12():
    for r in (10 ** 12 + 39, -(10 ** 12) + 7, 999_999_999_989):
        for u, v in ((0, 1), (3, -2), (-5, 7), (1, 1), (-2 * r - 1, r * r + r)):
            assert CharCubic(r - u, v - r * u, r * v).has_rational_root()
    for t in (10 ** 12, -(10 ** 12) + 3):
        # (x - t)^3 - 2 has no integer root; (x - t)^3 - 8 has t + 2
        assert not CharCubic(3 * t, 3 * t * t, t ** 3 + 2).has_rational_root()
        assert CharCubic(3 * t, 3 * t * t, t ** 3 + 8).has_rational_root()


def test_irreducible_with_large_determinant():
    m = parse_matrix("912345,-404321,77777;-123457,654321,-999983;271828,-314159,161803")
    c = char_cubic(m)
    # no root mod 7 rules out an integer root independently
    assert all(c.evaluate(x) % 7 for x in range(7))
    assert is_irreducible(m)


def test_irreducibility_examples():
    assert not is_irreducible(E3)
    assert is_irreducible(IntMat([[0, 2], [1, 0]]))
    assert is_irreducible(A42)
    # x^3: rational root 0
    assert not is_irreducible(IntMat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))


def test_hyperbolic_examples():
    assert not is_hyperbolic(E3)
    golden = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])
    assert char_cubic(golden).discriminant() == 49
    assert is_hyperbolic(golden)
    rot = IntMat([[0, -1, 0], [1, 0, 0], [0, 0, 2]])
    assert not is_hyperbolic(rot)
    assert is_hyperbolic(IntMat([[0, 1], [1, 1]]))
    assert not is_hyperbolic(IntMat([[0, -1], [1, 0]]))


def test_hyperbolic_implies_irreducible():
    rng = random.Random(2)
    for _ in range(500):
        m = random_intmat(rng, k=rng.choice((2, 3)), lo=-3, hi=3)
        if is_hyperbolic(m):
            assert is_irreducible(m)


def test_matrix_norm():
    assert matrix_norm(IntMat.zero(3)) == 0
    assert matrix_norm(A42) == 42
    assert matrix_norm(IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])) == 6


def test_norm_not_conjugation_invariant():
    p = IntMat([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    padj = adjugate(p)
    m = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])
    assert matrix_norm(p @ m @ padj) != matrix_norm(m)


def test_parse_and_format_round_trip():
    text = "1,2,0;0,1,2;-7,0,29"
    assert parse_matrix(text) == A42
    assert format_matrix(A42) == text
    assert parse_matrix("0,1;1,1") == IntMat([[0, 1], [1, 1]])


def test_parse_rejects_bad_input():
    for bad in ("1,2;3", "1,2,3;4,5,6", "a,b;c,d", "1", "1,2,3,4;5,6,7,8;1,1,1,1;2,2,2,2"):
        with pytest.raises(ValueError):
            parse_matrix(bad)


def test_matmul_pow_and_ops():
    c = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])
    assert c ** 0 == E3
    assert c ** 1 == c
    assert c ** 3 == c @ c @ c
    assert (c + c) == 2 * c
    assert c - c == IntMat.zero(3)
    assert (-c) + c == IntMat.zero(3)
    assert c.apply((0, 0, 1)) == (0, 1, -1)


def test_char_quad():
    q = char_quad(IntMat([[0, 1], [1, 1]]))
    assert (q.t, q.d) == (1, -1)
    assert q.discriminant() == 5
    assert q.is_irreducible()
    assert not char_quad(IntMat([[1, 0], [0, 2]])).is_irreducible()


def test_cubic_discriminant_formula_against_roots():
    # (x - r1)(x - r2)(x - r3) with distinct integer roots has discriminant
    # prod (ri - rj)^2 over i < j
    for roots in ((0, 1, 2), (-1, 1, 3), (-2, 0, 5), (1, 2, 4)):
        r1, r2, r3 = roots
        a1 = r1 + r2 + r3
        a2 = r1 * r2 + r1 * r3 + r2 * r3
        a3 = r1 * r2 * r3
        c = CharCubic(a1, a2, a3)
        expected = ((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2
        assert c.discriminant() == expected
        assert not c.is_irreducible()


def test_is_square():
    squares = {n * n for n in range(50)}
    for n in range(-10, 2500):
        assert is_square(n) == (n in squares)
