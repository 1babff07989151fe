import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cf3.zlinalg import (
    coords_in_basis,
    hnf_basis,
    hnf_with_transform,
    identity_rows,
    inverse_unimodular,
    left_kernel,
    right_kernel,
    solve_unique,
    transpose_rows,
    xgcd,
)


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def test_xgcd_exhaustive_small():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g == gcd(a, b)
            assert a * x + b * y == g


def random_rows(rng, n, m, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_hnf_transform_properties():
    rng = random.Random(3)
    for _ in range(200):
        rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
        h, u, rank = hnf_with_transform(rows)
        assert mat_mul(u, rows) == h
        assert mat_mul(u, inverse_unimodular(u)) == identity_rows(len(u))
        assert all(all(x == 0 for x in h[i]) for i in range(rank, len(h)))
        # pivots positive, entries above reduced into [0, pivot)
        for i in range(rank):
            c = next(j for j, x in enumerate(h[i]) if x != 0)
            assert h[i][c] > 0
            for k in range(i):
                assert 0 <= h[k][c] < h[i][c]


def test_hnf_canonical_for_lattice():
    # different generating sets of the same lattice give the same basis
    rng = random.Random(4)
    for _ in range(100):
        rows = random_rows(rng, 3, 4)
        basis = hnf_basis(rows)
        shuffled = rows[::-1] + [
            [rows[0][j] + 2 * rows[1][j] for j in range(4)],
        ]
        assert hnf_basis(shuffled) == basis
        assert hnf_basis(rows[::-1]) == basis


def test_kernels():
    rows = [[1, 2, 3], [2, 4, 6]]
    lk = left_kernel(rows)
    assert len(lk) == 1
    assert mat_vec(transpose_rows(rows), lk[0]) == [0, 0, 0] or mat_mul([lk[0]], rows) == [[0, 0, 0]]
    rk = right_kernel(rows)
    assert len(rk) == 2
    for v in rk:
        assert mat_vec(rows, v) == [0, 0]


def test_right_kernel_saturated():
    # kernel of [2, 4] over Z is generated by (2, -1), not (4, -2)
    rk = right_kernel([[2, 4]])
    assert len(rk) == 1
    v = rk[0]
    assert gcd(v[0], v[1]) == 1
    assert 2 * v[0] + 4 * v[1] == 0


def test_kernel_random_property():
    rng = random.Random(5)
    for _ in range(100):
        rows = random_rows(rng, rng.randint(1, 4), rng.randint(1, 4))
        for v in right_kernel(rows):
            assert all(x == 0 for x in mat_vec(rows, v))
        for u in left_kernel(rows):
            assert mat_mul([u], rows) == [[0] * len(rows[0])]


def test_solve_unique():
    x = solve_unique([[2, 0], [0, 3], [2, 3]], [4, 9, 13])
    assert x == [Fraction(2), Fraction(3)]
    assert solve_unique([[2, 0], [0, 3], [2, 3]], [4, 9, 14]) is None
    with pytest.raises(ValueError):
        solve_unique([[1, 2], [2, 4], [3, 6]], [1, 2, 3])
    # dependent columns and an inconsistent right-hand side
    with pytest.raises(ValueError):
        solve_unique([[1, 2], [2, 4], [3, 6]], [1, 2, 4])


def test_solve_unique_fractions():
    x = solve_unique([[2]], [1])
    assert x == [Fraction(1, 2)]
    assert solve_unique([[2, 0], [0, -3], [2, 3]], [1, 1, 0]) == [Fraction(1, 2), Fraction(-1, 3)]


@st.composite
def full_rank_systems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(3, 9))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=m, max_size=m))
    assume(len(hnf_basis(a)) == n)
    y = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    d = draw(st.integers(-12, 12).filter(bool))
    return a, y, d


@settings(deadline=None)
@given(full_rank_systems())
def test_solve_unique_recovers_scaled_solution(system):
    # (d*A) x = A y has the unique solution x = y / d
    a, y, d = system
    scaled = [[d * x for x in row] for row in a]
    assert solve_unique(scaled, mat_vec(a, y)) == [Fraction(v, d) for v in y]


def test_inverse_unimodular():
    rng = random.Random(6)
    for _ in range(50):
        # random unimodular matrix as a product of elementary row operations
        n = rng.randint(2, 4)
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            for k in range(n):
                m[i][k] += c * m[j][k]
        inv = inverse_unimodular(m)
        assert mat_mul(m, inv) == [[int(i == j) for j in range(n)] for i in range(n)]
    for singular_or_det2 in ([[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        with pytest.raises(AssertionError, match="not unimodular"):
            inverse_unimodular(singular_or_det2)


def test_coords_in_basis():
    basis = [[1, 0, 0, 0], [0, 2, 0, 0]]
    assert coords_in_basis(basis, [3, 4, 0, 0]) == [Fraction(3), Fraction(2)]
    assert coords_in_basis(basis, [0, 1, 1, 0]) is None


def rational_coords(basis_rows, v):
    """Reference: coordinates over Q by the rational solve, or None."""
    return solve_unique(transpose_rows(basis_rows), v)


@st.composite
def echelon_bases(draw):
    m = draw(st.integers(1, 4))
    row = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    basis = hnf_basis(draw(st.lists(row, min_size=1, max_size=5)))
    assume(basis)
    return basis


@settings(derandomize=True, deadline=None)
@given(echelon_bases(), st.data())
def test_coords_in_basis_integer_and_rational_oracle(basis, data):
    k, m = len(basis), len(basis[0])
    x = data.draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k))
    coords = coords_in_basis(basis, mat_vec(transpose_rows(basis), x))
    assert coords == x and all(type(c) is int for c in coords)
    v = data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
    want = rational_coords(basis, v)
    if want is None or any(f.denominator != 1 for f in want):
        assert coords_in_basis(basis, v) is None
    else:
        assert coords_in_basis(basis, v) == want
