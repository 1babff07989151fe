import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cf3 import commutant
from cf3.commutant import (
    CommutantError,
    basis_from_pair,
    commutant_basis,
    commutant_lattice,
    express_in_powers,
    normalize_basis,
    power_basis_index,
)
from cf3.intmat import IntMat, is_irreducible, matrix_norm, parse_matrix
from cf3.zlinalg import (hnf_basis, hnf_with_transform, inverse_unimodular, right_kernel,
                         solve_unique, transpose_rows)

GOLDEN = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])
A42 = IntMat([[1, 2, 0], [0, 1, 2], [-7, 0, 29]])
E3 = IntMat.identity(3)
# norm 4,790: its basis has entries near 6e8 and |det A| near 1e17
A4790 = parse_matrix("175,-490,-974;497,-557,-165;-428,-628,876")


def kernel_lattice(c):
    """Reference: the Hermite basis of the integer kernel of X -> XC - CX,
    from the 9x9 commutator equations."""
    rows = c.rows
    eqs = [[(rows[q][j] if p == i else 0) - (rows[i][p] if q == j else 0)
            for p in range(3) for q in range(3)]
           for i in range(3) for j in range(3)]
    kernel = right_kernel(eqs)
    assert len(kernel) == 3
    return [IntMat([v[0:3], v[3:6], v[6:9]]) for v in hnf_basis(kernel)]


def b_paper():
    # (A^2 - 30 A + 29 E) / 2, which is integral for the counterexample
    num = A42 @ A42 - 30 * A42 + 29 * E3
    assert all(x % 2 == 0 for x in num.flat())
    return IntMat([[x // 2 for x in row] for row in num.rows])


def lattice_vectors(lattice):
    return [list(m.flat()) for m in lattice]


def test_golden_lattice_is_power_basis():
    lat = commutant_lattice(GOLDEN)
    assert len(lat) == 3
    assert power_basis_index(GOLDEN, lat) == 1
    nb = commutant_basis(GOLDEN)
    assert nb.a == GOLDEN
    assert nb.b == GOLDEN @ GOLDEN
    assert (nb.alpha, nb.beta, nb.gamma) == (1, 0, 0)


def test_counterexample_lattice_contains_paper_b():
    lat = commutant_lattice(A42)
    assert len(lat) == 3
    vecs = lattice_vectors(lat)
    from cf3.zlinalg import coords_in_basis
    coords = coords_in_basis(vecs, list(b_paper().flat()))
    assert coords is not None
    assert all(f.denominator == 1 for f in coords)


def test_counterexample_power_coefficients():
    alpha, beta, gamma = express_in_powers(A42, b_paper())
    assert (alpha, beta, gamma) == (Fraction(1, 2), Fraction(-15), Fraction(29, 2))


def test_express_in_powers_trivials():
    assert express_in_powers(A42, A42) == (0, 1, 0)
    assert express_in_powers(A42, E3) == (0, 0, 1)
    with pytest.raises(CommutantError):
        express_in_powers(A42, IntMat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_reducible_is_rejected():
    with pytest.raises(CommutantError):
        commutant_lattice(E3)


def random_irreducible(rng, max_norm=8):
    while True:
        m = IntMat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if matrix_norm(m) <= max_norm and is_irreducible(m):
            return m


def test_commutant_property_random():
    rng = random.Random(8)
    seen = 0
    indexes = set()
    while seen < 200:
        c = random_irreducible(rng)
        seen += 1
        lat = commutant_lattice(c)
        assert lat == kernel_lattice(c)
        for x in lat:
            assert x @ c == c @ x
        nb = normalize_basis(lat, c)
        assert nb.members()[0] == E3
        for x in (nb.a, nb.b):
            assert x @ c == c @ x
        # round trip of the power expression is exact
        expected = tuple(tuple(Fraction(x) for x in row) for row in nb.b.rows)
        assert nb.reconstruct_b() == expected
        indexes.add(power_basis_index(c, lat))
    assert 1 in indexes
    assert all(i >= 1 for i in indexes)
    # the power basis is not always the whole lattice
    assert any(i > 1 for i in indexes)


def test_normalize_is_basis_independent():
    rng = random.Random(9)
    for _ in range(40):
        c = random_irreducible(rng)
        lat = commutant_lattice(c)
        nb = normalize_basis(lat, c)
        # re-mix the raw basis unimodularly and re-normalize
        e, f, g = lat
        remix = [f, e + 2 * g, g]
        assert hnf_basis(lattice_vectors(remix)) == hnf_basis(lattice_vectors(lat))
        nb2 = normalize_basis(remix, c)
        assert (nb2.a, nb2.b) == (nb.a, nb.b)
        assert (nb2.alpha, nb2.beta, nb2.gamma) == (nb.alpha, nb.beta, nb.gamma)


def test_normalize_span_equals_input_span():
    rng = random.Random(10)
    for _ in range(40):
        c = random_irreducible(rng)
        lat = commutant_lattice(c)
        nb = normalize_basis(lat, c)
        assert hnf_basis(lattice_vectors(lat)) == hnf_basis(lattice_vectors(list(nb.members())))


def test_normalize_accepts_redundant_first_vector():
    # raw basis whose first vector is 2E + C still normalizes to contain E
    lat = commutant_lattice(GOLDEN)
    raw = [2 * E3 + GOLDEN, E3 + GOLDEN, GOLDEN @ GOLDEN]
    assert hnf_basis(lattice_vectors(raw)) == hnf_basis(lattice_vectors(lat))
    nb = normalize_basis(raw, GOLDEN)
    assert nb.members()[0] == E3
    assert (nb.a, nb.b) == (GOLDEN, GOLDEN @ GOLDEN)


def test_basis_from_pair_checks_commutation():
    with pytest.raises(CommutantError):
        basis_from_pair(A42, GOLDEN, E3)
    nb = basis_from_pair(A42, A42, b_paper())
    assert (nb.alpha, nb.beta, nb.gamma) == (Fraction(1, 2), Fraction(-15), Fraction(29, 2))


def test_power_coefficients_are_solved_on_first_read(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(1)
        return express_in_powers(a, b)

    monkeypatch.setattr(commutant, "express_in_powers", counting)
    nb = commutant_basis(A42)
    assert calls == []
    assert (nb.alpha, nb.beta, nb.gamma) == (Fraction(1, 2), 0, 0)
    nb.gamma
    assert calls == [1]
    # an explicit pair is still checked when it is built: E commutes with C,
    # but its powers do not span Q[C]
    with pytest.raises(CommutantError):
        basis_from_pair(A42, E3, A42)
    assert calls == [1, 1]


def test_express_in_powers_is_exact_cramer():
    # D = 0: e1 is an eigenvector of A, so E, A, A^2 span at most a plane
    with pytest.raises(CommutantError):
        express_in_powers(IntMat([[2, 1, 0], [0, 3, 1], [0, 1, 5]]), E3)
    # D != 0 but B agrees with a polynomial in A on the first column only
    a = IntMat([[0, 0, 1], [1, 0, 2], [0, 1, -3]])
    with pytest.raises(CommutantError):
        express_in_powers(a, a @ a + IntMat([[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    assert express_in_powers(a, 3 * (a @ a) - a + 2 * E3) == (3, -1, 2)


def test_large_entry_matrix_matches_kernel_oracle():
    nb = commutant_basis(A4790)
    assert nb == normalize_basis(kernel_lattice(A4790), A4790)
    assert commutant_lattice(A4790) == kernel_lattice(A4790)
    assert nb.a.rows[0] == (0, 2, 73391642)


def test_large_entry_matrix_powers():
    nb = commutant_basis(A4790)
    assert (nb.alpha, nb.beta, nb.gamma) == (
        Fraction(-1, 127783830266478), Fraction(539776462874800, 63891915133239),
        Fraction(172599966113119, 7099101681471))
    assert nb.reconstruct_b() == tuple(tuple(Fraction(x) for x in row) for row in nb.b.rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=9, max_size=9))
def test_closed_form_basis_matches_kernel_oracle(entries):
    c = IntMat([entries[0:3], entries[3:6], entries[6:9]])
    assume(is_irreducible(c))
    nb = commutant_basis(c)
    assert nb == normalize_basis(kernel_lattice(c), c)
    assert nb.reconstruct_b() == tuple(tuple(Fraction(x) for x in row) for row in nb.b.rows)


def unimodular_with_first_row(v):
    """Reference: some unimodular integer matrix whose first row is the primitive v."""
    h, u, rank = hnf_with_transform([[x] for x in v])
    assert rank == 1 and h[0][0] == 1, "vector must be primitive"
    w = transpose_rows(inverse_unimodular(u))
    assert w[0] == list(v)
    return w


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def completion_pair(raw):
    """Reference (A, B): complete E's rational coordinates in ``raw`` to a
    unimodular matrix, re-base, and Hermite-reduce the rest modulo Z*E."""
    vecs = [list(m.flat()) for m in raw]
    e_flat = list(E3.flat())
    coords = solve_unique(transpose_rows(vecs), e_flat)
    assert all(f.denominator == 1 for f in coords)
    new = mat_mul(unimodular_with_first_row([int(f) for f in coords]), vecs)
    assert new[0] == e_flat
    h = hnf_basis([[row[t] - row[0] * e_flat[t] for t in range(9)] for row in new[1:]])
    return tuple(IntMat([v[0:3], v[3:6], v[6:9]]) for v in h)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(-3, 3)),
                max_size=8),
       st.permutations(range(3)), st.lists(st.sampled_from((1, -1)), min_size=3, max_size=3))
def test_normalize_basis_matches_unimodular_completion(seed, moves, order, signs):
    """Any unimodular remix of the lattice basis normalizes to the pair the
    unimodular-completion route reaches."""
    c = random_irreducible(random.Random(seed))
    rows = [s * m for s, m in zip(signs, (kernel_lattice(c)[i] for i in order))]
    for i, shift, k in moves:
        j = (i + shift) % 3
        rows[i] = rows[i] + k * rows[j]
    nb, canonical = normalize_basis(rows, c), commutant_basis(c)
    assert (nb.a, nb.b) == completion_pair(rows) == (canonical.a, canonical.b)
