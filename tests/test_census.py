import importlib
from itertools import combinations

import numpy as np
import pytest

from cf3.census import (
    DEFAULT_NORM_CAP,
    MAX_NORM,
    TAGS,
    census,
    census_records,
    classify_matrix,
    matrices_in_class,
    matrix_from_flat,
    sphere_size,
)
from cf3.intmat import IntMat, char_cubic, char_quad, is_hyperbolic, is_irreducible, matrix_norm

census_module = importlib.import_module("cf3.census")  # cf3.census is shadowed by census()


def vectors_with_norm(length, n):
    """All integer vectors of the given L1 norm, read from the array sphere."""
    return map(tuple, census_module._sphere(length, n).tolist())


def enumerate_norm(dim, n):
    """Every dim x dim integer matrix of norm exactly n, read from the array
    sphere."""
    return map(matrix_from_flat, census_module._matrix_sphere(dim, n).tolist())


def oracle_vectors_with_norm(length, n):
    """The recursive generator the array sphere replaced, kept as the
    reference for its order."""
    if length == 1:
        if n == 0:
            yield (0,)
        else:
            yield (-n,)
            yield (n,)
        return
    for v in [0] + [s * a for a in range(1, n + 1) for s in (-1, 1)]:
        for rest in oracle_vectors_with_norm(length - 1, n - abs(v)):
            yield (v,) + rest


def oracle_tag(m):
    if not is_irreducible(m):
        return "reducible"
    return "H" if is_hyperbolic(m) else "M"


def test_sphere_sizes_small():
    assert sphere_size(9, 0) == 1
    assert sphere_size(9, 1) == 18
    assert sphere_size(9, 6) == 53154


def test_enumeration_matches_closed_form_and_is_duplicate_free():
    for n in range(0, 5):
        vecs = list(vectors_with_norm(4, n))
        assert len(vecs) == sphere_size(4, n)
        assert len(set(vecs)) == len(vecs)
        assert all(sum(abs(x) for x in v) == n for v in vecs)
    vecs9 = list(vectors_with_norm(9, 4))
    assert len(vecs9) == sphere_size(9, 4)
    assert len(set(vecs9)) == len(vecs9)


def test_enumeration_matches_the_recursive_generator():
    for length, norms in ((1, range(4)), (2, range(6)), (4, range(9)), (9, range(6))):
        for n in norms:
            assert list(vectors_with_norm(length, n)) == list(oracle_vectors_with_norm(length, n))


@pytest.mark.parametrize("dim, n", [(2, n) for n in range(9)] + [(3, n) for n in range(7)])
def test_matrices_in_class_matches_the_generator_filter(dim, n):
    tagged = [(m, oracle_tag(m))
              for m in map(matrix_from_flat, oracle_vectors_with_norm(dim * dim, n))]
    for size in range(1, len(TAGS) + 1):
        for tags in combinations(TAGS, size):
            assert matrices_in_class(dim, n, tags) == [m for m, tag in tagged if tag in tags]


def test_norm_beyond_the_int8_sphere_raises_before_enumerating(monkeypatch):
    def refuse(cap):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(census_module, "_entry_values", refuse)
    with pytest.raises(AssertionError):
        census(2)
    n = MAX_NORM + 1
    for call in (lambda: census(n, cap=n), lambda: matrices_in_class(3, n, ("H",)),
                 lambda: vectors_with_norm(9, n), lambda: enumerate_norm(2, n),
                 lambda: next(census_records(3, n))):
        with pytest.raises(ValueError, match="int8 sphere"):
            call()


def test_int32_characteristic_columns_at_the_largest_norm():
    # extreme rows of norm MAX_NORM, where int8 entries and int32 products
    # are closest to their bounds
    cubics = [[43, -42, 42, 0, 0, 0, 0, 0, 0], [-42, 0, 0, 0, 43, 0, 0, 0, -42],
              [0, 0, 127, 0, 0, 0, 0, 0, 0], [0, -64, 0, 0, 0, 63, 0, 0, 0],
              [14] * 8 + [15], [-14, 14, -14, 14, -15, 14, -14, 14, -14]]
    quads = [[127, 0, 0, 0], [64, 0, 0, -63], [-32, 32, -32, 31], [0, -64, 63, 0]]
    for flats, poly in ((cubics, lambda m: char_cubic(m).as_tuple()),
                        (quads, lambda m: (char_quad(m).t, char_quad(m).d))):
        columns = census_module._char_columns(np.array(flats, dtype=np.int8))
        for row, flat in enumerate(flats):
            assert sum(map(abs, flat)) == MAX_NORM
            assert tuple(int(col[row]) for col in columns) == poly(matrix_from_flat(flat))


def test_enumeration_order_is_canonical():
    # lexicographic with value order 0 < -1 < 1 < -2 < 2 within each entry
    vecs = list(vectors_with_norm(2, 2))
    assert vecs == [
        (0, -2), (0, 2),
        (-1, -1), (-1, 1),
        (1, -1), (1, 1),
        (-2, 0), (2, 0),
    ]


def test_enumerate_norm_yields_matrices_of_that_norm():
    for n in (0, 1, 3):
        for m in enumerate_norm(3, n):
            assert matrix_norm(m) == n
    assert len(list(enumerate_norm(3, 1))) == 18


def test_classify_examples():
    assert classify_matrix(IntMat.identity(3)) == "reducible"
    m031 = IntMat([[0, 1, 0], [0, 0, 1], [1, 3, 0]])
    assert classify_matrix(m031) == "H"
    # irreducible with one real and two complex eigenvalues
    m = IntMat([[0, 1, 0], [0, 0, 1], [2, 0, 0]])
    assert char_cubic(m).is_irreducible()
    assert char_cubic(m).discriminant() < 0
    assert classify_matrix(m) == "M"


def test_census_counts_norms_up_to_six():
    for n in range(0, 4):
        assert census(n).count_m == 0
    r4 = census(4)
    assert (r4.count_m, r4.count_h) == (240, 0)
    r5 = census(5)
    assert (r5.count_m, r5.count_h) == (1248, 48)
    r6 = census(6)
    assert (r6.count_m, r6.count_h) == (8112, 912)
    assert r6.total == 53154


def test_census_transpose_invariance():
    for n in (4, 5):
        cm = ch = 0
        for m, _tag in census_records(3, n):
            tag = classify_matrix(m.transpose())
            if tag != "reducible":
                cm += 1
                if tag == "H":
                    ch += 1
        r = census(n)
        assert (cm, ch) == (r.count_m, r.count_h)


def test_census_cap():
    with pytest.raises(ValueError):
        census(DEFAULT_NORM_CAP + 1)
    # explicit cap raise is honored (tiny norm keeps this cheap)
    assert census(2, cap=99).count_m == 0


def test_census_dim2():
    r = census(3, dim=2)
    assert r.total == sphere_size(4, 3)
    assert r.count_m > 0
