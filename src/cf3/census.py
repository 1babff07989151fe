"""Enumerate integer matrices by entry norm and count irreducible/hyperbolic ones.

The norm of a matrix is the sum of the absolute values of its entries, so
enumerating matrices of norm n means walking the L1 sphere of radius n in
Z^(k*k).  The sphere is built as one int8 array whose rows are in
lexicographic order with the per-entry value order 0, -1, 1, -2, 2, ...
(negatives before positives at equal absolute value), which keeps streams
reproducible for golden tests.  Every enumerating function reads that array.

A matrix is counted as irreducible ("M") when its characteristic polynomial
has no rational root, and as hyperbolic ("H") when additionally all
eigenvalues are real; irreducibility forces them distinct.  The coefficients
(t, d) or (a1, a2, a3) are computed for all rows at once in int32 columns,
and the exact ``CharQuad``/``CharCubic`` tests run once per distinct
polynomial: the norm-6 sphere in Z^9 has 53,154 points but 397 polynomials.
An ``IntMat`` is built only for a row a caller keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .intmat import CharCubic, CharQuad, IntMat, char_cubic, char_quad

DEFAULT_NORM_CAP = 7

REDUCIBLE = "reducible"
M_ONLY = "M"
HYPERBOLIC = "H"
TAGS = (REDUCIBLE, M_ONLY, HYPERBOLIC)  # indexed by tag code

# Entries are int8, so a norm is at most 127; every int32 coefficient column
# then sums at most six products of three entries, below 6 * 127^3 < 2^31.
MAX_NORM = int(np.iinfo(np.int8).max)
_CHUNK = 4096


def _entry_values(cap):
    yield 0
    for a in range(1, cap + 1):
        yield -a
        yield a


def _sphere(length, n):
    """All integer vectors of length ``length`` and L1 norm ``n``, as the
    rows of one int8 array in canonical order."""
    if not 0 <= n <= MAX_NORM:
        raise ValueError("norm must lie in 0..%d for the int8 sphere; got %d"
                         % (MAX_NORM, n))
    memo = {}

    def rows(length, r):
        if length == 1:
            return np.array([[0]] if r == 0 else [[-r], [r]], dtype=np.int8)
        if (length, r) not in memo:
            parts = []
            for v in _entry_values(r):
                rest = rows(length - 1, r - abs(v))
                parts.append(np.hstack((np.full((len(rest), 1), v, np.int8), rest)))
            memo[length, r] = np.concatenate(parts)
        return memo[length, r]

    return rows(length, n)


def sphere_size(length, n):
    """Closed-form count of integer vectors with L1 norm exactly n."""
    if n == 0:
        return 1
    return sum(comb(length, j) * comb(n - 1, j - 1) * 2 ** j
               for j in range(1, min(length, n) + 1))


def matrix_from_flat(flat):
    k = 2 if len(flat) == 4 else 3
    return IntMat(tuple(flat[i * k:(i + 1) * k] for i in range(k)))


def _matrix_sphere(dim, n):
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return _sphere(dim * dim, n)


def _tag_code(c):
    if not c.is_irreducible():
        return 0
    return 2 if c.is_real_rooted() else 1


def classify_matrix(m):
    """One of "reducible", "M" (irreducible, complex pair), "H" (hyperbolic)."""
    return TAGS[_tag_code(char_quad(m) if m.dim == 2 else char_cubic(m))]


def _char_columns(flats):
    """(t, d) or (a1, a2, a3) of each flat 2x2 or 3x3 matrix, as int32 columns."""
    x = flats.astype(np.int32)
    if x.shape[1] == 4:
        a, b, c, d = x.T
        return a + d, a * d - b * c
    a, b, c, d, e, f, g, h, i = x.T
    return (a + e + i,
            a * e - b * d + a * i - c * g + e * i - f * h,
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def _tagged_sphere(dim, n):
    """The norm-n sphere of flat dim x dim matrices and each row's tag code."""
    flats = _matrix_sphere(dim, n)
    # one exact test per distinct polynomial; the cache lives for this call
    code_of = cache(lambda key: _tag_code(CharQuad(*key) if dim == 2 else CharCubic(*key)))
    codes = np.empty(len(flats), dtype=np.int8)
    for start in range(0, len(flats), _CHUNK):
        columns = _char_columns(flats[start:start + _CHUNK])
        codes[start:start + _CHUNK] = list(map(code_of, zip(*(c.tolist() for c in columns))))
    return flats, codes


@dataclass(frozen=True)
class CensusReport:
    dim: int
    norm: int
    total: int
    count_m: int
    count_h: int

    def __post_init__(self):
        assert 0 <= self.count_h <= self.count_m <= self.total


def census(n, dim=3, cap=DEFAULT_NORM_CAP):
    """Counts of irreducible and hyperbolic matrices at norm exactly n.

    The cap guards against accidental huge runs (the norm-8 sphere in Z^9
    already has 374,274 points); raise it explicitly to go further.
    """
    if n > cap:
        raise ValueError(
            "norm %d exceeds the census cap %d; pass cap=%d (or larger) to "
            "run this size deliberately" % (n, cap, n))
    _, codes = _tagged_sphere(dim, n)
    _, m_only, hyperbolic = np.bincount(codes, minlength=len(TAGS)).tolist()
    return CensusReport(dim=dim, norm=n, total=len(codes),
                        count_m=m_only + hyperbolic, count_h=hyperbolic)


def census_records(dim, n):
    """Stream of (matrix, class tag) pairs in canonical enumeration order."""
    flats, codes = _tagged_sphere(dim, n)
    for flat, code in zip(flats.tolist(), codes.tolist()):
        yield matrix_from_flat(flat), TAGS[code]


def matrices_in_class(dim, n, tags):
    """Matrices of norm n whose class tag lies in ``tags``, canonical order."""
    flats, codes = _tagged_sphere(dim, n)
    keep = np.isin(codes, [code for code, tag in enumerate(TAGS) if tag in tags])
    return [matrix_from_flat(flat) for flat in flats[keep].tolist()]
