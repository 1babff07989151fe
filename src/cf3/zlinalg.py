"""Exact linear algebra over the integers.

Row-style Hermite reduction, carrying its unimodular transform when asked, is
the workhorse: it yields canonical lattice bases, integer kernels (automatically
saturated, because the transform is unimodular), inverses of unimodular
matrices, and the solutions of linear systems, read off an integer kernel.
Lattice coordinates are integers, by forward substitution on an echelon
basis; a Fraction appears only as the solution of a rational system.

Matrices in this module are plain lists of lists; sizes run up to 9x9 (the
intertwiner systems of 3x3 matrices), where dense exact elimination is
trivially fast.
"""

from __future__ import annotations

from fractions import Fraction


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose_rows(rows):
    return [list(col) for col in zip(*rows)]


def _echelon(rows, ncols):
    """Row Hermite reduction pivoting on the first ``ncols`` columns; row
    operations act on whole rows, so later columns ride along.  (h, rank)."""
    h = [list(map(int, r)) for r in rows]
    n = len(h)
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, n) if h[i][c] != 0), None)
        if piv is None:
            continue
        h[rank], h[piv] = h[piv], h[rank]
        for i in range(rank + 1, n):
            if h[i][c] == 0:
                continue
            a, b = h[rank][c], h[i][c]
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            # [[s, t], [-bb, aa]] has determinant (s*a + t*b)/g = 1
            h[rank], h[i] = (
                [s * x + t * y for x, y in zip(h[rank], h[i])],
                [-bb * x + aa * y for x, y in zip(h[rank], h[i])],
            )
        if h[rank][c] < 0:
            h[rank] = [-x for x in h[rank]]
        p = h[rank][c]
        for i in range(rank):
            q = h[i][c] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[rank])]
        rank += 1
    return h, rank


def hnf_with_transform(rows):
    """Row Hermite normal form with its unimodular transform.

    Returns (h, u, rank) where u is unimodular, u @ rows == h, the first
    ``rank`` rows of h are the canonical echelon basis of the row lattice
    (positive pivots, entries above each pivot reduced into [0, pivot)), and
    the remaining rows of h are zero.  u rides along as appended columns.
    """
    ncols = len(rows[0]) if rows else 0
    aug, rank = _echelon([list(r) + e for r, e in zip(rows, identity_rows(len(rows)))], ncols)
    return [r[:ncols] for r in aug], [r[ncols:] for r in aug], rank


def hnf_basis(rows):
    """Canonical basis (nonzero HNF rows) of the lattice spanned by ``rows``."""
    h, rank = _echelon(rows, len(rows[0]) if rows else 0)
    return h[:rank]


def left_kernel(rows):
    """Basis of {u integer : u @ rows == 0}; saturated by construction."""
    h, u, rank = hnf_with_transform(rows)
    return [u[i] for i in range(rank, len(rows))]


def right_kernel(rows):
    """Basis of {x integer : rows @ x == 0}."""
    return left_kernel(transpose_rows(rows))


def solve_unique(rows, rhs):
    """Exact solution of an overdetermined full-column-rank linear system.

    ``rows`` is an m x n integer coefficient matrix (m >= n, rank n expected)
    and ``rhs`` a length-m integer vector.  Returns the unique solution as a
    list of Fractions, or None when the system is inconsistent.  Raises
    ValueError when the columns are dependent (no unique solution exists).

    The integer kernel of [rows | -rhs] is empty exactly when the system is
    inconsistent, and is one vector (x, t) with t != 0 exactly when the
    solution x / t is unique.
    """
    kernel = right_kernel([list(row) + [-b] for row, b in zip(rows, rhs)])
    if not kernel:
        return None
    if len(kernel) > 1 or kernel[0][-1] == 0:
        raise ValueError("columns are linearly dependent; no unique solution")
    *x, t = kernel[0]
    return [Fraction(v, t) for v in x]


def inverse_unimodular(rows):
    """Exact inverse of a unimodular integer matrix, as integer rows.

    The Hermite form of a unimodular matrix is the identity, so the transform
    that reaches it is the inverse.
    """
    h, u, _ = hnf_with_transform(rows)
    assert h == identity_rows(len(rows)), "matrix is not unimodular"
    return u


def coords_in_basis(basis_rows, v):
    """Integer coordinates of ``v`` in a row-echelon basis, or None when ``v``
    is outside the lattice.  Forward substitution: each coordinate is forced
    at its row's pivot, and any remainder means ``v`` is not a lattice point.
    """
    rest = list(v)
    coords = []
    last = -1
    for row in basis_rows:
        p = next(i for i, x in enumerate(row) if x)
        assert p > last, "basis rows must be in row-echelon form"
        last = p
        q, r = divmod(rest[p], row[p])
        if r:
            return None
        rest = [a - q * b for a, b in zip(rest, row)]
        coords.append(q)
    return None if any(rest) else coords
