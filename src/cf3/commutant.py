"""Integer commutant lattices of matrices with irreducible characteristic polynomial.

For C with irreducible chi, the rational matrices commuting with C are
exactly the polynomials in C, a k-dimensional space; the integer ones form a
lattice of rank k containing E, C, C^2, ....  This module computes that
lattice exactly, normalizes a basis to the shape (E, A, B), and expresses B
as a rational polynomial alpha*A^2 + beta*A + gamma*E in A.

The normalized basis is canonical: it depends only on the lattice, not on
how the kernel basis came out.  E is always primitive in the lattice (E/g
integer forces g = 1), so the lattice is Z*E plus its section of matrices
whose (1,1) entry is zero; A and B are the Hermite basis of that section,
the image of the lattice under X -> X - X11*E.  Lattice coordinates are
integers throughout; only (alpha, beta, gamma) are rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .intmat import IntMat, is_irreducible
from .zlinalg import coords_in_basis, hnf_basis, right_kernel, solve_unique


class CommutantError(ValueError):
    pass


def _matrix_from_flat(flat, k):
    return IntMat(tuple(tuple(flat[i * k + j] for j in range(k)) for i in range(k)))


def commutant_lattice(c):
    """Canonical basis of the lattice {X integer : XC == CX}.

    Requires irreducible chi; then the rank is exactly k, and the returned
    basis is the Hermite form of the integer kernel of X -> XC - CX.
    """
    if not is_irreducible(c):
        raise CommutantError("matrix is not in M(k,Z): characteristic polynomial is reducible")
    k = c.dim
    rows = c.rows
    eqs = []
    for i in range(k):
        for j in range(k):
            eq = []
            for p in range(k):
                for q in range(k):
                    coef = (rows[q][j] if p == i else 0) - (rows[i][p] if q == j else 0)
                    eq.append(coef)
            eqs.append(eq)
    kernel = right_kernel(eqs)
    assert len(kernel) == k, "commutant rank must equal the matrix dimension"
    return [_matrix_from_flat(flat, k) for flat in hnf_basis(kernel)]


@dataclass(frozen=True)
class CommutantBasis:
    """Normalized basis (E, A, B) of the commutant lattice of C, with
    B == alpha*A^2 + beta*A + gamma*E exactly."""

    c: IntMat
    a: IntMat
    b: IntMat

    @cached_property
    def powers(self):
        """(alpha, beta, gamma), solved for on first read."""
        return express_in_powers(self.a, self.b)

    alpha = property(lambda self: self.powers[0])
    beta = property(lambda self: self.powers[1])
    gamma = property(lambda self: self.powers[2])

    @property
    def e(self):
        return IntMat.identity(self.c.dim)

    def members(self):
        return (self.e, self.a, self.b)

    def reconstruct_b(self):
        """alpha*A^2 + beta*A + gamma*E as exact Fraction entries (for checks)."""
        k = self.a.dim
        a2 = self.a @ self.a
        return tuple(
            tuple(self.alpha * a2.rows[i][j] + self.beta * self.a.rows[i][j]
                  + self.gamma * (1 if i == j else 0) for j in range(k))
            for i in range(k))


def express_in_powers(a, b):
    """Exact rationals (alpha, beta, gamma) with b == alpha*a^2 + beta*a + gamma*e.

    Unique because E, A, A^2 are independent when chi_A is irreducible.
    """
    if not is_irreducible(a):
        raise CommutantError("powers of A only span a plane: chi_A is reducible")
    k = a.dim
    a2 = a @ a
    e = IntMat.identity(k)
    cols = [a2.flat(), a.flat(), e.flat()]
    system = [[cols[j][i] for j in range(3)] for i in range(k * k)]
    x = solve_unique(system, list(b.flat()))
    if x is None:
        raise CommutantError("matrix is not a rational polynomial in A")
    return (x[0], x[1], x[2])


def normalize_basis(raw, c):
    """The canonical (E, A, B) shape of the lattice spanned by ``raw``.

    X -> X - X11*E maps the lattice onto its section {X11 = 0} with kernel
    Z*E, so the images of ``raw`` span that section and their Hermite form
    is the canonical pair (A, B).  ``raw`` must span a lattice containing E.
    """
    assert c.dim == 3, "normalized (E, A, B) bases are a 3x3 notion"
    e_flat = IntMat.identity(3).flat()
    h = hnf_basis([[x - m.rows[0][0] * e for x, e in zip(m.flat(), e_flat)]
                   for m in raw])
    assert len(h) == 2
    return CommutantBasis(c=c, a=_matrix_from_flat(h[0], 3), b=_matrix_from_flat(h[1], 3))


def commutant_basis(c):
    """Canonical CommutantBasis of a 3x3 matrix with irreducible chi."""
    return normalize_basis(commutant_lattice(c), c)


def basis_from_pair(c, a, b):
    """CommutantBasis for an explicitly chosen (A, B) pair.

    Used to evaluate decisions under a different valid basis; callers are
    responsible for (E, A, B) actually spanning the commutant lattice, but
    commutation with C is checked here.
    """
    zero = IntMat.zero(c.dim)
    if a @ c - c @ a != zero or b @ c - c @ b != zero:
        raise CommutantError("basis members must commute with C")
    basis = CommutantBasis(c=c, a=a, b=b)
    basis.powers  # noqa: B018  - raises CommutantError eagerly
    return basis


def power_basis_index(c, lattice=None):
    """Index of the sublattice spanned by (E, C, C^2) inside the commutant."""
    if lattice is None:
        lattice = commutant_lattice(c)
    vecs = [m.flat() for m in lattice]
    rows = []
    for m in (IntMat.identity(c.dim), c, c @ c):
        coords = coords_in_basis(vecs, m.flat())
        assert coords is not None
        rows.append(coords)
    d = IntMat(rows).det()
    assert d != 0
    return abs(d)
