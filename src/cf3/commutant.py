"""Integer commutant lattices of matrices with irreducible characteristic polynomial.

For C with irreducible chi, Q^3 is one-dimensional over the cubic field
Q[C] = span(E, C, C^2) (the paper's Frobenius matrix is multiplication by x
in Q[x]/(chi)), so the commutant of C is Q[C] and its integer points are a
rank-3 lattice, written down here in closed form.  E is primitive in it, so
it is Z*E plus its section {X11 = 0}, the image under X -> X - X11*E, and
the section is the saturation of C' = C - c11*E and C2' = C^2 - (C^2)11*E:
if [[h11, h12], [0, h22]] is the row Hermite form of the 9x2 matrix
[flat C' | flat C2'], then s*C' + t*C2' is integral exactly when (s, t) lies
in H^-1 Z^2, so w1 = C'/h11 and w2 = (h11*C2' - h12*C')/(h11*h22) are a basis
of the section, both divisions exact.  The canonical (A, B) is the Hermite
basis of (w1, w2); it depends only on the lattice.  B = alpha*A^2 + beta*A
+ gamma*E comes from Cramer's rule on first columns and one integer check;
only (alpha, beta, gamma) are rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .intmat import IntMat, is_irreducible
# solve_unique has no caller here; the benchmark's tracer wraps it by this name
from .zlinalg import coords_in_basis, hnf_basis, solve_unique  # noqa: F401

_E_FLAT = (1, 0, 0, 0, 1, 0, 0, 0, 1)


class CommutantError(ValueError):
    pass


def _matrix(flat):
    return IntMat((flat[0:3], flat[3:6], flat[6:9]))


def commutant_lattice(c):
    """Canonical basis of the lattice {X integer : XC == CX}: the Hermite
    form of (E, A, B).  Requires irreducible chi; then the rank is 3."""
    return [_matrix(flat) for flat in hnf_basis([m.flat() for m in commutant_basis(c).members()])]


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
        a2 = self.a @ self.a
        return tuple(tuple(self.alpha * s + self.beta * u + self.gamma * (i == j)
                           for j, (s, u) in enumerate(zip(srow, urow)))
                     for i, (srow, urow) in enumerate(zip(a2.rows, self.a.rows)))


def express_in_powers(a, b):
    """Exact rationals (alpha, beta, gamma) with b == alpha*a^2 + beta*a + gamma*e.

    With x = A e1, y = A x and z = B e1, Cramer's rule solves
    alpha*y + beta*x + gamma*e1 == z over D = det[y, x, e1].  D != 0 proves
    E, A, A^2 independent; the solution then exists exactly when
    D*B == n_alpha*A^2 + n_beta*A + n_gamma*E in integers.
    """
    if a.dim != 3 or b.dim != 3:
        raise ValueError("powers of A are a 3x3 notion")
    a2 = a @ a
    x, y, z = ([m.rows[i][0] for i in range(3)] for m in (a, a2, b))
    d = y[1] * x[2] - y[2] * x[1]
    if d == 0:
        raise CommutantError("powers of A only span a plane: E, A, A^2 are dependent")
    na = z[1] * x[2] - z[2] * x[1]
    nb = y[1] * z[2] - y[2] * z[1]
    nc = y[0] * (x[1] * z[2] - x[2] * z[1]) - x[0] * nb + z[0] * d
    if any(d * v != na * s + nb * u + nc * e
           for v, s, u, e in zip(b.flat(), a2.flat(), a.flat(), _E_FLAT)):
        raise CommutantError("matrix is not a rational polynomial in A")
    return (Fraction(na, d), Fraction(nb, d), Fraction(nc, d))


def _section_basis(c, section):
    """CommutantBasis with (A, B) the Hermite basis of the flat rows ``section``."""
    a, b = (_matrix(flat) for flat in hnf_basis(section))
    return CommutantBasis(c=c, a=a, b=b)


def normalize_basis(raw, c):
    """The canonical (E, A, B) shape of the lattice spanned by ``raw``.

    X -> X - X11*E maps the lattice onto its section {X11 = 0} with kernel
    Z*E, so the images of ``raw`` span that section and their Hermite form
    is the canonical pair (A, B).  ``raw`` must span a lattice containing E.
    """
    assert c.dim == 3, "normalized (E, A, B) bases are a 3x3 notion"
    return _section_basis(c, [[x - m.rows[0][0] * e for x, e in zip(m.flat(), _E_FLAT)]
                              for m in raw])


def commutant_basis(c):
    """Canonical CommutantBasis of a 3x3 matrix with irreducible chi, read
    off the section of Q[C] (see the module docstring)."""
    if c.dim != 3 or not is_irreducible(c):
        raise CommutantError("commutant bases need a 3x3 matrix with irreducible chi")
    c2 = c @ c
    p = [x - c.rows[0][0] * e for x, e in zip(c.flat(), _E_FLAT)]
    q = [x - c2.rows[0][0] * e for x, e in zip(c2.flat(), _E_FLAT)]
    (h11, h12), (_, h22) = hnf_basis(list(zip(p, q)))
    return _section_basis(c, [[x // h11 for x in p],
                              [(h11 * y - h12 * x) // (h11 * h22) for x, y in zip(p, q)]])


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
    rows = [coords_in_basis(vecs, m.flat()) for m in (IntMat.identity(c.dim), c, c @ c)]
    assert None not in rows
    d = IntMat(rows).det()
    assert d != 0
    return abs(d)
