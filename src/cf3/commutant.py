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

Both Hermite forms are read in closed form.  With p = flat C' and
q = flat C2', an xgcd chain over the nonzero p_i gives h11 = gcd(p_i) and a
lattice row (h11, h12'); each row (p_i, q_i) is (p_i/h11)*(h11, h12') plus
(0, q_i - (p_i/h11)*h12'), so h22 is the gcd of those second entries and
h12 = h12' mod h22.  The Hermite pair of (w1, w2) is one xgcd step on their
first nonzero column, a positive pivot for the second row, and the first
row reduced against it.  Hermite forms are unique, so both agree with the
generic reduction zlinalg.hnf_basis, which normalize_basis still uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .intmat import IntMat, is_irreducible
# solve_unique has no caller here; the benchmark's tracer wraps it by this name
from .zlinalg import coords_in_basis, hnf_basis, solve_unique, xgcd  # noqa: F401

_E = IntMat.identity(3)
_E_FLAT = _E.flat()


class CommutantError(ValueError):
    pass


def _matrix(flat):
    return IntMat._of((tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9])))


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
        return _E

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


def normalize_basis(raw, c):
    """The canonical (E, A, B) shape of the lattice spanned by ``raw``.

    X -> X - X11*E maps the lattice onto its section {X11 = 0} with kernel
    Z*E, so the images of ``raw`` span that section and their Hermite form
    is the canonical pair (A, B).  ``raw`` must span a lattice containing E.
    """
    assert c.dim == 3, "normalized (E, A, B) bases are a 3x3 notion"
    a, b = (_matrix(flat) for flat in hnf_basis(
        [[x - m.rows[0][0] * e for x, e in zip(m.flat(), _E_FLAT)] for m in raw]))
    return CommutantBasis(c=c, a=a, b=b)


def _hermite_pair(w1, w2):
    """Hermite basis of the rank-2 lattice spanned by the flat rows w1, w2:
    one xgcd step on their first nonzero column, a positive second pivot,
    and the first row reduced against it."""
    j = next(k for k, (x, y) in enumerate(zip(w1, w2)) if x or y)
    g, s, t = xgcd(w1[j], w2[j])
    u, v = w1[j] // g, w2[j] // g
    r1 = [s * x + t * y for x, y in zip(w1, w2)]
    r2 = [u * y - v * x for x, y in zip(w1, w2)]
    k = next(k for k, x in enumerate(r2) if x)
    if r2[k] < 0:
        r2 = [-x for x in r2]
    m = r1[k] // r2[k]
    return [x - m * y for x, y in zip(r1, r2)], r2


def commutant_basis(c):
    """Canonical CommutantBasis of a 3x3 matrix with irreducible chi, read
    off the section of Q[C] (see the module docstring)."""
    if c.dim != 3 or not is_irreducible(c):
        raise CommutantError("commutant bases need a 3x3 matrix with irreducible chi")
    c2 = c @ c
    p = [x - c.rows[0][0] * e for x, e in zip(c.flat(), _E_FLAT)]
    q = [x - c2.rows[0][0] * e for x, e in zip(c2.flat(), _E_FLAT)]
    h11 = h12 = 0
    for x, y in zip(p, q):
        if x:
            h11, s, t = xgcd(h11, x)
            h12 = s * h12 + t * y
    h22 = gcd(*(y - x // h11 * h12 for x, y in zip(p, q)))
    h12 %= h22
    a, b = _hermite_pair([x // h11 for x in p],
                         [(h11 * y - h12 * x) // (h11 * h22) for x, y in zip(p, q)])
    return CommutantBasis(c=c, a=_matrix(a), b=_matrix(b))


def basis_from_pair(c, a, b):
    """CommutantBasis for an explicitly chosen (A, B) pair.

    Used to evaluate decisions under a different valid basis.  A and B must
    commute with C, E, A, A^2 must be independent, and (E, A, B) must span
    the whole commutant lattice, not a sublattice of it: each is checked.
    """
    zero = IntMat.zero(c.dim)
    if a @ c - c @ a != zero or b @ c - c @ b != zero:
        raise CommutantError("basis members must commute with C")
    basis = CommutantBasis(c=c, a=a, b=b)
    basis.powers  # noqa: B018  - raises CommutantError eagerly
    spanned, canonical = normalize_basis(basis.members(), c), commutant_basis(c)
    if (spanned.a, spanned.b) != (canonical.a, canonical.b):
        raise CommutantError("(E, A, B) spans a proper sublattice of the commutant")
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
