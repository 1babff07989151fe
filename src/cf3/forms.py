"""The polynomial forms whose unit values decide conjugation questions.

Three shapes appear:

* a binary quadratic q2(A) for 2x2 matrices, built from the off-diagonal
  entries and the diagonal difference, normalized by their gcd;
* the index form I(m, n) of the commutant order O = Z*E + Z*A + Z*B, a
  binary cubic whose absolute value at (m, n) is [O : Z[m*A + n*B]];
* the cyclic-vector form V(x, y, z) = det[v; vA; vB] at the row vector
  v = (x, y, z), the norm form of the O-module Z^3.

q3 multiplies I and V into the five-variable product form; its unit values
(over integer points) characterize Frobenius-type 3x3 matrices: O = Z[theta]
for some theta and Z^3 = v*O for some v.  The product I*V equals the
product of the paper's two cubics coefficient for coefficient, so both
factors are built in integers straight from (E, A, B).  det_form, the
determinant of a general member of a rank-3 matrix lattice, is a ternary
cubic of the same shape; matching and unit groups use it.  Every form is a
coefficient tuple over one of the *_EXPONENTS tables (the ternary one in
MONOMIALS order), and evaluate_form is the one scalar evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .commutant import CommutantError, commutant_basis
from .intmat import IntMat, is_irreducible


MONOMIALS = ("x3", "y3", "z3", "x2y", "xy2", "x2z", "xz2", "y2z", "yz2", "xyz")

BINARY_QUAD_EXPONENTS = ((2, 0), (1, 1), (0, 2))
BINARY_CUBIC_EXPONENTS = ((3, 0), (2, 1), (1, 2), (0, 3))
TERNARY_CUBIC_EXPONENTS = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (1, 2, 0),
                           (2, 0, 1), (1, 0, 2), (0, 2, 1), (0, 1, 2), (1, 1, 1))


def evaluate_form(coeffs, exponents, point):
    """The form with these coefficients over the exponent table, at one point."""
    total = 0
    for c, exps in zip(coeffs, exponents):
        term = c
        for v, e in zip(point, exps):
            term *= v ** e
        total += term
    return total


@dataclass(frozen=True)
class BinaryQF:
    """p*x^2 + q*x*y + r*y^2 with integer coefficients."""

    p: int
    q: int
    r: int

    def as_tuple(self):
        return (self.p, self.q, self.r)

    def evaluate(self, x, y):
        return evaluate_form(self.as_tuple(), BINARY_QUAD_EXPONENTS, (x, y))

    def discriminant(self):
        return self.q * self.q - 4 * self.p * self.r

    def content(self):
        return gcd(gcd(abs(self.p), abs(self.q)), abs(self.r))


def q2(a):
    """The gcd-normalized quadratic (a12, a22 - a11, -a21) of a 2x2 matrix."""
    if a.dim != 2:
        raise ValueError("q2 needs a 2x2 matrix")
    if not is_irreducible(a):
        raise ValueError("q2 needs an irreducible characteristic polynomial")
    a11, a12 = a.rows[0]
    a21, a22 = a.rows[1]
    g = gcd(gcd(abs(a12), abs(a21)), abs(a22 - a11))
    # irreducibility forces a12 != 0 (and a21 != 0), so g > 0
    return BinaryQF(a12 // g, (a22 - a11) // g, -a21 // g)


def _primitive(coeffs):
    """(prim, content) with coeffs == content * prim, content(prim) == 1 and
    the first nonzero entry of prim positive; the content carries the sign."""
    g = 0
    for v in coeffs:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("cannot normalize the zero form")
    if next(v for v in coeffs if v != 0) < 0:
        g = -g
    return tuple(v // g for v in coeffs), g


@dataclass(frozen=True)
class BinaryCubicForm:
    """c30*m^3 + c21*m^2*n + c12*m*n^2 + c03*n^3 with integer coefficients."""

    c30: int
    c21: int
    c12: int
    c03: int

    def as_tuple(self):
        return (self.c30, self.c21, self.c12, self.c03)

    def evaluate(self, m, n):
        return evaluate_form(self.as_tuple(), BINARY_CUBIC_EXPONENTS, (m, n))

    def primitive(self):
        return _primitive(self.as_tuple())


@dataclass(frozen=True)
class TernaryCubicForm:
    """Ten integer coefficients in the monomial order of MONOMIALS."""

    coeffs: tuple

    def __post_init__(self):
        assert len(self.coeffs) == 10

    def coeff(self, name):
        return self.coeffs[MONOMIALS.index(name)]

    def evaluate(self, x, y, z):
        return evaluate_form(self.coeffs, TERNARY_CUBIC_EXPONENTS, (x, y, z))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def primitive(self):
        return _primitive(self.coeffs)


# the slot of the monomial v_i*v_j*v_k in MONOMIALS, indexed [i][j][k]
_SLOT = tuple(tuple(tuple(TERNARY_CUBIC_EXPONENTS.index(tuple((i, j, k).count(t) for t in range(3)))
                          for k in range(3)) for j in range(3)) for i in range(3))


def det_form(gs):
    """det(x*G1 + y*G2 + z*G3) as a ternary cubic, expanded exactly by
    multilinearity in the columns (27 integer determinants)."""
    cols = [[[g.rows[i][j] for i in range(3)] for j in range(3)] for g in gs]
    coeffs = [0] * len(TERNARY_CUBIC_EXPONENTS)
    for i1 in range(3):
        for i2 in range(3):
            for i3 in range(3):
                m = IntMat([[cols[i1][0][r], cols[i2][1][r], cols[i3][2][r]]
                            for r in range(3)])
                coeffs[_SLOT[i1][i2][i3]] += m.det()
    return TernaryCubicForm(tuple(coeffs))


_E_FLAT = IntMat.identity(3).flat()


def _section(m):
    """The flat entries of m - m11*E: m's image in the section {X11 = 0}."""
    return tuple(x - m.rows[0][0] * e for x, e in zip(m.flat(), _E_FLAT))


def index_form(a, b):
    """The index form of the order O = Z*E + Z*A + Z*B, a binary cubic.

    With A^2 = a0*E + a1*A + a2*B, AB = b0*E + b1*A + b2*B and
    B^2 = c0*E + c1*A + c2*B, theta = m*A + n*B squares to
    ... + P*A + Q*B, and I(m, n) = m*Q - n*P has the coefficients
    (a2, 2*b2 - a1, c2 - 2*b1, -c1); |I| is the index [O : Z[theta]].
    The (A, B) coordinates of X are those of its section image X' in
    (A', B'), since A' and B' vanish at (1, 1): they are solved for on one
    nonzero 2x2 minor and then checked on all nine entries.  A product
    outside O raises CommutantError: (E, A, B) must span an order.
    """
    sa, sb = _section(a), _section(b)
    minors = ((p, q) for p in range(1, 9) for q in range(p + 1, 9)
              if sa[p] * sb[q] != sa[q] * sb[p])
    p, q = next(minors, (0, 0))
    d = sa[p] * sb[q] - sa[q] * sb[p]
    if d == 0:
        raise CommutantError("A and B are dependent modulo E")
    coords = []
    for x in (a @ a, a @ b, b @ b):
        sx = _section(x)
        u, ru = divmod(sx[p] * sb[q] - sx[q] * sb[p], d)
        w, rw = divmod(sa[p] * sx[q] - sa[q] * sx[p], d)
        if ru or rw or any(v != u * s + w * t for v, s, t in zip(sx, sa, sb)):
            raise CommutantError("(E, A, B) is not closed under multiplication")
        coords.append((u, w))
    (a1, a2), (b1, b2), (c1, c2) = coords
    return BinaryCubicForm(a2, 2 * b2 - a1, c2 - 2 * b1, -c1)


def cyclic_form(a, b):
    """The cyclic-vector form V(v) = det[v; vA; vB] over row vectors v.

    By multilinearity V is the sum of v_i*v_j*v_k*(A_j x B_k)_i over the
    rows A_j of A and B_k of B: nine integer cross products.
    """
    coeffs = [0] * len(MONOMIALS)
    for j, (a1, a2, a3) in enumerate(a.rows):
        for k, (b1, b2, b3) in enumerate(b.rows):
            cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
            for i, v in enumerate(cross):
                coeffs[_SLOT[i][j][k]] += v
    return TernaryCubicForm(tuple(coeffs))


@dataclass(frozen=True)
class ProductForm:
    """The five-variable product I(m, n) * V(x, y, z) of integer cubics.

    Each factor is also carried in primitive form together with its signed
    content (factor == content * primitive).  Unit values are always a
    question about the product itself.
    """

    cubic_mn: BinaryCubicForm
    cubic_xyz: TernaryCubicForm
    mn_primitive: tuple
    mn_content: int
    xyz_primitive: tuple
    xyz_content: int

    @property
    def content(self):
        """Content of the product; 1 means the factor split is loss-free for
        unit questions.  The primitive factors multiply to a primitive
        product (Gauss's lemma), so it is the product of the two contents."""
        return abs(self.mn_content * self.xyz_content)

    def evaluate(self, x, y, z, m, n):
        return self.cubic_mn.evaluate(m, n) * self.cubic_xyz.evaluate(x, y, z)


def product_form(cubic_mn, cubic_xyz):
    """Bundle two nonzero integer factors with their primitive parts."""
    mn_prim, mn_content = cubic_mn.primitive()
    xyz_prim, xyz_content = cubic_xyz.primitive()
    return ProductForm(cubic_mn=cubic_mn, cubic_xyz=cubic_xyz,
                       mn_primitive=mn_prim, mn_content=mn_content,
                       xyz_primitive=xyz_prim, xyz_content=xyz_content)


def q3(c, basis=None):
    """The product form of a 3x3 matrix with irreducible chi: the index form
    of its commutant order times the order's cyclic-vector form.

    A commutant basis (E, A, B) is computed canonically unless an explicit
    one is supplied; a basis of another matrix raises CommutantError.
    """
    if basis is None:
        basis = commutant_basis(c)
    elif basis.c != c:
        raise CommutantError("the basis is the commutant basis of another matrix")
    return product_form(index_form(basis.a, basis.b), cyclic_form(basis.a, basis.b))
