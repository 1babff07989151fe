"""The polynomial forms whose unit values decide conjugation questions.

Three shapes appear:

* a binary quadratic q2(A) for 2x2 matrices, built from the off-diagonal
  entries and the diagonal difference, normalized by their gcd;
* a binary cubic p_bar(m, n) built from the characteristic coefficients of a
  commutant basis element A and the rationals (alpha, beta) expressing the
  third basis element in powers of A;
* a ternary cubic p_tilde(x, y, z) whose coefficients are antisymmetrized
  2x2 "bracket" products between A and its adjugate.

q3 multiplies the last two into the five-variable product form; its unit
values (over integer points) characterize Frobenius-type 3x3 matrices.
det_form, the determinant of a general member of a rank-3 matrix lattice,
is a ternary cubic of the same shape; matching and unit groups use it.  The
product must have integer coefficients; a violation is an internal error,
not bad input, and Gauss's lemma makes its test one divisibility.  Every
form is a coefficient tuple over one of the *_EXPONENTS tables (the ternary
one in MONOMIALS order), and evaluate_form is the one scalar evaluator.

The bracket table for p_tilde is generated from three seed monomial groups
by the cyclic substitution x -> y -> z -> x (indices 1 -> 2 -> 3 -> 1),
which the coefficient groups respect; the xyz group is the one exception and
is stored explicitly with its tripled term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .commutant import commutant_basis
from .intmat import IntMat, adjugate, char_cubic, is_irreducible


class IntegralityError(ArithmeticError):
    """The five-variable product came out non-integer: a convention bug."""


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


def _primitive_scaled(ints, den):
    """Scale the coefficients ints / den to a primitive integer tuple.

    Returns (prim, scale) with scale * ints / den == prim, content(prim) == 1,
    and the first nonzero entry positive.  The scale is the unique positive
    rational doing this, up to the sign flip for the leading coefficient.
    """
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("cannot normalize the zero form")
    if next(v for v in ints if v != 0) < 0:
        g = -g
    return tuple(v // g for v in ints), Fraction(den, g)


@dataclass(frozen=True)
class BinaryCubicForm:
    """c30*m^3 + c21*m^2*n + c12*m*n^2 + c03*n^3 with exact rational coefficients."""

    c30: Fraction
    c21: Fraction
    c12: Fraction
    c03: Fraction

    def as_tuple(self):
        return (self.c30, self.c21, self.c12, self.c03)

    def evaluate(self, m, n):
        return evaluate_form(self.as_tuple(), BINARY_CUBIC_EXPONENTS, (m, n))

    def primitive(self):
        coeffs = self.as_tuple()
        den = lcm(*[c.denominator for c in coeffs])
        return _primitive_scaled([c.numerator * (den // c.denominator) for c in coeffs], den)


def p_bar(chi, alpha, beta):
    """The binary cubic attached to chi_A and B = alpha*A^2 + beta*A + gamma*E.

    gamma does not enter: it shifts B by a multiple of E, which only
    translates the roots of the form, and the stated coefficients are
    exactly those of the translated product over the eigenvalues.
    """
    a1, a2, a3 = chi.as_tuple()
    # alpha = x / d and beta = y / d; nums are the coefficients of d^3 * p_bar
    d = lcm(alpha.denominator, beta.denominator)
    x = alpha.numerator * (d // alpha.denominator)
    y = beta.numerator * (d // beta.denominator)
    s = a2 + a1 * a1
    nums = (d ** 3,
            d * d * (2 * a1 * x + 3 * y),
            d * (s * x * x + 4 * a1 * x * y + 3 * y * y),
            (a1 * a2 - a3) * x ** 3 + s * x * x * y + 2 * a1 * x * y * y + y ** 3)
    return BinaryCubicForm(*(Fraction(n, d ** 3) for n in nums))


def bracket(a, b, ij, kl):
    """a_ij * b_kl - a_kl * b_ij with 1-based index pairs."""
    i, j = ij
    k, l = kl
    for idx in (i, j, k, l):
        if not 1 <= idx <= 3:
            raise ValueError("bracket indices must be in 1..3")
    return (a.rows[i - 1][j - 1] * b.rows[k - 1][l - 1]
            - a.rows[k - 1][l - 1] * b.rows[i - 1][j - 1])


def _cycle_pair(pair):
    # index substitution 1 -> 2 -> 3 -> 1 on one (i, j) pair
    i, j = pair
    return (i % 3 + 1, j % 3 + 1)


def _cycle_group(group):
    return tuple((_cycle_pair(ij), _cycle_pair(kl), mult) for ij, kl, mult in group)


def _build_p_tilde_table():
    seeds = {
        "x3": (((1, 2), (1, 3), 1),),
        "x2y": (((1, 3), (1, 1), 1), ((2, 2), (1, 3), 1), ((1, 2), (2, 3), 1)),
        "xy2": (((2, 2), (2, 3), 1), ((2, 3), (1, 1), 1), ((1, 3), (2, 1), 1)),
    }
    # the cyclic substitution sends x3 -> y3 -> z3, x2y -> y2z -> xz2,
    # and xy2 -> yz2 -> x2z
    table = {}
    for seed, orbit in (("x3", ("y3", "z3")),
                        ("x2y", ("y2z", "xz2")),
                        ("xy2", ("yz2", "x2z"))):
        group = seeds[seed]
        table[seed] = group
        for name in orbit:
            group = _cycle_group(group)
            table[name] = group
    table["xyz"] = (((1, 1), (2, 2), 1), ((2, 2), (3, 3), 1), ((3, 3), (1, 1), 1),
                    ((1, 3), (3, 1), 3))
    return table


P_TILDE_TABLE = _build_p_tilde_table()


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
        return _primitive_scaled(self.coeffs, 1)


def p_tilde(a, b):
    """The ternary cubic of bracket sums between 3x3 matrices a and b."""
    if a.dim != 3 or b.dim != 3:
        raise ValueError("p_tilde needs 3x3 matrices")
    coeffs = []
    for name in MONOMIALS:
        total = 0
        for ij, kl, mult in P_TILDE_TABLE[name]:
            total += mult * bracket(a, b, ij, kl)
        coeffs.append(total)
    return TernaryCubicForm(tuple(coeffs))


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
                d = m.det()
                if d == 0:
                    continue
                counts = tuple((i1, i2, i3).count(k) for k in range(3))
                coeffs[TERNARY_CUBIC_EXPONENTS.index(counts)] += d
    return TernaryCubicForm(tuple(coeffs))


@dataclass(frozen=True)
class ProductForm:
    """The five-variable product p_bar(m, n) * p_tilde(x, y, z).

    Each factor is also carried in primitive integer form together with the
    exact rational that scaled it there; the two scalings multiply to the
    reciprocal of the product's content.  Unit values are always a question
    about the unscaled product, whose integrality is checked at build time.
    """

    cubic_mn: BinaryCubicForm
    cubic_xyz: TernaryCubicForm
    mn_primitive: tuple
    mn_scale: Fraction
    xyz_primitive: tuple
    xyz_scale: Fraction

    @property
    def scaling_product(self):
        return self.mn_scale * self.xyz_scale

    @property
    def content(self):
        """Content of the integer product form; 1 means the factor
        split is loss-free for unit questions.  The scales may carry a
        sign (primitive forms have positive leading coefficient), which
        is irrelevant to unit values.  The primitive factors multiply to a
        primitive product (Gauss's lemma), so the product is integral
        exactly when this reciprocal scale is an integer."""
        c = 1 / abs(self.scaling_product)
        if c.denominator != 1:
            raise IntegralityError("the product form has content %s, not an integer" % c)
        return int(c)

    def evaluate(self, x, y, z, m, n):
        return self.cubic_mn.evaluate(m, n) * self.cubic_xyz.evaluate(x, y, z)


def product_form(cubic_mn, cubic_xyz):
    """Bundle the two factors, checking that the product is integral."""
    if cubic_xyz.is_zero():
        raise IntegralityError("ternary factor is identically zero")
    mn_prim, mn_scale = cubic_mn.primitive()
    xyz_prim, xyz_scale = cubic_xyz.primitive()
    pf = ProductForm(cubic_mn=cubic_mn, cubic_xyz=cubic_xyz,
                     mn_primitive=mn_prim, mn_scale=mn_scale,
                     xyz_primitive=xyz_prim, xyz_scale=xyz_scale)
    pf.content  # noqa: B018  - raises IntegralityError eagerly
    return pf


def q3(c, basis=None):
    """The product form of a 3x3 matrix with irreducible chi.

    A commutant basis (E, A, B) is computed canonically unless an explicit
    one is supplied; the binary factor comes from chi_A and (alpha, beta),
    the ternary factor from A and its adjugate.
    """
    if basis is None:
        basis = commutant_basis(c)
    chi_a = char_cubic(basis.a)
    cubic_mn = p_bar(chi_a, basis.alpha, basis.beta)
    cubic_xyz = p_tilde(basis.a, adjugate(basis.a))
    return product_form(cubic_mn, cubic_xyz)
