"""Small dense integer matrices with exact characteristic data.

Matrices here are 2x2 or 3x3 and immutable.  All arithmetic is arbitrary
precision integer; this module never touches Fractions or floating point.
The characteristic polynomial of a 3x3 matrix is carried in the sign
convention

    chi(x) = -x^3 + a1*x^2 - a2*x + a3,

so a1 is the trace, a2 the sum of principal 2x2 minors, and a3 the
determinant.  Companion-style matrices use a different coefficient
convention; that one lives in the frobenius module and is never mixed with
this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt


class IntMat:
    """Immutable square integer matrix of dimension 2 or 3."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        k = len(rows)
        if k not in (2, 3) or any(len(row) != k for row in rows):
            raise ValueError("expected a square 2x2 or 3x3 matrix")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMat is immutable")

    @property
    def dim(self):
        return len(self.rows)

    @classmethod
    def identity(cls, k):
        return cls(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))

    @classmethod
    def zero(cls, k):
        return cls(tuple(tuple(0 for _ in range(k)) for _ in range(k)))

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "IntMat(%r)" % (self.rows,)

    def __add__(self, other):
        self._check_dim(other)
        k = self.dim
        return IntMat(tuple(tuple(self.rows[i][j] + other.rows[i][j] for j in range(k)) for i in range(k)))

    def __sub__(self, other):
        self._check_dim(other)
        k = self.dim
        return IntMat(tuple(tuple(self.rows[i][j] - other.rows[i][j] for j in range(k)) for i in range(k)))

    def __neg__(self):
        return IntMat(tuple(tuple(-x for x in row) for row in self.rows))

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return IntMat(tuple(tuple(scalar * x for x in row) for row in self.rows))

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check_dim(other)
        k = self.dim
        return IntMat(tuple(
            tuple(sum(self.rows[i][l] * other.rows[l][j] for l in range(k)) for j in range(k))
            for i in range(k)))

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = IntMat.identity(self.dim)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def _check_dim(self, other):
        if not isinstance(other, IntMat) or other.dim != self.dim:
            raise ValueError("dimension mismatch")

    def transpose(self):
        k = self.dim
        return IntMat(tuple(tuple(self.rows[j][i] for j in range(k)) for i in range(k)))

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.dim))

    def det(self):
        r = self.rows
        if self.dim == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))

    def apply(self, vector):
        """Multiply onto a column vector of integers, returning a tuple."""
        k = self.dim
        if len(vector) != k:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.rows[i][j] * vector[j] for j in range(k)) for i in range(k))

    def flat(self):
        """Row-major tuple of all entries."""
        return tuple(x for row in self.rows for x in row)

    def norm(self):
        """Sum of absolute values of all entries."""
        return sum(abs(x) for row in self.rows for x in row)


def matrix_norm(m):
    """Sum of the absolute values of all entries of ``m``."""
    return m.norm()


def adjugate(m):
    """Adjugate: the transposed matrix of signed complementary minors.

    Satisfies m @ adjugate(m) == adjugate(m) @ m == det(m) * identity.
    """
    r = m.rows
    if m.dim == 2:
        return IntMat(((r[1][1], -r[0][1]), (-r[1][0], r[0][0])))
    (a, b, c), (d, e, f), (g, h, i) = r
    return IntMat(((e * i - f * h, c * h - b * i, b * f - c * e),
                   (f * g - d * i, a * i - c * g, c * d - a * f),
                   (d * h - e * g, b * g - a * h, a * e - b * d)))


def _integer_root(a1, a2, a3, lo, hi, sign):
    """Whether g(x) = x^3 - a1 x^2 + a2 x - a3 vanishes at an integer of
    [lo, hi], where sign*g is nondecreasing (bisection)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * (((mid - a1) * mid + a2) * mid - a3) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo == hi and ((lo - a1) * lo + a2) * lo - a3 == 0


def is_square(n):
    return n >= 0 and isqrt(n) * isqrt(n) == n


@dataclass(frozen=True)
class CharCubic:
    """Coefficients (a1, a2, a3) of chi(x) = -x^3 + a1 x^2 - a2 x + a3."""

    a1: int
    a2: int
    a3: int

    def as_tuple(self):
        return (self.a1, self.a2, self.a3)

    def evaluate(self, x):
        return -x ** 3 + self.a1 * x ** 2 - self.a2 * x + self.a3

    def monic(self):
        """Coefficients (c2, c1, c0) of the monic form x^3 + c2 x^2 + c1 x + c0."""
        return (-self.a1, self.a2, -self.a3)

    def discriminant(self):
        a1, a2, a3 = self.a1, self.a2, self.a3
        return (18 * a1 * a2 * a3 - 4 * a1 ** 3 * a3 + a1 ** 2 * a2 ** 2
                - 4 * a2 ** 3 - 27 * a3 ** 2)

    def has_rational_root(self):
        # A rational root of a monic integer cubic is an integer dividing a3.
        # g = -chi is monotone between its critical points (a1 -+ sqrt(d))/3,
        # d = a1^2 - 3*a2; s = isqrt(d) <= sqrt(d) < s + 1 keeps each piece of
        # [-|a3|, |a3|] monotone for bisection (s = 0 when g only increases).
        a1, a2, a3 = self.a1, self.a2, self.a3
        if a3 == 0:
            return True
        s = isqrt(max(a1 * a1 - 3 * a2, 0))
        p, q, b = -((s - a1) // 3), (a1 + s) // 3, abs(a3)
        return any(_integer_root(a1, a2, a3, max(lo, -b), min(hi, b), sign)
                   for lo, hi, sign in ((-b, p - 1, 1), (p, q, -1), (q + 1, b, 1)))

    def is_irreducible(self):
        return not self.has_rational_root()

    def is_real_rooted(self):
        return self.discriminant() > 0


@dataclass(frozen=True)
class CharQuad:
    """Trace and determinant of a 2x2 matrix; chi(x) = x^2 - t x + d."""

    t: int
    d: int

    def evaluate(self, x):
        return x ** 2 - self.t * x + self.d

    def discriminant(self):
        return self.t ** 2 - 4 * self.d

    def is_irreducible(self):
        # reducible over Q exactly when the discriminant is a perfect square
        return not is_square(self.discriminant())

    def is_real_rooted(self):
        return self.discriminant() > 0


def char_cubic(m):
    """Characteristic data (a1, a2, a3) of a 3x3 integer matrix."""
    if m.dim != 3:
        raise ValueError("char_cubic needs a 3x3 matrix")
    r = m.rows
    a1 = m.trace()
    a2 = (r[0][0] * r[1][1] - r[0][1] * r[1][0]
          + r[0][0] * r[2][2] - r[0][2] * r[2][0]
          + r[1][1] * r[2][2] - r[1][2] * r[2][1])
    return CharCubic(a1, a2, m.det())


def char_quad(m):
    if m.dim != 2:
        raise ValueError("char_quad needs a 2x2 matrix")
    return CharQuad(m.trace(), m.det())


def is_irreducible(m):
    """True when the characteristic polynomial has no rational root."""
    if m.dim == 2:
        return char_quad(m).is_irreducible()
    return char_cubic(m).is_irreducible()


def is_hyperbolic(m):
    """True when chi is irreducible and all eigenvalues are real.

    Irreducibility forces the eigenvalues to be distinct, so a positive
    polynomial discriminant is exactly the all-real condition.
    """
    if m.dim == 2:
        q = char_quad(m)
        return q.is_irreducible() and q.is_real_rooted()
    c = char_cubic(m)
    return c.is_irreducible() and c.is_real_rooted()


def parse_matrix(text):
    """Parse "1,2,0;0,1,2;-7,0,29" into an IntMat; reject non-square input."""
    rows = []
    for chunk in text.strip().split(";"):
        entries = [e.strip() for e in chunk.split(",")]
        try:
            rows.append([int(e) for e in entries])
        except ValueError:
            raise ValueError("matrix entries must be integers: %r" % (chunk,))
    k = len(rows)
    if k not in (2, 3) or any(len(row) != k for row in rows):
        raise ValueError("matrix text must describe a square 2x2 or 3x3 matrix")
    return IntMat(rows)


def format_matrix(m):
    """Inverse of parse_matrix."""
    return ";".join(",".join(str(x) for x in row) for row in m.rows)
