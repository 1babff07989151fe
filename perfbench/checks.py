"""Independent checks of the program's answers, in plain integer arithmetic.

Nothing here imports cf3.  Each check takes the program's output as plain
Python data and returns a list of error strings; an empty list means the
output passed.  The expected paper numbers are the ones stated in the
source paper and the project README, not a stored run of the program.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt

# Monomial orders of the program's coefficient tuples.
BINARY_CUBIC = ((3, 0), (2, 1), (1, 2), (0, 3))
TERNARY_CUBIC = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (1, 2, 0),
                 (2, 0, 1), (1, 0, 2), (0, 2, 1), (0, 1, 2), (1, 1, 1))

# Paper claim 1: irreducible 3x3 matrices per norm.
CENSUS_COUNTS = {0: 0, 1: 0, 2: 0, 3: 0, 4: 240, 5: 1248, 6: 8112}
# Paper claim 2: classes of the hyperbolic matrices of norms 5 and 6.
CLASSIFY_COUNTS = {
    5: {"golden_ratio": 48, "M_-1_3_1": 0, "M_0_3_1": 0, "other": 0, "unresolved": 0},
    6: {"golden_ratio": 480, "M_-1_3_1": 192, "M_0_3_1": 240, "other": 0, "unresolved": 0},
}
# Paper claim 4: the binary factor of the norm-42 matrix misses +-1 mod 7.
COUNTEREXAMPLE_MODULUS = 7
COUNTEREXAMPLE_RESIDUES = (0, 2, 5)
# Paper claim 7: (V, E, F, face profile) of the three reference tori.
REFERENCE_INVARIANTS = {
    "golden_ratio": (1, 3, 2, ((3, 1), (3, 1))),
    "M_-1_3_1": (3, 7, 4, ((3, 1), (3, 1), (3, 1), (5, 5))),
    "M_0_3_1": (1, 3, 2, ((3, 1), (3, 3))),
}


def char_coeffs(m):
    """(trace, sum of principal 2x2 minors, det): chi = x^3 - t x^2 + s x - d."""
    (a, b, c), (d, e, f), (g, h, i) = m
    t = a + e + i
    s = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return t, s, det


def is_irreducible(m):
    """Rational-root test: a monic integer cubic is irreducible over Q
    exactly when no divisor of its constant term is a root."""
    t, s, d = char_coeffs(m)
    if d == 0:
        return False
    n = abs(d)
    k = 1
    while k * k <= n:
        if n % k == 0:
            for r in (k, -k, n // k, -(n // k)):
                if r * r * r - t * r * r + s * r - d == 0:
                    return False
        k += 1
    return True


def discriminant(m):
    t, s, d = char_coeffs(m)
    b, c, e = -t, s, -d
    return 18 * b * c * e - 4 * b ** 3 * e + b * b * c * c - 4 * c ** 3 - 27 * e * e


def is_hyperbolic(m):
    return is_irreducible(m) and discriminant(m) > 0


def evaluate(coeffs, exponents, point):
    total = 0
    for c, exps in zip(coeffs, exponents):
        term = c
        for v, e in zip(point, exps):
            term *= v ** e
        total += term
    return total


def residues(coeffs, exponents, q):
    """Every value of the form mod q, by walking all of (Z/q)^arity."""
    arity = len(exponents[0])
    powers = [[pow(v, e, q) for e in range(4)] for v in range(q)]
    terms = [(c % q, exps) for c, exps in zip(coeffs, exponents) if c % q]
    out = set()
    for point in product(range(q), repeat=arity):
        pw = [powers[v] for v in point]
        total = 0
        for c, exps in terms:
            term = c
            for p, e in zip(pw, exps):
                term *= p[e]
            total += term
        out.add(total % q)
    return out


def check_input(m, hyperbolic=False):
    if not is_irreducible(m):
        return ["input %s has a rational eigenvalue" % (m,)]
    if hyperbolic and discriminant(m) <= 0:
        return ["input %s is not hyperbolic" % (m,)]
    return []


def check_witness(binary, ternary, witness):
    """The witness (x, y, z, m, n) must send both primitive factors to +-1."""
    if witness is None or len(witness) != 5:
        return ["witness %r is not a 5-tuple" % (witness,)]
    errs = []
    vt = evaluate(ternary, TERNARY_CUBIC, witness[:3])
    vb = evaluate(binary, BINARY_CUBIC, witness[3:])
    if vt not in (1, -1):
        errs.append("ternary factor %s takes %d at %s" % (ternary, vt, witness[:3]))
    if vb not in (1, -1):
        errs.append("binary factor %s takes %d at %s" % (binary, vb, witness[3:]))
    return errs


def check_refutation(cert, binary, ternary, cubic_mn, cubic_xyz):
    """A modulus certificate must list exactly the residues of the refuted
    factor (or, for a content certificate, divide every product
    coefficient) and miss both +1 and -1."""
    q = cert["modulus"]
    if q < 2:
        return ["certificate modulus %d" % q]
    claimed = set(cert["residues"])
    if 1 % q in claimed or (-1) % q in claimed:
        return ["certificate residues %s mod %d contain a unit value" % (sorted(claimed), q)]
    detail = cert["detail"]
    if detail.startswith("every coefficient divisible by"):
        bad = [a * b for a in cubic_mn for b in cubic_xyz
               if Fraction(a * b).denominator != 1 or int(a * b) % q]
        if bad or claimed != {0}:
            return ["content certificate mod %d does not divide the product" % q]
        return []
    if detail == "binary factor":
        got = residues(binary, BINARY_CUBIC, q)
    elif detail == "ternary factor":
        got = residues(ternary, TERNARY_CUBIC, q)
    else:
        return ["certificate names no factor: %r" % detail]
    if got != claimed:
        return ["%s residues mod %d are %s, certificate says %s"
                % (detail, q, sorted(got), sorted(claimed))]
    return []


def check_counterexample(cert):
    if cert is None:
        return ["the norm-42 matrix came back without a certificate"]
    errs = []
    if cert["modulus"] != COUNTEREXAMPLE_MODULUS:
        errs.append("norm-42 matrix refuted mod %d, paper says mod 7" % cert["modulus"])
    if tuple(cert["residues"]) != COUNTEREXAMPLE_RESIDUES:
        errs.append("norm-42 residues %s, paper says {0,2,5}" % (cert["residues"],))
    if cert["detail"] != "binary factor":
        errs.append("norm-42 refutation names %r, paper names the binary factor"
                    % cert["detail"])
    return errs


def check_census(counts):
    """``counts`` maps norm -> number of irreducible matrices enumerated."""
    return ["norm %d: %d irreducible matrices, paper says %d"
            % (n, counts.get(n), want)
            for n, want in CENSUS_COUNTS.items() if counts.get(n) != want]


def check_classification(counts):
    """``counts`` maps norm -> {label: count} over all hyperbolic matrices."""
    errs = []
    for n, want in CLASSIFY_COUNTS.items():
        got = {label: counts.get(n, {}).get(label, 0) for label in want}
        if got != want:
            errs.append("norm %d classes %s, paper says %s" % (n, got, want))
    return errs


def check_label(m, label, reference_discriminants):
    """A matched class must share the field: disc(C)/disc(R) is a square."""
    if label in ("other", "unresolved"):
        return []
    if label not in reference_discriminants:
        return ["unknown class label %r" % label]
    ratio = Fraction(discriminant(m), reference_discriminants[label])
    if ratio <= 0 or not (_is_square(ratio.numerator) and _is_square(ratio.denominator)):
        return ["%s labelled %s but disc ratio %s is not a square" % (m, label, ratio)]
    return []


def _is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


def check_invariant(ref, key):
    """Euler characteristic zero, and the paper's table for the reference."""
    v, e, f, profile = key
    errs = []
    if v - e + f != 0:
        errs.append("V - E + F = %d for a conjugate of %s" % (v - e + f, ref))
    want = REFERENCE_INVARIANTS[ref]
    if (v, e, f, tuple(map(tuple, profile))) != want:
        errs.append("conjugate of %s has invariant %s, paper says %s"
                    % (ref, (v, e, f, profile), want))
    return errs


def matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def check_conjugate(ref_matrix, p, p_inv, m):
    """m == P R P^-1 with det P == 1, all recomputed here."""
    ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    if matmul(p, p_inv) != ident:
        return ["conjugator and inverse do not multiply to E"]
    (a, b, c), (d, e, f), (g, h, i) = p
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 1:
        return ["conjugator does not have determinant 1"]
    if matmul(matmul(p, ref_matrix), p_inv) != m:
        return ["input is not the stated conjugate of its reference"]
    return []
