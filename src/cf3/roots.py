"""Exact real-root isolation and sign certification for polynomials.

Polynomials are tuples of coefficients in descending degree order, with int
or Fraction entries.  Every decision here is exact: root counting uses Sturm
chains, intervals have rational endpoints, and signs are only read from
interval evaluations that exclude zero.  ``sign_at_root`` takes its root
from an irreducible p, so a polynomial vanishes there only when p divides
it.
"""

from fractions import Fraction

from .errors import CoverageError


def poly_strip(p):
    """Drop leading zero coefficients; the zero polynomial becomes ()."""
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return tuple(p[i:])


def poly_degree(p):
    p = poly_strip(p)
    return len(p) - 1


def poly_eval(p, x):
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def poly_derivative(p):
    p = poly_strip(p)
    n = len(p) - 1
    return poly_strip(tuple(c * (n - i) for i, c in enumerate(p[:-1])))


def poly_scale(p, s):
    return poly_strip(tuple(c * s for c in p))


def poly_add(p, q):
    p, q = tuple(p), tuple(q)
    if len(p) < len(q):
        p, q = q, p
    off = len(p) - len(q)
    return poly_strip(p[:off] + tuple(p[off + i] + q[i] for i in range(len(q))))


def poly_mul(p, q):
    p, q = poly_strip(p), poly_strip(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_divmod(num, den):
    """Quotient and remainder over Q; ``den`` must be nonzero."""
    num, den = poly_strip(num), poly_strip(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in num]
    lead = Fraction(den[0])
    qlen = len(num) - len(den) + 1
    if qlen <= 0:
        return (), tuple(rem)
    quo = [Fraction(0)] * qlen
    for i in range(qlen):
        f = rem[i] / lead
        quo[i] = f
        if f:
            for j, c in enumerate(den):
                rem[i + j] -= f * c
    return poly_strip(quo), poly_strip(rem)


def poly_mod(p, q):
    return poly_divmod(p, q)[1]


def poly_gcd(p, q):
    """Monic gcd over Q (a nonzero constant gcd is returned as (1,))."""
    a, b = poly_strip(p), poly_strip(q)
    while b:
        a, b = b, poly_mod(a, b)
    if not a:
        return ()
    return poly_scale(a, Fraction(1, 1) / a[0])


def interval_eval(p, lo, hi):
    """Exact enclosure of p over [lo, hi] by interval Horner evaluation."""
    lo, hi = Fraction(lo), Fraction(hi)
    alo = ahi = Fraction(0)
    for c in p:
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def sturm_chain(p):
    chain = [poly_strip(p), poly_derivative(p)]
    while chain[-1]:
        rem = poly_mod(chain[-2], chain[-1])
        chain.append(poly_scale(rem, -1))
    chain.pop()
    return chain


def sign_variations(chain, x):
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, a, b):
    """Number of distinct real roots in the half-open interval (a, b]."""
    if not a < b:
        raise ValueError("need a < b")
    return sign_variations(chain, a) - sign_variations(chain, b)


def _midpoint_avoiding_roots(p, lo, hi):
    # Nudge dyadically until the split point is not a root itself.
    mid = (lo + hi) / 2
    step = (hi - lo) / 4
    while poly_eval(p, mid) == 0:
        mid += step
        step /= 2
    return mid


def isolate_real_roots(p):
    """Disjoint isolating intervals for all real roots of a squarefree p.

    Returns a sorted list of (lo, hi) Fraction pairs, one per real root, with
    p(lo) and p(hi) nonzero and of opposite signs.
    """
    p = poly_strip(p)
    if poly_degree(p) < 1:
        raise ValueError("need a nonconstant polynomial")
    if poly_degree(poly_gcd(p, poly_derivative(p))) != 0:
        raise ValueError("polynomial must be squarefree")
    chain = sturm_chain(p)
    lead = Fraction(p[0])
    bound = 1 + max(abs(Fraction(c) / lead) for c in p[1:]) if len(p) > 1 else Fraction(1)
    out = []

    def split(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = _midpoint_avoiding_roots(p, lo, hi)
        left = count_roots(chain, lo, mid)
        split(lo, mid, left)
        split(mid, hi, n - left)

    split(-bound, bound, count_roots(chain, -bound, bound))
    # Sharpen (a, b] counting intervals into sign-change brackets.
    brackets = []
    for lo, hi in out:
        slo = poly_eval(p, lo)
        shi = poly_eval(p, hi)
        assert slo != 0 and shi != 0 and (slo > 0) != (shi > 0)
        brackets.append((lo, hi))
    return brackets


def refine_interval(p, lo, hi, width):
    """Shrink a sign-change bracket of p below ``width`` by bisection."""
    slo = poly_eval(p, lo)
    assert slo != 0 and poly_eval(p, hi) != 0
    neg_lo = slo < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = poly_eval(p, mid)
        if v == 0:
            return mid, mid
        if (v < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sign_at_root(g, p, lo, hi, max_bisections=4000):
    """Exact sign of g at the unique root of p inside the bracket [lo, hi].

    p must be irreducible over Q: then g vanishes at the root exactly when
    p divides it, and otherwise the sign is only ever read from an interval
    evaluation that excludes zero.  Straddling intervals trigger further
    bisection of the bracket, and running out of bisections raises
    CoverageError.
    """
    g = poly_mod(g, p)
    if not g:
        return 0
    slo = poly_eval(p, lo)
    assert slo != 0 and poly_eval(p, hi) != 0
    neg_lo = slo < 0
    for _ in range(max_bisections):
        glo, ghi = interval_eval(g, lo, hi)
        if glo > 0:
            return 1
        if ghi < 0:
            return -1
        mid = (lo + hi) / 2
        v = poly_eval(p, mid)
        if v == 0:
            val = poly_eval(g, mid)
            assert val != 0
            return 1 if val > 0 else -1
        if (v < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    raise CoverageError("sign not separated after %d bisections"
                        % max_bisections)
