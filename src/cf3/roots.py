"""Exact real-root isolation and sign certification for polynomials.

Polynomials are tuples of integer coefficients in descending degree order.
Points and intervals are dyadic, so every step runs on integers: the triple
(lo, hi, k) is the interval [lo/2^k, hi/2^k], and a width (w, k) is w/2^k.
Root counting uses Sturm chains of pseudo-remainders, and signs are only
read from interval evaluations that exclude zero.

Roots are taken from monic integer polynomials without rational roots, such
as chi of a hyperbolic matrix: every bisection point is dyadic, so none of
them is a root.  ``sign_at_root`` takes its root from an irreducible p, so a
polynomial vanishes there only when p divides it.
"""

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


def poly_mod(p, q):
    """|lead(q)|^s * (p mod q) with s = max(deg p - deg q + 1, 0).

    That is the remainder itself for monic q, and a positive multiple of it
    otherwise, which keeps every sign a Sturm chain reads.
    """
    p, q = poly_strip(p), poly_strip(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    a = abs(q[0])
    rem = list(p)
    while len(rem) >= len(q):
        f = rem[0] if q[0] > 0 else -rem[0]
        rem = ([a * x - f * y for x, y in zip(rem[1:], q[1:])]
               + [a * x for x in rem[len(q):]])
    return poly_strip(rem)


def _eval_at(p, x, k):
    """2^(k*deg p) * p(x/2^k): an integer with the sign of p at x/2^k."""
    acc = 0
    for t, c in enumerate(p):
        acc = acc * x + (c << k * t)
    return acc


def interval_eval(p, interval):
    """Exact enclosure (lo, hi, e) of p over a dyadic interval by interval
    Horner evaluation."""
    lo, hi, k = interval
    alo = ahi = 0
    for t, c in enumerate(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        c <<= k * t
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi, k * max(len(p) - 1, 0)


def sturm_chain(p):
    chain = [poly_strip(p), poly_derivative(p)]
    while chain[-1]:
        chain.append(poly_scale(poly_mod(chain[-2], chain[-1]), -1))
    chain.pop()
    return chain


def sign_variations(chain, x, k):
    signs = [v > 0 for v in (_eval_at(p, x, k) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, interval):
    """Number of distinct real roots in the half-open interval (a, b]."""
    lo, hi, k = interval
    if not lo < hi:
        raise ValueError("need a < b")
    return sign_variations(chain, lo, k) - sign_variations(chain, hi, k)


def _bisect(p, interval, neg_lo):
    """The half of a sign-change bracket of p, negative at its left end
    when ``neg_lo``, that keeps the sign change."""
    lo, hi, k = interval
    mid = lo + hi
    v = _eval_at(p, mid, k + 1)
    assert v, "bisection point is a rational root"
    return (mid, 2 * hi, k + 1) if (v < 0) == neg_lo else (2 * lo, mid, k + 1)


def isolate_real_roots(p):
    """Disjoint isolating intervals for all real roots of a squarefree monic p.

    Returns a sorted list of dyadic triples, one per real root, with p
    nonzero and of opposite signs at the two ends.
    """
    p = poly_strip(p)
    if poly_degree(p) < 1 or p[0] != 1:
        raise ValueError("need a monic nonconstant polynomial")
    chain = sturm_chain(p)
    if poly_degree(chain[-1]) != 0:
        raise ValueError("polynomial must be squarefree")
    bound = 1 + max(abs(c) for c in p[1:])
    out = []

    def split(lo, hi, k, n):
        if n == 1:
            out.append((lo, hi, k))
        elif n > 1:
            mid = lo + hi
            assert _eval_at(p, mid, k + 1), "bisection point is a rational root"
            left = count_roots(chain, (2 * lo, mid, k + 1))
            split(2 * lo, mid, k + 1, left)
            split(mid, 2 * hi, k + 1, n - left)

    split(-bound, bound, 0, count_roots(chain, (-bound, bound, 0)))
    for lo, hi, k in out:
        assert _eval_at(p, lo, k) * _eval_at(p, hi, k) < 0
    return out


def refine_interval(p, interval, width):
    """Shrink a sign-change bracket of p to at most the dyadic ``width``
    by bisection."""
    w, e = width
    neg_lo = _eval_at(p, interval[0], interval[2]) < 0
    while (interval[1] - interval[0]) << e > w << interval[2]:
        interval = _bisect(p, interval, neg_lo)
    return interval


def sign_at_root(g, p, interval, max_bisections=4000):
    """Exact sign of g at the unique root of p inside the bracket.

    p must be irreducible over Q: then g vanishes at the root exactly when
    p divides it, and otherwise the sign is only ever read from an interval
    evaluation that excludes zero.  Straddling intervals trigger further
    bisection of the bracket, and running out of bisections raises
    CoverageError.
    """
    g = poly_mod(g, p)
    if not g:
        return 0
    neg_lo = _eval_at(p, interval[0], interval[2]) < 0
    for _ in range(max_bisections):
        glo, ghi, _ = interval_eval(g, interval)
        if glo > 0:
            return 1
        if ghi < 0:
            return -1
        interval = _bisect(p, interval, neg_lo)
    raise CoverageError("sign not separated after %d bisections"
                        % max_bisections)
