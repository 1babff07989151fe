"""Tests for exact root isolation and polynomial arithmetic.

Intervals and widths are dyadic: (lo, hi, k) is [lo/2^k, hi/2^k].  The
``oracle_*`` functions are the rational-arithmetic root isolation that the
integer code replaced; the properties check that both give the same
rationals.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cf3.errors import CoverageError
from cf3.intmat import CharCubic
from cf3.roots import (
    count_roots,
    interval_eval,
    isolate_real_roots,
    poly_add,
    poly_degree,
    poly_derivative,
    poly_mod,
    poly_mul,
    poly_scale,
    poly_strip,
    refine_interval,
    sign_at_root,
    sturm_chain,
)


def poly_eval(p, x):
    """Horner evaluation of an integer or rational polynomial at x."""
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def oracle_divmod(num, den):
    """Quotient and remainder over Q; ``den`` must be nonzero."""
    num, den = poly_strip(num), poly_strip(den)
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


def oracle_interval_eval(p, lo, hi):
    """Exact enclosure of p over [lo, hi] by interval Horner evaluation."""
    lo, hi = Fraction(lo), Fraction(hi)
    alo = ahi = Fraction(0)
    for c in p:
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def oracle_isolate(p):
    """Sturm bisection over Q for a squarefree p without rational roots."""
    chain = [poly_strip(p), poly_derivative(p)]
    while chain[-1]:
        chain.append(poly_scale(oracle_divmod(chain[-2], chain[-1])[1], -1))
    chain.pop()

    def variations(x):
        signs = [v > 0 for v in (poly_eval(q, x) for q in chain) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    lead = Fraction(p[0])
    bound = 1 + max(abs(Fraction(c) / lead) for c in p[1:])
    out = []

    def split(lo, hi, n):
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            left = variations(lo) - variations(mid)
            split(lo, mid, left)
            split(mid, hi, n - left)

    split(-bound, bound, variations(-bound) - variations(bound))
    return out


def oracle_refine(p, lo, hi, width):
    """Shrink a sign-change bracket of p below ``width`` by bisection."""
    neg_lo = poly_eval(p, lo) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (poly_eval(p, mid) < 0) == neg_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def oracle_sign(g, p, lo, hi):
    """Sign of g at the root of p in [lo, hi], refining over Q."""
    rem = oracle_divmod(g, p)[1]
    while rem:
        glo, ghi = oracle_interval_eval(rem, lo, hi)
        if glo > 0 or ghi < 0:
            return 1 if glo > 0 else -1
        lo, hi = oracle_refine(p, lo, hi, (hi - lo) / 2)
    return 0


def rational(interval):
    lo, hi, k = interval
    return Fraction(lo, 2**k), Fraction(hi, 2**k)


def test_poly_basics():
    assert poly_strip((0, 0, 3, 1)) == (3, 1)
    assert poly_strip((0, 0)) == ()
    assert poly_degree((0, 5)) == 0
    assert poly_degree(()) == -1
    assert poly_eval((1, -3, 2), 3) == 2
    assert poly_derivative((1, 0, -3, -1)) == (3, 0, -3)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)


def test_divmod_random_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if not poly_strip(den):
            continue
        quo, rem = oracle_divmod(num, den)
        recon = poly_strip(tuple(map(Fraction, poly_mul(quo, den)))) if quo else ()
        assert poly_add(recon, rem) == tuple(map(Fraction, poly_strip(num)))
        assert poly_degree(rem) < poly_degree(poly_strip(den))
        steps = max(poly_degree(num) - poly_degree(den) + 1, 0)
        assert poly_mod(num, den) == poly_scale(rem, abs(poly_strip(den)[0]) ** steps)


def test_sturm_counts_cubic_with_known_roots():
    p = poly_mul(poly_mul((1, -1), (1, -2)), (1, -3))
    chain = sturm_chain(p)
    assert count_roots(chain, (0, 4, 0)) == 3
    assert count_roots(chain, (1, 3, 0)) == 2  # roots in (1, 3]: 2 and 3
    assert count_roots(chain, (3, 5, 1)) == 1


def test_isolation_disjoint_and_correct():
    p = (1, 1, -2, -1)
    pairs = [rational(iv) for iv in isolate_real_roots(p)]
    assert len(pairs) == 3
    for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
        assert b1 <= a2
    for lo, hi in pairs:
        assert poly_eval(p, lo) * poly_eval(p, hi) < 0


def test_isolation_hits_rational_midpoint():
    # Roots -1, 0, 1 with Cauchy bound 2: the first bisection point is the
    # root 0, outside the contract of a polynomial without rational roots.
    with pytest.raises(AssertionError, match="rational root"):
        isolate_real_roots((1, 0, -1, 0))


def test_isolation_rejects_non_squarefree():
    with pytest.raises(ValueError):
        isolate_real_roots(poly_mul((1, -1), (1, -1)))


def test_refine_interval():
    p = (1, 0, -2)
    interval = refine_interval(p, isolate_real_roots(p)[1], (1, 40))
    lo, hi = rational(interval)
    assert hi - lo <= Fraction(1, 10**12)
    assert lo * lo < 2 < hi * hi


def test_sign_at_root_basic():
    p = (1, 0, -2)
    pairs = isolate_real_roots(p)
    # g = x is negative at -sqrt(2), positive at sqrt(2).
    assert sign_at_root((1, 0), p, pairs[0]) == -1
    assert sign_at_root((1, 0), p, pairs[1]) == 1
    # Any multiple of p vanishes at both roots.
    assert sign_at_root(poly_mul(p, (3, 1)), p, pairs[0]) == 0


def test_sign_at_root_bisection_cap_raises_coverage_error():
    # 2x - 3 straddles zero on the bracket [1, 2] of sqrt(2) until it is
    # bisected, so with no bisections allowed its sign cannot be separated.
    p = (1, 0, -2)
    assert sign_at_root((2, -3), p, (1, 2, 0)) == -1
    with pytest.raises(CoverageError, match="sign not separated"):
        sign_at_root((2, -3), p, (1, 2, 0), max_bisections=0)


def test_sign_at_root_tight_values():
    # Distinguishing g(theta) values around 1e-30 still terminates exactly.
    p = (1, 0, -2)
    interval = isolate_real_roots(p)[1]
    scale = 10**30
    # g = x^2 - 2 + 1e-30, scaled to integers, is positive at the root.
    assert sign_at_root((scale, 0, -2 * scale + 1), p, interval) == 1
    assert sign_at_root((scale, 0, -2 * scale - 1), p, interval) == -1


def test_interval_eval_containment():
    rng = random.Random(11)
    for _ in range(120):
        p = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))
        k = rng.randint(0, 4)
        lo = rng.randint(-8, 8) * 2**k // rng.randint(1, 5)
        hi = lo + rng.randint(0, 7) * 2**k // rng.randint(1, 4)
        vlo, vhi, e = interval_eval(p, (lo, hi, k))
        for t in range(5):
            x = Fraction(lo, 2**k) + Fraction(hi - lo, 2**k) * Fraction(t, 4)
            assert Fraction(vlo, 2**e) <= poly_eval(p, x) <= Fraction(vhi, 2**e)


def _near_roots(r, d):
    # (x - r0)(x - r1)(x - r2) - d: coefficients up to 10^6
    return CharCubic(sum(r), r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
                     r[0] * r[1] * r[2] + d)


# Monic cubics with three real irrational roots: small coefficients, and
# large ones from a shifted product of three distinct linear factors.
HYPERBOLIC_CUBICS = st.one_of(
    st.builds(CharCubic, *[st.integers(-9, 9)] * 3),
    st.builds(_near_roots, st.lists(st.integers(-100, 100), min_size=3, max_size=3,
                                    unique=True), st.integers(-1000, 1000)),
).filter(lambda cc: cc.is_irreducible() and cc.is_real_rooted()).map(
    lambda cc: (1,) + cc.monic())
SMALL_POLYS = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5).map(tuple)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(HYPERBOLIC_CUBICS, SMALL_POLYS, st.integers(1, 80))
def test_dyadic_roots_match_rational_oracle(p, g, bits):
    """Isolation, refinement, enclosures and signs equal the rational
    oracle's, as rationals."""
    intervals = isolate_real_roots(p)
    want = oracle_isolate(p)
    assert [rational(iv) for iv in intervals] == want
    for iv, (lo, hi) in zip(intervals, want):
        fine = refine_interval(p, iv, (1, bits))
        flo, fhi = oracle_refine(p, lo, hi, Fraction(1, 2**bits))
        assert rational(fine) == (flo, fhi)
        glo, ghi, e = interval_eval(g, fine)
        assert (Fraction(glo, 2**e), Fraction(ghi, 2**e)) == oracle_interval_eval(g, flo, fhi)
        assert sign_at_root(g, p, iv) == oracle_sign(g, p, lo, hi)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(SMALL_POLYS, SMALL_POLYS.filter(any))
def test_poly_mod_is_a_scaled_remainder(p, q):
    steps = max(poly_degree(p) - poly_degree(q) + 1, 0)
    scale = abs(poly_strip(q)[0]) ** steps
    assert poly_mod(p, q) == poly_scale(oracle_divmod(p, q)[1], scale)
