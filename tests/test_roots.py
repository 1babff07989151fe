"""Tests for exact root isolation and polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from cf3.errors import CoverageError
from cf3.roots import (
    count_roots,
    interval_eval,
    isolate_real_roots,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_strip,
    refine_interval,
    sign_at_root,
    sturm_chain,
)


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
        quo, rem = poly_divmod(num, den)
        recon = poly_strip(tuple(map(Fraction, poly_mul(quo, den)))) if quo else ()
        from cf3.roots import poly_add

        assert poly_add(recon, rem) == tuple(map(Fraction, poly_strip(num)))
        assert poly_degree(rem) < poly_degree(poly_strip(den))


def test_poly_gcd():
    p = poly_mul((1, -1), (1, 0, 1))
    q = poly_mul((1, -1), (1, 2))
    assert poly_gcd(p, q) == (1, -1)


def test_sturm_counts_cubic_with_known_roots():
    p = poly_mul(poly_mul((1, -1), (1, -2)), (1, -3))
    chain = sturm_chain(p)
    assert count_roots(chain, 0, 4) == 3
    assert count_roots(chain, 1, 3) == 2  # roots in (1, 3]: 2 and 3
    assert count_roots(chain, Fraction(3, 2), Fraction(5, 2)) == 1


def test_isolation_disjoint_and_correct():
    p = (1, 1, -2, -1)
    pairs = isolate_real_roots(p)
    assert len(pairs) == 3
    for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
        assert b1 <= a2
    for lo, hi in pairs:
        assert poly_eval(p, lo) * poly_eval(p, hi) < 0


def test_isolation_hits_rational_midpoint():
    # Roots -1, 0, 1 with Cauchy bound 2: the first midpoint is the root 0,
    # exercising the nudge path.
    p = (1, 0, -1, 0)
    pairs = isolate_real_roots(p)
    assert len(pairs) == 3
    roots = [-1, 0, 1]
    for (lo, hi), r in zip(pairs, roots):
        assert lo < r <= hi or lo <= r <= hi


def test_isolation_rejects_non_squarefree():
    with pytest.raises(ValueError):
        isolate_real_roots(poly_mul((1, -1), (1, -1)))


def test_refine_interval():
    p = (1, 0, -2)
    (lo, hi) = isolate_real_roots(p)[1]
    lo, hi = refine_interval(p, lo, hi, Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    assert lo * lo < 2 < hi * hi or (lo == hi and lo * lo == 2)


def test_sign_at_root_basic():
    p = (1, 0, -2)
    pairs = isolate_real_roots(p)
    # g = x is negative at -sqrt(2), positive at sqrt(2).
    assert sign_at_root((1, 0), p, *pairs[0]) == -1
    assert sign_at_root((1, 0), p, *pairs[1]) == 1
    # Any multiple of p vanishes at both roots.
    assert sign_at_root(poly_mul(p, (3, 1)), p, *pairs[0]) == 0


def test_sign_at_root_bisection_cap_raises_coverage_error():
    # 2x - 3 straddles zero on the bracket [1, 2] of sqrt(2) until it is
    # bisected, so with no bisections allowed its sign cannot be separated.
    p = (1, 0, -2)
    assert sign_at_root((2, -3), p, 1, 2) == -1
    with pytest.raises(CoverageError, match="sign not separated"):
        sign_at_root((2, -3), p, 1, 2, max_bisections=0)


def test_sign_at_root_tight_values():
    # Distinguishing g(theta) values around 1e-30 still terminates exactly.
    p = (1, 0, -2)
    lo, hi = isolate_real_roots(p)[1]
    tiny = Fraction(1, 10**30)
    # g = x^2 - 2 + tiny is positive exactly by tiny at the root.
    assert sign_at_root((1, 0, -2 + tiny), p, lo, hi) == 1
    assert sign_at_root((1, 0, -2 - tiny), p, lo, hi) == -1


def test_interval_eval_containment():
    rng = random.Random(11)
    for _ in range(120):
        p = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))
        lo = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        hi = lo + Fraction(rng.randint(0, 7), rng.randint(1, 4))
        vlo, vhi = interval_eval(p, lo, hi)
        for t in range(5):
            x = lo + (hi - lo) * Fraction(t, 4)
            assert vlo <= poly_eval(p, x) <= vhi
