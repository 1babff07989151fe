"""Deciding whether integer forms attain the values +1 or -1.

Three engines, in increasing specificity:

* search_box: the first hit in an integer box in a fixed canonical order
  (shells of growing max-norm, then lexicographic with the per-coordinate
  value order 0 < 1 < -1 < 2 < -2 < ...), evaluated pass by pass in int64
  while every product provably fits and in exact integers past that, hits
  re-checked exactly.  The passes to shells 1, 3 and 7 are one product of
  a cached monomial table with the coefficients; each later pass is one
  box_values pass over the box of a BOX_LADDER rung, whose hit of least
  canonical key is the first hit;
* modular_obstruction: the smallest modulus q where the form's residue set
  misses both 1 and -1, which certifies unsolvability.  Only prime powers
  are scanned: for an odd form the smallest obstructing modulus is one.
  Each residue set is one box_values pass mod q;
* pell_decide: a decision for binary quadratics of positive nonsquare
  discriminant via the reduction cycle, capped at PELL_STEP_CAP steps.
  +-1 is represented exactly when it occurs among the leading coefficients
  of the cycle, and the witness is read off the accumulated change of
  basis.  Negative discriminants are decided by complete enumeration.

decide_form decides one cubic form: one box search, then the obstruction
scan on a miss.  decide_product runs it on both factors of the product of a
binary and a ternary cubic, whose values factor as content * f1 * f2 over
independent variables: a unit value exists exactly when the content is 1
and each primitive factor attains one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import isqrt

import numpy as np

from .forms import (BINARY_CUBIC_EXPONENTS, BINARY_QUAD_EXPONENTS,  # re-exported
                    TERNARY_CUBIC_EXPONENTS, evaluate_form)
from .intmat import is_square

UNIT_TARGETS = (1, -1)
BOX_LADDER = (12, 25, 50)
PELL_STEP_CAP = 100000


@dataclass(frozen=True)
class Caps:
    """Witness search box and obstruction modulus cap of a unit-value decision.

    The search scans the box ``box`` once, shell first; a witness reports the
    smallest rung of ``ladder`` (those of BOX_LADDER below ``box``, then
    ``box``) that holds it, so ``Caps()`` reports 12, 25 or 50.  A cap of 0
    disables its engine, which leaves decisions undecided on purpose.
    """

    box: int = 50
    modulus_cap: int = 100

    @property
    def ladder(self):
        return tuple(b for b in BOX_LADDER if b < self.box) + (self.box,)


@dataclass(frozen=True)
class Certificate:
    """Evidence that a form misses the unit values.

    kind "modulus": the residues attained mod ``modulus`` avoid 1 and -1.
    kind "cycle": the reduction cycle's leading coefficients avoid 1 and -1.
    kind "definite": a complete enumeration of the finite solution range.
    """

    kind: str
    modulus: int = 0
    residues: tuple = ()
    leading: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class Solvability:
    verdict: str                # "solvable" | "unsolvable" | "unknown"
    witness: tuple = None
    value: int = None
    certificate: Certificate = None
    search_bound: int = 0
    modulus_cap: int = 0


def _rank(v):
    # 0 < 1 < -1 < 2 < -2 < ...
    return 2 * abs(v) - (1 if v > 0 else 0)


def grid_coords(side, arity):
    """Coordinate columns of the grid side^arity, in lexicographic order."""
    return [g.ravel() for g in np.meshgrid(*([side] * arity), indexing="ij")]


def box_values(coeffs, exponents, side, q=0, first=None):
    """The form on the box side^arity as an (n, n^(arity-1)) array in
    lexicographic order, reduced mod q when q is given.  With ``first``, the
    first variable runs over ``first`` instead of ``side``, one row each.

    The monomials are grouped by the exponent of the first variable into
    coefficient tables over the other variables; Horner's rule in the first
    variable then evaluates the whole box.  The result has the dtype of
    ``side``: int64 when the caller rules out overflow (without q), object
    for exact Python integers.
    """
    if first is None:
        first = side
    def mod(a):
        return a % q if q else a

    rest = grid_coords(side, len(exponents[0]) - 1)
    tables = [np.zeros_like(rest[0]) for _ in range(max(e[0] for e in exponents) + 1)]
    for c, (e0, *exps) in zip(coeffs, exponents):
        term = np.full_like(rest[0], mod(c))
        for g, e in zip(rest, exps):
            for _ in range(e):
                term = mod(term * g)
        tables[e0] = mod(tables[e0] + term)
    total = tables[-1][None, :]
    for table in reversed(tables[:-1]):
        total = mod(total * first[:, None] + table)
    return total


def _canonical_order(cols):
    """Indices sorting the points ``cols`` by shell, then by _rank per
    coordinate."""
    ranks = [2 * np.abs(g) - (g > 0) for g in cols]
    return np.lexsort(ranks[::-1] + [np.max(np.abs(cols), axis=0)])


_TABLE_BOX = 7   # the third pass of search_box ends here
_TABLE_CACHE = {}


def _monomial_table(exponents):
    """The points of box _TABLE_BOX in canonical order, as tuples, and the
    monomial values on them as an int64 (points x monomials) array, built
    once per exponent table: one box_values pass per unit coefficient
    vector."""
    if exponents not in _TABLE_CACHE:
        side = np.arange(-_TABLE_BOX, _TABLE_BOX + 1, dtype=np.int64)
        cols = grid_coords(side, len(exponents[0]))
        order = _canonical_order(cols)
        table = np.column_stack([box_values(unit, exponents, side).ravel()[order]
                                 for unit in np.eye(len(exponents), dtype=int).tolist()])
        _TABLE_CACHE[exponents] = (list(zip(*(g[order].tolist() for g in cols))), table)
    return _TABLE_CACHE[exponents]


def search_box(coeffs, exponents, bound, targets=UNIT_TARGETS):
    """First point, in canonical order, where the form hits a target value.

    Returns (point, value) or None.  The passes end at shells 1, 3 and 7,
    then at the rungs of BOX_LADDER, capped at ``bound``, and the search
    stops at the first pass with a hit, so a hit within rung b costs no
    more than a search of box b.  The passes inside box _TABLE_BOX each
    take the new points of a cached monomial table, in canonical order, and
    return their first hit.  A later pass evaluates its whole box with
    box_values and returns the hit of least canonical key (shell, then
    _rank per coordinate): the earlier passes cleared the inner box, so it
    is the first hit in canonical order.  A pass runs in int64 when every
    intermediate product on its box provably fits, and on exact Python
    integers otherwise.  Hits are re-verified exactly.
    """
    coeffs = tuple(map(int, coeffs))
    degree = max(map(sum, exponents))
    weight = sum(map(abs, coeffs))
    arity = len(exponents[0])
    points, table = _monomial_table(exponents)
    done = 0   # table rows already evaluated
    for rung in (1, 3, _TABLE_BOX, *BOX_LADDER, bound):
        shell = min(rung, bound)
        exact = max(weight * max(1, shell) ** degree, *map(abs, targets)) >= 2 ** 62
        if shell <= _TABLE_BOX:
            rows = table[done:(2 * shell + 1) ** arity]
            total = rows.astype(object) @ np.array(coeffs, dtype=object) if exact else rows @ coeffs
        else:
            side = np.arange(-shell, shell + 1, dtype=np.int64)
            total = box_values(coeffs, exponents, side.astype(object) if exact else side)
        mask = total == targets[0]
        for t in targets[1:]:
            mask |= total == t
        if shell <= _TABLE_BOX:
            k = int(mask.argmax())
            point = points[done + k] if mask[k] else None
            done += len(rows)
        else:
            hits = np.flatnonzero(mask)
            cols = [side[i] for i in np.unravel_index(hits, (side.size,) * arity)]
            point = tuple(int(g[_canonical_order(cols)[0]]) for g in cols) if hits.size else None
        if point is not None:
            value = evaluate_form(coeffs, exponents, point)
            assert value in targets
            return point, value
        if shell == bound:
            return None


@lru_cache(maxsize=65536)
def _residues_mod(coeffs, exponents, q):
    """All residues the form attains on (Z/q)^arity."""
    seen = np.zeros(q, dtype=bool)
    seen[box_values(coeffs, exponents, np.arange(q, dtype=np.int64), q).ravel()] = True
    return frozenset(np.flatnonzero(seen).tolist())


def _is_prime_power(q):
    p = _smallest_prime_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def modular_obstruction(coeffs, exponents, cap, targets=UNIT_TARGETS):
    """Smallest q <= cap whose residue set avoids every target, or None.

    Only prime powers q are scanned, and the answer is still the smallest
    obstructing modulus.  By the Chinese remainder theorem the residue set
    mod a coprime product q1*q2 is the product of the sets mod q1 and mod
    q2, so a single target missed mod q1*q2 is already missed mod q1 or
    mod q2.  For the targets {t, -t} this needs every residue set to be
    closed under negation, which holds when every monomial has odd degree
    (then F(-v) = -F(v)).  Other targets or forms raise ValueError.
    """
    coeffs = tuple(int(c) for c in coeffs)
    wanted = set(targets)
    if len(wanted) > 1 and not (
            len(wanted) == 2 and sum(wanted) == 0
            and all(sum(e) % 2 for e in exponents)):
        raise ValueError("the prime-power scan needs one target, or targets "
                         "{t, -t} and a form of odd degree")
    for q in filter(_is_prime_power, range(2, cap + 1)):
        got = _residues_mod(coeffs, exponents, q)
        if not any(t % q in got for t in targets):
            return Certificate(kind="modulus", modulus=q,
                               residues=tuple(sorted(got)))
    return None


# ---------------------------------------------------------------- quadratics

def _reduced(a, b, s):
    return 0 < b <= s and 2 * abs(a) + b >= s + 1 and 2 * abs(a) - b <= s


def _rho(a, b, c, d, s):
    """One reduction / cycle step (a, b, c) -> (c, r, (r^2 - d) / 4c)."""
    ac = abs(c)
    lo = -ac + 1 if ac > s else s + 1 - 2 * ac
    r = lo + (-b - lo) % (2 * ac)
    assert (r + b) % (2 * ac) == 0
    assert (r * r - d) % (4 * c) == 0
    t = (r + b) // (2 * c)
    return (c, r, (r * r - d) // (4 * c)), t


def pell_decide(qf):
    """Complete unit-value decision for positive nonsquare discriminant.

    Iterates the reduction step, tracking the change of basis v.  Any form
    along the way with leading coefficient +-1 yields the witness v(1, 0);
    once the walk returns to the first reduced form without one, the cycle
    of leading coefficients certifies unsolvability.  A walk that has not
    closed after PELL_STEP_CAP steps comes back unknown.
    """
    d = qf.discriminant()
    if d <= 0 or is_square(d):
        raise ValueError("pell_decide needs a positive nonsquare discriminant")
    s = isqrt(d)
    a, b, c = qf.p, qf.q, qf.r
    v = ((1, 0), (0, 1))
    cycle_start = None
    leadings = []
    for _ in range(PELL_STEP_CAP):
        if a in (1, -1):
            witness = (v[0][0], v[1][0])
            value = qf.evaluate(*witness)
            assert value == a
            return Solvability("solvable", witness=witness, value=value)
        if _reduced(a, b, s):
            if cycle_start is None:
                cycle_start = (a, b, c)
            elif (a, b, c) == cycle_start:
                return Solvability("unsolvable", certificate=Certificate(
                    kind="cycle", leading=tuple(leadings)))
            leadings.append(a)
        (a, b, c), t = _rho(a, b, c, d, s)
        v = ((v[0][1], -v[0][0] + v[0][1] * t),
             (v[1][1], -v[1][0] + v[1][1] * t))
    return Solvability("unknown")


def _decide_definite(qf):
    """Negative discriminant: the unit solutions lie in a finite strip."""
    p, q, r = qf.as_tuple()
    d = qf.discriminant()
    assert d < 0 and p != 0
    sign = 1 if p > 0 else -1
    a, b = sign * p, sign * q
    # sign * qf is positive definite; value 1 forces (2ax+by)^2 - d y^2 = 4a
    ymax = isqrt(4 * a // (-d))
    for y in range(-ymax, ymax + 1):
        rem = 4 * a + d * y * y
        if rem < 0:
            continue
        w = isqrt(rem)
        if w * w != rem:
            continue
        for root in {w, -w}:
            if (root - b * y) % (2 * a) == 0:
                x = (root - b * y) // (2 * a)
                value = qf.evaluate(x, y)
                assert value == sign
                return Solvability("solvable", witness=(x, y), value=value)
    return Solvability("unsolvable", certificate=Certificate(
        kind="definite", detail="complete enumeration, |y| <= %d" % ymax))


def _smallest_prime_factor(n):
    assert n > 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def _content_certificate(cont):
    p = _smallest_prime_factor(cont)
    return Solvability("unsolvable", certificate=Certificate(
        kind="modulus", modulus=p, residues=(0,),
        detail="every coefficient divisible by %d" % p))


def decide_quadratic(qf):
    """Does a binary quadratic attain +1 or -1?

    Square discriminants are rejected: q2 of an irreducible matrix never
    has one.  Unknown only when the Pell walk reaches its step cap.
    """
    cont = qf.content()
    if cont > 1:
        return _content_certificate(cont)
    d = qf.discriminant()
    if d < 0:
        return _decide_definite(qf)
    return pell_decide(qf)


# ---------------------------------------------------------------- products

def decide_form(coeffs, exponents, caps=Caps()):
    """Does one odd cubic form attain +1 or -1?  One search of the box
    ``caps.box``, whose witness reports the smallest rung of ``caps.ladder``
    that holds it, else the obstruction scan up to ``caps.modulus_cap``."""
    hit = search_box(coeffs, exponents, caps.box)
    if hit is not None:
        shell = max(map(abs, hit[0]))
        return Solvability("solvable", witness=hit[0], value=hit[1],
                           search_bound=min(b for b in caps.ladder if b >= shell))
    cert = modular_obstruction(coeffs, exponents, caps.modulus_cap)
    return Solvability("unknown" if cert is None else "unsolvable", certificate=cert,
                       search_bound=caps.box, modulus_cap=caps.modulus_cap)


def decide_product(pf, caps=Caps()):
    """Does the five-variable product attain +1 or -1?

    With content 1 the question splits exactly: each primitive factor must
    attain a unit value on its own variables, and the first factor refuted,
    binary then ternary, certifies the product; content > 1 is itself a
    certificate.
    """
    if pf.content > 1:
        return _content_certificate(pf.content)
    sols = []
    for prim, exponents, name in ((pf.mn_primitive, BINARY_CUBIC_EXPONENTS, "binary factor"),
                                  (pf.xyz_primitive, TERNARY_CUBIC_EXPONENTS, "ternary factor")):
        sols.append(decide_form(prim, exponents, caps))
        if sols[-1].verdict == "unsolvable":
            return replace(sols[-1], certificate=replace(sols[-1].certificate, detail=name))
    binary, ternary = sols
    if "unknown" in (binary.verdict, ternary.verdict):
        return Solvability("unknown", search_bound=caps.box, modulus_cap=caps.modulus_cap)
    witness = ternary.witness + binary.witness
    value = pf.evaluate(*witness[:3], *witness[3:])
    assert abs(value) == 1
    return Solvability("solvable", witness=witness, value=value,
                       search_bound=max(binary.search_bound, ternary.search_bound))
