"""Frobenius type decisions and the matching of periodic fractions.

A matrix is of Frobenius type when some SL(k,Z) conjugate commutes with a
Frobenius matrix

    k = 2: [[0, 1], [a2, a1]]      k = 3: [[0,1,0], [0,0,1], [a3,a2,a1]].

For k = 2 the question is equivalent to the quadratic q2 attaining +-1, and
a witness converts directly into a conjugator: its primitive part becomes
the first row of an SL(2,Z) matrix, after which the conjugated matrix
satisfies the divisibility conditions for commuting with some Frobenius
matrix.  For k = 3 the question is equivalent to the five-variable product
q3 attaining +-1, searched in one box and obstructed modularly.

classify_fraction matches a hyperbolic matrix against reference Frobenius
matrices.  C matches R exactly when some X in SL(3,Z) makes X C X^-1
commute with R, equivalently when some integer element Y of C's commutant
with char(Y) = char(R) is conjugate to R.  The search is exact:

* candidates Y = uE + vA + wB are the integer representations
  Q(v, w) = T by the trace form Q, a positive definite binary quadratic
  form, of the integer T that char(R) fixes (u is pinned by the trace);
  those with char(Y) = char(R) are kept;
* R is multiplication by x on Q[x]/(chi) in the basis 1, x, x^2, so the
  integer solutions of XY = RX are exactly X = [v; vY; vY^2] for v in Z^3
  (Latimer-MacDuffee-Taussky), and det X is the cyclic-vector form
  det[v; vY; vY^2] of the pair (Y, Y^2), an integer ternary cubic;
* a unimodular point of that cubic (a -1 is absorbed by negating X, the
  dimension being odd) yields the conjugator, which is then verified.

An empty candidate set refutes the match, and so do modular obstructions of
all the candidates' cubics; only a cubic that is neither hit in the search
box nor obstructed leaves the matrix unresolved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from math import gcd, isqrt

from .census import (HYPERBOLIC, M_ONLY, REDUCIBLE, classify_matrix,
                     matrices_in_class, matrix_from_flat, sphere_size)
from .commutant import commutant_basis
from .forms import cyclic_form, q2, q3
from .forms import det_form  # noqa: F401  - traced name, no caller here
from .intmat import (IntMat, adjugate, char_cubic, format_matrix,
                     is_irreducible, is_square)
from .parallel import parallel_map_chunked
from .solver import (TERNARY_CUBIC_EXPONENTS, Caps, _rank, decide_form,
                     decide_product, decide_quadratic)
from .solver import search_box  # noqa: F401  - traced name, no caller here
from .solver import BOX_LADDER  # re-exported: the default 3x3 search ladder
from .zlinalg import xgcd
from .zlinalg import hnf_basis  # noqa: F401  - traced name, no caller here

CLASSIFY_CAPS = Caps(box=24)
CLASSIFY_DET_BOXES = CLASSIFY_CAPS.ladder  # the benchmark's warm-up reads it

LABELS = ("golden_ratio", "M_-1_3_1", "M_0_3_1", "other", "unresolved")


@dataclass(frozen=True)
class FrobeniusParams:
    values: tuple

    def matrix(self):
        return frobenius_matrix(self.values)


REFERENCE_PARAMS = (
    ("golden_ratio", FrobeniusParams((-1, 2, 1))),
    ("M_-1_3_1", FrobeniusParams((-1, 3, 1))),
    ("M_0_3_1", FrobeniusParams((0, 3, 1))),
)


def frobenius_matrix(values):
    """The Frobenius matrix with parameters (a1, ..., ak): an identity
    shifted above the diagonal, bottom row (ak, ..., a1)."""
    k = len(values)
    if k not in (2, 3):
        raise ValueError("need 2 or 3 parameters")
    rows = [[int(j == i + 1) for j in range(k)] for i in range(k - 1)]
    rows.append(list(reversed(values)))
    return IntMat(rows)


# (label, matrix, discriminant of chi) of each reference, built once.
_REFERENCES = tuple((label, params.matrix(), char_cubic(params.matrix()).discriminant())
                    for label, params in REFERENCE_PARAMS)


@dataclass(frozen=True)
class FrobeniusVerdict:
    status: str          # "frobenius" | "non_frobenius" | "undecided"
    dim: int
    solvability: object
    conjugator: IntMat = None


# ---------------------------------------------------------------- 2x2

def commuting_frobenius_params(c):
    """Parameters of a Frobenius matrix commuting with c itself, or None.

    c = [[p, q], [r, s]] commutes with [[0, 1], [a2, a1]] exactly when
    q != 0, q | r and q | s - p, with a1 = (s-p)/q and a2 = r/q.
    """
    (p, q), (r, s) = c.rows
    if q == 0 or r % q or (s - p) % q:
        return None
    params = FrobeniusParams(((s - p) // q, r // q))
    m = params.matrix()
    assert c @ m == m @ c
    return params


def conjugator_from_witness(a, witness):
    """SL(2,Z) matrix X, built from a unit value of q2, such that
    X a X^-1 commutes with a Frobenius matrix.

    The (0,1) entry of X a X^-1 equals the unnormalized quadratic at the
    first row of X.  At the primitive part of a unit witness that entry
    divides the gcd of the conjugated triple, so the divisibility
    conditions hold automatically.
    """
    x, y = witness
    d = gcd(x, y)
    x, y = x // d, y // d
    g, s, t = xgcd(x, y)
    assert g == 1
    conj = IntMat([[x, y], [-t, s]])
    assert conj.det() == 1
    assert commuting_frobenius_params(conj @ a @ adjugate(conj)) is not None
    return conj


def decide_thm2(a):
    """Frobenius type of an irreducible 2x2 matrix; undecided only when the
    Pell walk reaches its step cap."""
    if a.dim != 2:
        raise ValueError("decide_thm2 needs a 2x2 matrix")
    sol = decide_quadratic(q2(a))
    if sol.verdict == "solvable":
        return FrobeniusVerdict("frobenius", 2, sol,
                                conjugator=conjugator_from_witness(a, sol.witness))
    if sol.verdict == "unsolvable":
        return FrobeniusVerdict("non_frobenius", 2, sol)
    return FrobeniusVerdict("undecided", 2, sol)


_SL2_CACHE = {}


def sl2_ball(radius):
    """All SL(2,Z) matrices with entries bounded by radius, in canonical
    order (shells of growing max-norm, then rank-lexicographic)."""
    if radius not in _SL2_CACHE:
        mats = []
        for shell in range(1, radius + 1):
            vals = sorted(range(-shell, shell + 1), key=_rank)
            for p in vals:
                for q_ in vals:
                    for r in vals:
                        for s in vals:
                            if max(abs(p), abs(q_), abs(r), abs(s)) != shell:
                                continue
                            if p * s - q_ * r == 1:
                                mats.append(IntMat([[p, q_], [r, s]]))
        _SL2_CACHE[radius] = tuple(mats)
    return _SL2_CACHE[radius]


def oracle_2x2(a, radius):
    """Literal bounded check of the definition: try every SL(2,Z)
    conjugator up to the radius, identity first.  Returns one that makes
    the conjugate commute with a Frobenius matrix, or None."""
    for x in (IntMat.identity(2),) + sl2_ball(radius):
        if commuting_frobenius_params(x @ a @ adjugate(x)) is not None:
            return x
    return None


# ---------------------------------------------------------------- 3x3

def decide_thm3(c, basis=None, caps=Caps()):
    """Frobenius type of an irreducible 3x3 matrix.

    Solvable and unsolvable verdicts are exact; exhausting the search box
    and the modulus cap without either leaves the matrix undecided.
    """
    if c.dim != 3:
        raise ValueError("decide_thm3 needs a 3x3 matrix")
    sol = decide_product(q3(c, basis=basis), caps)
    status = {"solvable": "frobenius", "unsolvable": "non_frobenius",
              "unknown": "undecided"}[sol.verdict]
    return FrobeniusVerdict(status, 3, sol)


# ---------------------------------------------------------------- matching

def _ratio_square(d1, d2):
    """Is d1/d2 (d2 != 0) a rational square?  It is (d1*d2) / d2^2."""
    if d1 * d2 <= 0:
        return d1 == 0
    return is_square(d1 * d2)


def _commutant_fiber(basis, chi_r):
    """All integer commutant elements of basis.c with characteristic polynomial
    chi_r (at most three exist: the conjugates of a root), sorted by (v, w).

    With y = uE + vA + wB the trace pins u, and tr(y0^2) for the traceless
    part y0 = v*A0 + w*B0 (A0 = 3A - tr(A)E, B0 = 3B - tr(B)E) is the binary
    form Q(v, w) = qa v^2 + 2qb vw + qc w^2 with qa = 9 tr(A^2) - 3 tr(A)^2,
    qb = 9 tr(AB) - 3 tr(A) tr(B) and qc = 9 tr(B^2) - 3 tr(B)^2.  chi_r fixes
    that trace at T = 6 a1^2 - 18 a2, so the candidates are the
    representations Q(v, w) = T.  The trace form is positive definite on a
    totally real field, so there are finitely many:
    qa Q = (qa v + qb w)^2 + D w^2 with D = qa qc - qb^2 > 0.
    """
    a, b = basis.a, basis.b
    tr_a, tr_b = a.trace(), b.trace()
    qa = 9 * (a @ a).trace() - 3 * tr_a * tr_a
    qb = 9 * (a @ b).trace() - 3 * tr_a * tr_b
    qc = 9 * (b @ b).trace() - 3 * tr_b * tr_b
    d = qa * qc - qb * qb
    assert qa > 0 and d > 0, "indefinite trace form: c is not totally real"
    target = qa * (6 * chi_r.a1 ** 2 - 18 * chi_r.a2)
    wmax = isqrt(target // d)
    out = []
    for w in range(-wmax, wmax + 1):
        rest = target - d * w * w
        s = isqrt(rest)
        if s * s != rest:
            continue
        for num in {-qb * w - s, -qb * w + s}:
            v, rem = divmod(num, qa)
            if rem:
                continue
            u, rem = divmod(chi_r.a1 - v * tr_a - w * tr_b, 3)
            if rem:
                continue
            y = u * basis.e + v * a + w * b
            if char_cubic(y) == chi_r:
                out.append((v, w, y))
    return [y for _, _, y in sorted(out, key=lambda t: t[:2])]


def conjugate_commuting(basis, r):
    """Search for X in SL(3,Z) making X c X^-1 commute with r, where
    ``basis`` is the commutant basis of c and r is a 3x3 Frobenius matrix
    (ValueError otherwise).

    Returns (status, x): "conjugate" with a verified x, "no_fiber" when no
    integer commutant element of c has r's characteristic polynomial,
    "refuted" when every such element's cyclic-vector form is obstructed
    modularly, or "inconclusive" when decide_form left some form unknown.
    """
    if r.dim != 3 or r.rows[:2] != ((0, 1, 0), (0, 0, 1)):
        raise ValueError("r must be a 3x3 Frobenius matrix")
    chi_r = char_cubic(r)
    fiber = _commutant_fiber(basis, chi_r)
    if not fiber:
        return ("no_fiber", None)
    pending = False
    for y in fiber:
        y2 = y @ y
        form = cyclic_form(y, y2)
        assert not form.is_zero()
        sol = decide_form(form.coeffs, TERNARY_CUBIC_EXPONENTS, CLASSIFY_CAPS)
        pending |= sol.verdict == "unknown"
        if sol.verdict != "solvable":
            continue
        v = tuple(sol.value * t for t in sol.witness)
        x = IntMat((v, y.transpose().apply(v), y2.transpose().apply(v)))
        assert x.det() == 1
        assert x @ y == r @ x
        w = x @ basis.c @ adjugate(x)
        assert w @ r == r @ w
        return ("conjugate", x)
    return ("inconclusive" if pending else "refuted", None)


def classify_fraction(c):
    """Label the periodic fraction of an irreducible 3x3 matrix.

    Labels name the matched reference matrix; "other" is definitive (for
    every reference, the field invariant, the commutant fiber or a modular
    obstruction of the fiber's cyclic-vector forms refutes the match),
    "unresolved" records a search that neither hit nor refuted.
    """
    if c.dim != 3 or not is_irreducible(c):
        raise ValueError("classification needs an irreducible 3x3 matrix")
    dc = char_cubic(c).discriminant()
    pending = False
    basis = None
    for label, rmat, dr in _REFERENCES:
        if not _ratio_square(dc, dr):
            continue
        basis = basis or commutant_basis(c)
        status, _ = conjugate_commuting(basis, rmat)
        if status == "conjugate":
            return label
        if status == "inconclusive":
            pending = True
    return "unresolved" if pending else "other"


# ---------------------------------------------------------------- sweeps

def _sweep_chunk(matrices, caps):
    frob = 0
    undecided = []
    for m in matrices:
        verdict = decide_thm3(m, caps=caps)
        if verdict.status == "frobenius":
            frob += 1
        else:
            undecided.append(m)
    return [(frob, undecided)]


def theorem1_sweep(norm_cap=6, workers=1, caps=Caps()):
    """Decide every irreducible 3x3 matrix of norm <= norm_cap.

    Returns {norm: {"matrices": n, "frobenius": n, "undecided": [...]}};
    an empty undecided list everywhere reproduces the blanket statement
    for small norms."""
    chunk = partial(_sweep_chunk, caps=caps)
    report = {}
    for n in range(norm_cap + 1):
        matrices = matrices_in_class(3, n, (M_ONLY, HYPERBOLIC))
        parts = parallel_map_chunked(chunk, matrices, workers=workers,
                                     chunk_size=128)
        report[n] = {"matrices": len(matrices),
                     "frobenius": sum(p[0] for p in parts),
                     "undecided": [format_matrix(m) for p in parts for m in p[1]]}
    return report


def _classify_chunk(matrices):
    counts = dict.fromkeys(LABELS, 0)
    for m in matrices:
        counts[classify_fraction(m)] += 1
    return [counts]


def classification_report(n, workers=1):
    """Label counts over all hyperbolic matrices of norm n."""
    matrices = matrices_in_class(3, n, (HYPERBOLIC,))
    totals = dict.fromkeys(LABELS, 0)
    for part in parallel_map_chunked(_classify_chunk, matrices,
                                     workers=workers, chunk_size=64):
        for label in LABELS:
            totals[label] += part[label]
    totals["matrices"] = len(matrices)
    return totals


def _hunt_chunk(flats):
    out = []
    for flat in flats:
        m = matrix_from_flat(flat)
        verdict = decide_thm2(m) if m.dim == 2 else decide_thm3(m)
        out.append({"matrix": format_matrix(m),
                    "norm": sum(abs(v) for v in flat),
                    "status": verdict.status})
    return out


def _sample_norm_flat(rng, slots, n):
    """Uniform random integer vector of the given length with L1 norm n,
    drawn slot by slot with exact sphere-count weights."""
    flat = []
    remaining = n
    for slot in range(slots, 1, -1):
        pick = rng.randrange(sphere_size(slot, remaining))
        acc = 0
        for mag in range(remaining + 1):
            ways = sphere_size(slot - 1, remaining - mag)
            options = 1 if mag == 0 else 2
            if pick < acc + options * ways:
                offset = pick - acc
                flat.append(0 if mag == 0 else (-mag if offset < ways else mag))
                remaining -= mag
                break
            acc += options * ways
        else:
            raise AssertionError("sampler walked off the distribution")
    if remaining == 0:
        flat.append(0)
    else:
        flat.append(-remaining if rng.randrange(2) == 0 else remaining)
    return tuple(flat)


def hunt(norm, count, seed, dim=3, workers=1):
    """Sample irreducible matrices of the given norm (uniformly, with
    replacement, deterministically from the seed) and decide each one."""
    if norm < 1:
        raise ValueError("norm must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    flats = []
    attempts = 0
    while len(flats) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("norm %d rejects too many samples" % norm)
        flat = _sample_norm_flat(rng, dim * dim, norm)
        if classify_matrix(matrix_from_flat(flat)) == REDUCIBLE:
            continue
        flats.append(flat)
    # Costs range from milliseconds to seconds, so each sample is its own task.
    return parallel_map_chunked(_hunt_chunk, flats, workers=workers,
                                chunk_size=1)
