"""Sails of the eigen-cone decomposition and their torus invariants.

The three eigenplanes of a hyperbolic 3x3 matrix split space into eight open
cones.  The sail of a cone is the boundary of the convex hull of its nonzero
lattice points.  Totally positive units of the commutant act on each sail
with a compact quotient; the orbit counts and face areas of that quotient
are integer-affine invariants that separate inequivalent fractions.

Every geometric predicate here is decided exactly.  All exact tests at a
root of chi, by the cone and by its unit group, read one set of dyadic
isolating intervals (``_Roots``): signs come from ``sign_at_root``, positive
bounds from refining until an interval evaluation excludes zero, and float
evaluations (correctly rounded integer divisions) carry rigorous error
bounds from the same enclosures, with anything inside the error band
decided exactly.

Sail work follows the sail, not the box.  The cone meets each (x, y)
column of the box in an up-ray of z, so the enumeration tests only the
points from a float lower bound of that ray upwards.  Most enumerated
points still cannot touch the sail: a cone point p is dominated by a cone
point v when p - v lies in the open cone; a face normal N is positive on
the rays, so N.p = N.v + N.(p - v) > N.v, and a dominated point is never
on or below a face plane.  ``compute_sail`` therefore hands Qhull only the
points that no small cone point provably dominates, and certifies a
candidate whose corner box lies inside the radius by one product over
those points.  The unit group acts on the sail, so a candidate that a
short unit word maps onto a face certified already is that face's exact
translate: each face orbit is certified about once.  Orbit keys read the
anchors of all elements in one array pass.  The unit search likewise
evaluates the odd determinant form on the half box x >= 0 only:
N(-v) = -N(v), so every +-1 pair is seen there, and N(v) * v is its one
member of determinant 1.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .commutant import commutant_basis, express_in_powers
from .errors import CoverageError  # re-exported: cli and cf3 import it here
from .forms import det_form
from .intmat import IntMat, adjugate, char_cubic, is_hyperbolic
from .roots import (
    interval_eval,
    isolate_real_roots,
    poly_add,
    poly_mul,
    poly_scale,
    poly_strip,
    refine_interval,
    sign_at_root,
)
from .solver import TERNARY_CUBIC_EXPONENTS, box_values
from .zlinalg import coords_in_basis, hnf_with_transform

ROOT_WIDTH = (1, 60)  # 2^-60, as a dyadic width
FACE_BOX_CAP = 512
UNIT_BOXES = (4, 8, 16, 32)
RADIUS_LADDER = (16, 32, 64, 128, 256)
CELL_BAND = 1e-6
DOMINATORS = 8  # the cone points of least L1 norm that the hull filter subtracts
SLAB = 1 << 14  # rows per slab of box points: about one box slice at radius 64
LOOKUP_REACH = 2  # face lookup tries the unit words g1^a g2^b with |a|, |b| <= 2
WALK = object()  # _certify_face's answer for a plane left to a walk


class _Roots:
    """Dyadic isolating intervals (lo, hi, k) of the three real roots of an
    irreducible monic cubic chi, shared by every exact test at those roots.

    ``cache`` holds values derived from the current intervals; every
    refinement clears it.
    """

    def __init__(self, chi):
        self.chi = chi
        self.intervals = [refine_interval(chi, iv, ROOT_WIDTH)
                          for iv in isolate_real_roots(chi)]
        assert len(self.intervals) == 3
        self.cache = {}

    def refine(self, bits):
        """Refine all three intervals to 2^-bits times the widest width."""
        k = max(iv[2] for iv in self.intervals)
        w = max((hi - lo) << (k - e) for lo, hi, e in self.intervals)
        self.intervals = [refine_interval(self.chi, iv, (w, k + bits))
                          for iv in self.intervals]
        self.cache.clear()

    def cached(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def enclose(self, p, i):
        """Exact dyadic bounds (lo, hi, e) of p at root i."""
        return interval_eval(p, self.intervals[i])

    def sign(self, p, i):
        """Exact sign of p at root i."""
        return sign_at_root(p, self.chi, self.intervals[i])

    def positive(self, p, i, what):
        """Dyadic bounds (lo, hi, e) of p at root i with 0 < lo, refining all
        three intervals to a quarter of the widest until lo is positive."""
        for _ in range(60):
            lo, hi, e = self.enclose(p, i)
            if lo > 0:
                return lo, hi, e
            self.refine(2)
        raise CoverageError("positive %s failed to separate from zero" % what)


def _char_adjugate(c):
    """Entries of adj(C - x*E) as integer polynomials (3x3 nested tuples).

    By Cayley-Hamilton, adj(C - x*E) = x^2*E + x*(C - a1*E) + (C^2 - a1*C + a2*E).
    """
    a1, a2, _ = char_cubic(c).as_tuple()
    e = IntMat.identity(3)
    lin = c - a1 * e
    const = c @ lin + a2 * e
    return tuple(
        tuple(poly_strip((int(i == j), lin[i, j], const[i, j])) for j in range(3))
        for i in range(3))


def _combo_poly(polys, vector):
    """The integer polynomial sum of x * p over ``polys`` and ``vector``."""
    width = max(map(len, polys))
    acc = [0] * width
    for p, x in zip(polys, vector):
        for k, c in enumerate(p, width - len(p)):
            acc[k] += x * c
    return poly_strip(acc)


@dataclass(eq=False)
class EigenCone:
    """One open eigen-cone of a hyperbolic matrix, with exact predicates.

    ``duals`` holds, per root, the eigenplane functional as three integer
    polynomials in that root, oriented positive on the cone; ``rays`` holds
    the extreme-ray directions, oriented into the cone closure.  Their
    enclosures live in the cache of ``roots``.
    """

    c: IntMat
    roots: _Roots
    duals: tuple
    rays: tuple
    # Certified-face results are exact and radius-independent, so they
    # survive interval refinement (unlike the enclosure cache).
    face_cache: dict = field(default_factory=dict, repr=False)

    def dual_enclosures(self):
        """Per root, per coordinate: exact dyadic bounds of the functional."""
        return self.roots.cached("enc", lambda: tuple(
            tuple(self.roots.enclose(p, i) for p in self.duals[i])
            for i in range(3)))

    def ray_bounds(self):
        """Per root: an exact dyadic bound (b, e) of the ray's largest
        |coordinate|."""
        def bound(encs):
            e = max(enc[2] for enc in encs)
            return max(max(abs(lo), abs(hi)) << (e - k) for lo, hi, k in encs), e
        return self.roots.cached("rays", lambda: tuple(
            bound([self.roots.enclose(p, i) for p in self.rays[i]])
            for i in range(3)))

    def _float_duals(self):
        def build():
            enc = self.dual_enclosures()
            mids = np.array([[(lo + hi) / (2 << k) for lo, hi, k in row] for row in enc])
            widths = np.array([[(hi - lo) / (1 << k) for lo, hi, k in row] for row in enc])
            # the error weight of each coordinate: half the enclosure width
            # with room to spare, plus, relative to |mids|, the rounding of
            # the midpoint and of a three-term dot product
            return mids, widths * 0.51 + 6.3e-15 * np.abs(mids)
        return self.roots.cached("float", build)

    def dual_sign(self, i, v):
        """Exact sign of eigenplane functional i at the integer vector v."""
        return self.roots.sign(_combo_poly(self.duals[i], v), i)

    def contains(self, v):
        """Exact strict-interior test for an integer vector."""
        return all(self.dual_sign(i, v) > 0 for i in range(3))

    def eigen_values(self, pts):
        """Float eigenplane values at the points of an (n, 3) integer array,
        with rigorous error bounds: lists ``val`` and ``err`` of three
        length-n arrays, where the exact value of functional i at a point
        lies within err[i] of val[i], both taken as the computed floats.
        """
        mids, rads = self._float_duals()
        a = pts.astype(np.float64)
        aa = np.abs(a)
        val = [a @ mids[i] for i in range(3)]
        err = [aa @ rads[i] + 1e-307 for i in range(3)]
        return val, err

    def interior_mask(self, pts):
        """Boolean mask of strict interiority for an (n, 3) integer array.

        The float bounds decide every point that they place inside the cone
        or beyond one eigenplane; the rest are resolved exactly.
        """
        inside = np.ones(len(pts), dtype=bool)
        outside = np.zeros(len(pts), dtype=bool)
        for val, err in zip(*self.eigen_values(pts)):
            inside &= val > err
            outside |= val < -err
        for idx in np.flatnonzero(~(inside | outside)):
            inside[idx] = self.contains(tuple(int(x) for x in pts[idx]))
        return inside

    def float_coordinates(self, v):
        """Approximate eigenplane coordinates of v (positive inside the cone)."""
        mids, _ = self._float_duals()
        return mids @ np.asarray(v, dtype=np.float64)


def eigen_cone(c):
    """The open eigen-cone of a hyperbolic matrix containing (0, 0, 1).

    Integer points never lie on an eigenplane when chi is irreducible (a
    rational point on a wall would span a proper invariant subspace), so the
    chosen cone is always well defined.
    """
    if not isinstance(c, IntMat) or c.dim != 3:
        raise ValueError("need a 3x3 integer matrix")
    if not is_hyperbolic(c):
        raise ValueError("matrix must be hyperbolic: irreducible chi with three real roots")
    roots = _Roots((1,) + char_cubic(c).monic())
    adj = _char_adjugate(c)
    row = next(r for r in adj if any(poly_strip(p) for p in r))
    cidx = next(j for j in range(3) if any(poly_strip(adj[i][j]) for i in range(3)))
    col = tuple(adj[i][cidx] for i in range(3))
    # Nonsingular coefficient matrix of the dual row: no integer point on a wall.
    coeff = [list(reversed(p)) + [0] * (3 - len(p)) for p in row]
    assert IntMat(coeff).det() != 0, "eigenplane contains a lattice vector"
    duals = []
    rays = []
    for i in range(3):
        s = roots.sign(row[2], i)
        assert s != 0
        dual = tuple(poly_scale(p, s) for p in row)
        pairing = ()
        for p, q in zip(dual, col):
            pairing = poly_add(pairing, poly_mul(p, q))
        t = roots.sign(pairing, i)
        assert t != 0
        duals.append(dual)
        rays.append(tuple(poly_scale(p, t) for p in col))
    return EigenCone(c=c, roots=roots, duals=tuple(duals), rays=tuple(rays))


@dataclass(frozen=True)
class Face:
    """A certified sail face: the full polygon cut by its lattice plane."""

    normal: tuple
    offset: int
    vertices: tuple
    area2: int

    def key(self):
        return (self.normal, self.offset, self.vertices)


@dataclass(eq=False)
class SailComplex:
    """Certified faces of a sail discovered within an enumeration radius."""

    cone: EigenCone
    radius: int
    faces: tuple
    vertices: tuple
    edges: tuple

    def face_keys(self):
        return frozenset(f.key() for f in self.faces)


def _cone_points(cone, bound):
    """The cone points of the box of ``bound``, in lexicographic order.

    ``eigen_cone`` orients each functional by the sign of its z coefficient,
    so every functional grows with z and the cone meets each (x, y) column in
    the z above some least value.  A sound lower bound on it comes from the
    float functionals and their error weights at |z| <= bound: below it one
    functional is provably negative.  ``interior_mask`` decides the points
    from there up, in slabs of whole x-slices holding at most SLAB points, or
    one slice when it is larger.
    """
    mids, rads = cone._float_duals()
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    side = len(rng)
    lo = np.full((side, side), -bound, dtype=np.int64)
    for m, r in zip(mids, rads):
        if m[2] > 0:
            # m.p + r.|p| bounds the functional from above at |z| <= bound;
            # it is negative for z below t
            u, v = (m[k] * rng + r[k] * np.abs(rng) for k in range(2))
            t = -(u[:, None] + v[None, :] + r[2] * bound) / m[2]
            lo = np.maximum(lo, np.clip(np.floor(t), -bound, bound + 1).astype(np.int64))
    # the columns in lexicographic (x, y) order and their point counts
    x, y, lo = np.repeat(rng, side), np.tile(rng, side), lo.ravel()
    count = bound + 1 - lo
    ends = np.cumsum(count)
    slice_ends = ends[side - 1::side]
    found = []
    start = 0
    while start < side:
        base = int(slice_ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(slice_ends, base + SLAB, "right")))
        cols = slice(start * side, stop * side)
        cnt = count[cols]
        pts = np.empty((int(slice_ends[stop - 1]) - base, 3), dtype=np.int64)
        pts[:, 0] = np.repeat(x[cols], cnt)
        pts[:, 1] = np.repeat(y[cols], cnt)
        pts[:, 2] = np.repeat(lo[cols] + base - (ends[cols] - cnt), cnt) + np.arange(len(pts))
        found.append(pts[cone.interior_mask(pts)])
        start = stop
    return np.vstack(found)


def _undominated(cone, pts):
    """The points of ``pts`` that no dominator provably dominates, in order.

    A cone point p is dominated by a cone point v when p - v lies in the
    open cone, that is when every eigenplane value at p exceeds the one at
    v.  The dominators are the DOMINATORS points of ``pts`` of least L1
    norm.  The test compares the lower float bound val - err at p with an
    upper float bound at v, so a point it does not prove dominated is kept;
    the bounds are built in slabs of SLAB rows.
    """
    # the least keys (L1 norm, position), each an L1 norm times len(pts)
    # plus the position, so that ties break by enumeration order
    a = np.abs(pts)
    key = (a[:, 0] + a[:, 1] + a[:, 2]) * len(pts) + np.arange(len(pts))
    if len(pts) > DOMINATORS:
        key = np.partition(key, DOMINATORS - 1)[:DOMINATORS]
    small = pts[key % len(pts)]
    # val + err rounded, then one ulp up: an upper bound at each dominator.
    # Rounding is monotone, so a rounded val - err above it proves the
    # exact val - err above it too.
    tops = [np.nextafter(val + err, np.inf).tolist()
            for val, err in zip(*cone.eigen_values(small))]
    kept = []
    for start in range(0, len(pts), SLAB):
        chunk = pts[start:start + SLAB]
        lows = [val - err for val, err in zip(*cone.eigen_values(chunk))]
        dominated = np.zeros(len(chunk), dtype=bool)
        for t0, t1, t2 in zip(*tops):
            dominated |= (lows[0] > t0) & (lows[1] > t1) & (lows[2] > t2)
        kept.append(chunk[~dominated])
    return np.vstack(kept)


def _strip_points(normal, offset, bound):
    """Box points p with 1 <= N.p <= offset and their N.p values, in chunks
    of at most one box slice, solved for the coordinate of largest |N_k|."""
    k = max(range(3), key=lambda t: abs(normal[t]))
    a, b = (t for t in range(3) if t != k)
    sign, nk = (1, normal[k]) if normal[k] > 0 else (-1, -normal[k])
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    n = len(rng)
    w0 = (normal[a] * rng[:, None] + normal[b] * rng[None, :]).ravel()
    # The range of y = sign * x_k with 1 <= w0 + nk * y <= offset in the box.
    lo = np.maximum(-((w0 - 1) // nk), -bound)
    count = np.maximum(np.minimum((offset - w0) // nk, bound) - lo + 1, 0)
    ends = np.cumsum(count)
    start = 0
    while start < n * n:
        base = ends[start] - count[start]
        stop = int(np.searchsorted(ends, base + n * n, "right"))
        pair = np.repeat(np.arange(start, stop), count[start:stop])
        y = lo[pair] + count[pair] - ends[pair] + base + np.arange(len(pair))
        pts = np.empty((len(pair), 3), dtype=np.int64)
        pts[:, a], pts[:, b], pts[:, k] = rng[pair // n], rng[pair % n], sign * y
        yield pts, w0[pair] + nk * y
        start = stop


def _apply(m, points):
    """The 3x3 integer matrix m applied to each point, as tuples."""
    (a, b, c), (d, e, f), (g, h, i) = m.rows
    return [(a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)
            for x, y, z in points]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _convex_polygon(points, normal):
    """Cyclic vertex order of the 2D convex hull of coplanar lattice points.

    Collinear interior points are dropped; the cycle is oriented so that the
    doubled lattice area against ``normal`` comes out positive.
    """
    k = max(range(3), key=lambda t: abs(normal[t]))
    a, b = (k + 1) % 3, (k + 2) % 3
    flat = {}
    for p in points:
        key = (p[a], p[b])
        assert key not in flat
        flat[key] = p
    pts2 = sorted(flat)
    if len(pts2) < 3:
        return None, 0

    def half(seq):
        hull = []
        for p in seq:
            while len(hull) >= 2:
                o, q = hull[-2], hull[-1]
                turn = (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0])
                if turn <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half(pts2)
    upper = half(list(reversed(pts2)))
    cycle2 = lower[:-1] + upper[:-1]
    if len(cycle2) < 3:
        return None, 0
    cycle = [flat[p] for p in cycle2]
    nn = sum(x * x for x in normal)
    total = 0
    base = cycle[0]
    for u, v in zip(cycle[1:], cycle[2:]):
        cr = _cross(tuple(x - y for x, y in zip(u, base)),
                    tuple(x - y for x, y in zip(v, base)))
        dot = sum(x * y for x, y in zip(cr, normal))
        assert dot % nn == 0
        m = dot // nn
        assert all(x == m * y for x, y in zip(cr, normal))
        total += m
    assert total != 0
    if total < 0:
        cycle.reverse()
        total = -total
    return _orbit_key(cycle), total


def _certify_face(cone, normal, offset, box_cap=FACE_BOX_CAP, known=None, walk=True):
    """Certify a candidate sail plane globally and cut its full polygon.

    Returns a Face when no cone lattice point lies strictly below the plane
    anywhere (not just within the discovery radius); None when the plane is
    a truncation artifact or its certification box exceeds ``box_cap``.

    Every cone point on or below the plane lies in the corner box.  With
    ``known`` = (radius, pts), where pts holds every cone point of the box
    of that radius except some dominated ones, a corner box inside that
    box is decided by one product over pts.  A point p dominated by v has
    N.p > N.v for a normal N positive on the rays, so the least value of N
    on the box and every point attaining it are in pts.  Otherwise the
    slab of the corner box is walked, or, with ``walk`` false, WALK is
    returned and the plane left undecided.
    """
    roots = cone.roots
    combos = [_combo_poly(cone.rays[i], normal) for i in range(3)]
    for i, combo in enumerate(combos):
        # N must be positive on every ray; an enclosure that excludes zero
        # decides the sign without the exact test
        lo, hi, _ = roots.enclose(combo, i)
        if hi < 0 or (lo <= 0 and roots.sign(combo, i) <= 0):
            return None
    corner = 0
    for i in range(3):
        plo, _, e = roots.positive(combos[i], i, "pairing")
        ray, k = cone.ray_bounds()[i]
        corner = max(corner, (offset * ray << e) // (plo << k))
    bound = corner + 2
    if bound > box_cap:
        return None
    if known is not None and bound <= known[0]:
        w = known[1] @ np.array(normal, dtype=np.int64)
        if (w < offset).any():
            return None
        plane_pts = list(map(tuple, known[1][w == offset].tolist()))
    elif not walk:
        return WALK
    else:
        plane_pts = []
        for pts, w in _strip_points(normal, offset, bound):
            mask = cone.interior_mask(pts)
            if (mask & (w < offset)).any():
                return None
            on = mask & (w == offset)
            if on.any():
                plane_pts.extend(tuple(int(x) for x in p) for p in pts[on])
    cycle, area2 = _convex_polygon(plane_pts, normal)
    if cycle is None:
        return None
    return Face(normal=tuple(int(x) for x in normal), offset=int(offset),
                vertices=cycle, area2=area2)


def _moved_normals(normals, words):
    """N @ g for every row N of ``normals`` and every word g, as nested
    lists of Python ints; in int64 when the products provably fit."""
    mats = np.array([g.rows for g in words], dtype=object)
    if 3 * max(map(abs, mats.flat)) * int(np.abs(normals).max(initial=1)) < 2 ** 63:
        mats = mats.astype(np.int64)
    else:
        normals = normals.astype(object)
    return (normals[:, None, None, :] @ mats).reshape(len(normals), len(words), 3).tolist()


def _certify_candidates(cone, group, candidates, known):
    """The certified faces among the candidate planes (normal, offset).

    Totally positive units of det 1 map the cone's lattice points onto
    themselves and keep orientation, so when (N @ g, d) is a certified face
    F for a word g = g1^a @ g2^b, the plane (N, d) is the face g.F: its
    vertices are the g.v, its area that of F.  Candidates are taken by
    increasing offset and looked up among the faces certified so far; a
    miss is certified.  Walks of the corner box wait until every other
    candidate is settled and get one more lookup first.  ``cone.face_cache``
    keeps every result across radii.
    """
    reach = range(-LOOKUP_REACH, LOOKUP_REACH + 1)
    words = [group.translate(a, b) for a in reach for b in reach if a or b]
    candidates = sorted(candidates, key=lambda c: c[1])
    moved = _moved_normals(np.array([n for n, _ in candidates], dtype=np.int64).reshape(-1, 3),
                           words)
    faces = {}

    def lookup(i):
        n, d = candidates[i]
        for g, m in zip(words, moved[i]):
            face = faces.get((tuple(m), d))
            if face is not None:
                return Face(normal=n, offset=d, area2=face.area2,
                            vertices=_orbit_key(_apply(g, face.vertices)))
        return None

    def settle(i, walk):
        key = candidates[i]
        if key not in cone.face_cache:
            face = lookup(i) or _certify_face(cone, *key, known=known, walk=walk)
            if face is WALK:
                return False
            cone.face_cache[key] = face
        if cone.face_cache[key] is not None:
            faces[key] = cone.face_cache[key]
        return True

    pending = [i for i in range(len(candidates)) if not settle(i, False)]
    for i in pending:
        settle(i, True)
    return faces.values()


def compute_sail(cone, radius, group):
    """Certified sail faces discovered from lattice points within ``radius``.

    Candidate planes come from the convex hull of the enumerated points that
    no small cone point dominates (``_undominated``), or of all of them when
    those are degenerate.  A candidate that a unit word of ``group`` maps
    onto a face already certified is that face's translate; every other one
    is certified exactly against the whole cone (``_certify_candidates``).
    So a face's polygon and area do not depend on the radius, and faces
    already certified at a smaller radius are certified again at any larger
    one.
    """
    # scipy is imported here, its only use, so that importing cf3 skips Qhull
    from scipy.spatial import ConvexHull, QhullError

    if radius < 1:
        raise ValueError("radius must be at least 1")
    pts = _cone_points(cone, radius)
    if len(pts) == 0:
        raise CoverageError(
            "no lattice point in the cone within radius %d; increase radius" % radius)
    for cloud in (_undominated(cone, pts), pts):
        if len(cloud) < 4:
            continue
        try:
            hull = ConvexHull(cloud.astype(np.float64))
            break
        except QhullError:
            continue
    else:
        return SailComplex(cone=cone, radius=radius, faces=(), vertices=(), edges=())
    # |coordinates| <= radius <= 256 (RADIUS_LADDER), so |normal| <= 8 * 256^2
    # and |offset| <= 24 * 256^3: both fit int64 with room to spare.
    p0, p1, p2 = (cloud[hull.simplices[:, k]] for k in range(3))
    normals = np.cross(p1 - p0, p2 - p0)
    offsets = np.einsum("ij,ij->i", normals, p0)
    keep = offsets != 0
    sign = np.sign(offsets[keep])
    normals, offsets = normals[keep] * sign[:, None], offsets[keep] * sign
    g = np.gcd.reduce(normals, axis=1)
    assert not (offsets % g).any()
    normals, offsets = normals // g[:, None], offsets // g
    # Simplex corners are hull vertices, so a plane no hull vertex lies below
    # is a candidate; any cone point strictly below it fails certification.
    support = (cloud[hull.vertices] @ normals.T).min(axis=0) == offsets
    candidates = dict.fromkeys(zip(map(tuple, normals[support].tolist()),
                                   offsets[support].tolist()))
    faces = sorted(_certify_candidates(cone, group, candidates, (radius, cloud)),
                   key=lambda f: (f.offset, f.normal, f.vertices))
    vertices = sorted({v for f in faces for v in f.vertices})
    edges = set()
    for f in faces:
        ring = f.vertices
        for u, v in zip(ring, ring[1:] + ring[:1]):
            edges.add((u, v) if u < v else (v, u))
    return SailComplex(cone=cone, radius=radius, faces=tuple(faces),
                       vertices=tuple(vertices), edges=tuple(sorted(edges)))


def _mat_power(m, k):
    if k >= 0:
        return m ** k
    # every unit here has det 1, so its adjugate is its inverse
    assert m.det() == 1
    return adjugate(m) ** (-k)


class _Units:
    """Units of the commutant of a hyperbolic c in (E, A, B) coordinates,
    with their eigenvalues read at the roots of chi.

    ``fa / den`` and ``fb / den`` express A and B as polynomials in c with
    integer ``fa`` and ``fb``, so a member pE + qA + rB has the eigenvalue
    polynomial (p*den + q*fa + r*fb) / den at each root.
    """

    def __init__(self, c, roots):
        self.basis = commutant_basis(c)
        self.roots = roots
        fa, fb = (express_in_powers(c, x) for x in (self.basis.a, self.basis.b))
        self.den = math.lcm(*(x.denominator for x in fa + fb))
        self.fa, self.fb = (tuple(x.numerator * (self.den // x.denominator) for x in f)
                            for f in (fa, fb))
        members = self.basis.members()
        self._rows = [x.flat() for x in members]
        self._traces = [x.trace() for x in members]
        self._gram = [[(x @ y).trace() for y in members] for x in members]

    def matrix(self, coords):
        p, q, r = coords
        return self.basis.e * p + self.basis.a * q + self.basis.b * r

    def coords(self, m):
        # (E, A, B) is row-echelon: E's pivot is column 0, A and B are Hermite
        # rows of the section whose (1,1) entry vanishes
        coords = coords_in_basis(self._rows, m.flat())
        assert coords is not None
        return tuple(coords)

    def totally_positive(self, coords, det):
        # u is a polynomial in c, so its eigenvalues are real; alternating
        # coefficients make x^3 - a1 x^2 + a2 x - a3 negative for x <= 0.
        # a1 = tr(u) and 2*a2 = tr(u)^2 - tr(u^2), from the traces and the
        # Gram table tr(XY) of (E, A, B); a3 = det.
        a1 = sum(t * x for t, x in zip(self._traces, coords))
        square = sum(g * x * y for row, x in zip(self._gram, coords)
                     for g, y in zip(row, coords))
        return a1 > 0 and a1 * a1 > square and det > 0

    def eig_poly(self, coords):
        """The eigenvalue polynomial of a member times ``den``."""
        p, q, r = coords
        fa, fb = self.fa, self.fb
        return poly_strip((q * fa[0] + r * fb[0],
                           q * fa[1] + r * fb[1],
                           p * self.den + q * fa[2] + r * fb[2]))

    def enclosures(self, m):
        """Exact positive bounds (lo, hi, e) of the unit m's eigenvalues at
        roots 0 and 1, each standing for [lo, hi] / (den * 2^e)."""
        lam = self.eig_poly(self.coords(m))
        return [self.roots.positive(lam, i, "eigenvalue") for i in range(2)]

    def log(self, m):
        return tuple(math.log((lo + hi) / (self.den << e + 1))
                     for lo, hi, e in self.enclosures(m))


@dataclass(eq=False)
class DirichletGroup:
    """Two generators of the totally positive unit group of the commutant."""

    c: IntMat
    g1: IntMat
    g2: IntMat
    log1: tuple
    log2: tuple
    certified: bool
    box: int
    units: _Units
    _tcache: dict = field(default_factory=dict, repr=False)

    def translate(self, t1, t2):
        """g1^t1 @ g2^t2, from the cached powers of g1 and g2."""
        key = (t1, t2)
        if key not in self._tcache:
            if t1 and t2:
                value = self.translate(t1, 0) @ self.translate(0, t2)
            else:
                value = _mat_power(self.g1 if t1 else self.g2, t1 + t2)
            self._tcache[key] = value
        return self._tcache[key]

    def member_exponents(self, u):
        """Exact exponents (a, b) with u == g1^a @ g2^b, or None."""
        a, b = _solve_cell(self.log1, self.log2, self.units.log(u))
        a, b = round(a), round(b)
        if self.translate(a, b) == u:
            return (a, b)
        return None


def _log_intervals(units, m):
    out = []
    for lo, hi, e in units.enclosures(m):
        llo = math.log(lo / (units.den << e))
        lhi = math.log(hi / (units.den << e))
        pad = 1e-9 + 1e-12 * max(abs(llo), abs(lhi))
        out.append((llo - pad, lhi + pad))
    return out


def _solve_cell(l1, l2, w):
    det = l1[0] * l2[1] - l1[1] * l2[0]
    a = (w[0] * l2[1] - w[1] * l2[0]) / det
    b = (l1[0] * w[1] - l1[1] * w[0]) / det
    return a, b


def _unit_pool(form, box):
    """The points of the box where the determinant form N is 1, one of each
    pair +-v where it is +-1: the only members that can be totally positive.

    N is odd, N(-v) = -N(v), so only the half box x >= 0 is evaluated, and
    a hit v stands for N(v) * v.  On the plane x = 0 both members of a pair
    are hits, so there only v with N(v) = 1 is taken.  The caller rules out
    int64 overflow.
    """
    side = np.arange(-box, box + 1, dtype=np.int64)
    val = box_values(form.coeffs, TERNARY_CUBIC_EXPONENTS, side, first=side[box:]).ravel()
    hits = np.flatnonzero(np.abs(val) == 1)
    x, y, z = np.unravel_index(hits, (box + 1, len(side), len(side)))
    pts = np.column_stack((x, y - box, z - box))
    sign = val[hits]
    take = (pts[:, 0] > 0) | (sign == 1)
    return list(map(tuple, (pts[take] * sign[take, None]).tolist()))


def _norm_inf(v):
    return max(abs(x) for x in v)


def _reduce_pair(units, gens):
    # Lagrange reduction of the generator pair, matrices kept in sync.
    while True:
        (m1, l1), (m2, l2) = gens
        if l1[0] ** 2 + l1[1] ** 2 > l2[0] ** 2 + l2[1] ** 2:
            gens.reverse()
            continue
        k = round((l1[0] * l2[0] + l1[1] * l2[1]) / (l1[0] ** 2 + l1[1] ** 2))
        if k == 0:
            return
        m2 = m2 @ _mat_power(m1, -k)
        gens[1] = (m2, units.log(m2))


def _absorb(units, gens, u, lu):
    e = IntMat.identity(3)
    if u == e:
        return
    if not gens:
        assert _norm_inf(lu) > 1e-9
        gens.append((u, lu))
        return
    if len(gens) == 1:
        m1, l1 = gens[0]
        det = l1[0] * lu[1] - l1[1] * lu[0]
        if abs(det) > 1e-9 * (_norm_inf(l1) * _norm_inf(lu) + 1):
            gens.append((u, lu))
            _reduce_pair(units, gens)
            return
        # Collinear logs: run a one-dimensional euclidean reduction.
        big, small = (u, lu), (m1, l1)
        if _norm_inf(big[1]) < _norm_inf(small[1]):
            big, small = small, big
        while True:
            dot = big[1][0] * small[1][0] + big[1][1] * small[1][1]
            k = round(dot / (small[1][0] ** 2 + small[1][1] ** 2))
            m = big[0] @ _mat_power(small[0], -k)
            if m == e:
                gens[0] = small
                return
            big, small = small, (m, units.log(m))
            if _norm_inf(big[1]) < _norm_inf(small[1]):
                big, small = small, big
    (m1, l1), (m2, l2) = gens
    a, b = _solve_cell(l1, l2, lu)
    a, b = round(a), round(b)
    w = u @ _mat_power(m1, -a) @ _mat_power(m2, -b)
    if w == e:
        return
    lw = units.log(w)
    for m in range(2, 65):
        ta, tb = _solve_cell(l1, l2, (m * lw[0], m * lw[1]))
        ta, tb = round(ta), round(tb)
        if _mat_power(w, m) == _mat_power(m1, ta) @ _mat_power(m2, tb):
            h, trans, rank = hnf_with_transform([[m, 0], [0, m], [ta, tb]])
            assert rank == 2
            new = []
            for k in range(2):
                exps = trans[k]
                mat = (_mat_power(m1, exps[0]) @ _mat_power(m2, exps[1])
                       @ _mat_power(w, exps[2]))
                new.append((mat, units.log(mat)))
            gens[:] = new
            _reduce_pair(units, gens)
            return
    raise CoverageError("unit group index search exhausted")


def dirichlet_generators(cone):
    """Two multiplicatively independent totally positive units from the
    commutant of ``cone.c``, reduced and (when possible) certified complete.
    Their eigenvalues are read at the cone's roots.

    ``certified`` means: every totally positive unit whose eigenvalue logs
    fit in the covering radius of the returned pair had coordinates inside
    the searched box, so the pair generates the whole positive unit group.
    The boxes of UNIT_BOXES are searched while the determinant form's values
    provably fit int64; past that, the last pair found is returned
    uncertified, and without one CoverageError is raised.
    """
    c = cone.c
    units = _Units(c, cone.roots)
    form = det_form(units.basis.members())
    result = None
    pool = []
    for inner, box in zip((0,) + UNIT_BOXES, UNIT_BOXES):
        if sum(map(abs, form.coeffs)) * box ** 3 >= 2 ** 62:
            if result is not None:
                break
            raise CoverageError("determinant form values at unit box %d may overflow "
                                "int64" % box)
        # the pool of the inner box carries over: test only the new shells
        for coords in _unit_pool(form, box):
            if (_norm_inf(coords) > inner and coords != (1, 0, 0)
                    and units.totally_positive(coords, 1)):
                u = units.matrix(coords)
                pool.append((units.log(u), coords, u))
        pool.sort(key=lambda item: (_norm_inf(item[0]), item[1]))
        gens = []
        for lu, _, u in pool:
            _absorb(units, gens, u, lu)
        if len(gens) < 2:
            continue
        _reduce_pair(units, gens)
        (m1, l1), (m2, l2) = gens
        # Deterministic orientation of each generator.
        if l1[0] < 0:
            m1 = _mat_power(m1, -1)
            l1 = (-l1[0], -l1[1])
        if l2[1] < 0:
            m2 = _mat_power(m2, -1)
            l2 = (-l2[0], -l2[1])
        encs = [[units.roots.enclose(f, i) for f in (units.fa, units.fb)] for i in range(3)]
        s = np.array([[1.0] + [(lo + hi) / (units.den << e + 1) for lo, hi, e in row]
                      for row in encs])
        ninf = float(np.abs(np.linalg.inv(s)).sum(axis=1).max())
        t_cap = math.log(0.98 * box / ninf) if 0.98 * box > ninf else -1.0
        certified = t_cap > 0 and (_norm_inf(l1) + _norm_inf(l2)) <= 2 * t_cap
        result = DirichletGroup(c=c, g1=m1, g2=m2, log1=l1, log2=l2,
                                certified=certified, box=box, units=units)
        if certified:
            break
    if result is None:
        raise CoverageError(
            "fewer than two independent positive units found with "
            "coordinates up to %d" % UNIT_BOXES[-1])
    _assert_independent(result)
    return result


def _assert_independent(group):
    # Certified interval check that the generator logs span a rank-2 lattice.
    roots = group.units.roots
    for _ in range(6):
        i1 = _log_intervals(group.units, group.g1)
        i2 = _log_intervals(group.units, group.g2)

        def mul(x, y):
            vals = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
            return (min(vals), max(vals))

        p1 = mul(i1[0], i2[1])
        p2 = mul(i1[1], i2[0])
        dlo, dhi = p1[0] - p2[1], p1[1] - p2[0]
        if dlo > 0 or dhi < 0:
            return
        roots.refine(4)
    raise CoverageError("generator logs not separated from dependence")


@dataclass(frozen=True)
class TorusInvariant:
    """Orbit counts and face profile of the sail torus decomposition."""

    vertex_orbits: int
    edge_orbits: int
    face_orbits: int
    face_profile: tuple
    group_certified: bool
    radius: int

    def key(self):
        return (self.vertex_orbits, self.edge_orbits, self.face_orbits,
                self.face_profile)


def _cell_candidates(x):
    f = math.floor(x)
    fr = x - f
    if fr < CELL_BAND:
        return (f, f - 1)
    if fr > 1 - CELL_BAND:
        return (f, f + 1)
    return (f,)


def _orbit_key(points):
    # A cycle of lattice points rotated to start at its least point: the
    # sorted pair for an edge, the point itself for a vertex.
    cycle = [tuple(p) for p in points]
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


def _orbit_keys(cone, group, elements):
    """The least group translate of each sail element, as an exact key.

    An element is a cycle of lattice points: a face's vertex ring, an edge as
    its sorted pair, a vertex as a 1-tuple.  The eigen-coordinate logs of
    every anchor (the sum of an element's points) come from one product and
    one log, and are reduced into the fundamental cell of the generator log
    lattice as arrays; near-boundary anchors consider both neighboring cells
    so that all members of an orbit agree on the key.  Returns a dict from
    each distinct element to its key.
    """
    elements = list(dict.fromkeys(elements))
    points = np.array([p for e in elements for p in e], dtype=np.float64)
    starts = np.cumsum([0] + [len(e) for e in elements[:-1]])
    mids, _ = cone._float_duals()
    y = np.add.reduceat(points, starts) @ mids.T
    assert (y > 0).all()
    w = np.log(y[:, :2])
    (p0, p1), (q0, q1) = group.log1, group.log2
    det = p0 * q1 - p1 * q0
    cells = zip(((w[:, 0] * q1 - w[:, 1] * q0) / det).tolist(),
                ((p0 * w[:, 1] - p1 * w[:, 0]) / det).tolist())
    return {e: min(_orbit_key(_apply(group.translate(-fa, -fb), e))
                   for fa in _cell_candidates(a) for fb in _cell_candidates(b))
            for e, (a, b) in zip(elements, cells)}


def torus_invariants(sail, group):
    """Orbit counts of the sail under the positive unit group.

    Requires the discovered faces to close up into a torus in the quotient:
    every edge orbit must carry exactly two face incidences, the quotient
    complex must be connected, and its Euler characteristic must vanish.
    The faces, edges and vertices are keyed in one ``_orbit_keys`` pass; the
    ring edges and corners of the canonical faces, in their translated
    coordinates, in a second, so that these checks compare keys computed
    from different points of each orbit.
    """
    if not sail.faces:
        raise CoverageError(
            "no certified faces at radius %d; increase radius" % sail.radius)
    cone = sail.cone
    vertices = [(v,) for v in sail.vertices]
    keys = _orbit_keys(cone, group, [f.vertices for f in sail.faces] + list(sail.edges)
                       + vertices)
    faces = {}
    for f in sail.faces:
        faces.setdefault(keys[f.vertices], f)
    # An edge is keyed by its sorted pair: both orders of an edge have the
    # same anchor and the same sorted-pair key.
    rings = {ck: [(u, v) if u < v else (v, u) for u, v in zip(ck, ck[1:] + ck[:1])]
             for ck in faces}
    corners = [(v,) for ck in faces for v in ck]
    ring_keys = _orbit_keys(cone, group, [e for ring in rings.values() for e in ring]
                            + corners)
    incidence = Counter()
    adjacency = {ck: set() for ck in faces}
    edge_to_faces = {}
    for ck, ring in rings.items():
        for e in ring:
            ek = ring_keys[e]
            incidence[ek] += 1
            edge_to_faces.setdefault(ek, set()).add(ck)
    bad = {ek: n for ek, n in incidence.items() if n != 2}
    if bad:
        raise CoverageError(
            "fundamental domain not covered at radius %d: %d edge orbits "
            "without two incident faces; increase radius"
            % (sail.radius, len(bad)))
    if set(incidence) != {keys[e] for e in sail.edges}:
        raise CoverageError(
            "fundamental domain not covered at radius %d: face and edge "
            "orbit sets disagree; increase radius" % sail.radius)
    corner_keys = {ring_keys[v] for v in corners}
    if corner_keys != {keys[v] for v in vertices}:
        raise CoverageError(
            "fundamental domain not covered at radius %d: face corners and "
            "vertex orbits disagree; increase radius" % sail.radius)
    v_n, e_n, f_n = len(corner_keys), len(incidence), len(faces)
    if v_n - e_n + f_n != 0:
        raise CoverageError(
            "fundamental domain not covered at radius %d: Euler "
            "characteristic %d != 0; increase radius"
            % (sail.radius, v_n - e_n + f_n))
    for ek, fs in edge_to_faces.items():
        for ck in fs:
            adjacency[ck].update(fs - {ck})
    seen = set()
    stack = [next(iter(faces))]
    while stack:
        ck = stack.pop()
        if ck in seen:
            continue
        seen.add(ck)
        stack.extend(adjacency[ck] - seen)
    assert len(seen) == len(faces), "quotient face complex is disconnected"
    profile = tuple(sorted((len(ck), faces[ck].area2) for ck in faces))
    return TorusInvariant(
        vertex_orbits=v_n, edge_orbits=e_n, face_orbits=f_n,
        face_profile=profile, group_certified=group.certified,
        radius=sail.radius)


def torus_invariant_for(c):
    """Full pipeline: cone, units, and sail orbits with radius escalation."""
    cone = eigen_cone(c)
    group = dirichlet_generators(cone)
    last = None
    for radius in RADIUS_LADDER:
        try:
            return torus_invariants(compute_sail(cone, radius, group), group)
        except CoverageError as exc:
            last = exc
    raise CoverageError(
        "torus invariants not resolved up to radius %d (%s)"
        % (RADIUS_LADDER[-1], last))


def invariant_distinguish(c1, c2):
    """"distinct" when the torus invariants differ (sound for inequivalence);
    "indistinguishable" otherwise (no equivalence claim)."""
    a = torus_invariant_for(c1)
    b = torus_invariant_for(c2)
    return "distinct" if a.key() != b.key() else "indistinguishable"


def sail_svg(sail, group):
    """Static SVG of the quotient faces and their generator translates,
    drawn in the log chart u = ln(y1/y3), v = ln(y2/y3)."""
    cone = sail.cone

    def chart(v):
        y = cone.float_coordinates(v)
        return (math.log(y[0] / y[2]), math.log(y[1] / y[2]))

    shifts = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    polys = []
    for fi, f in enumerate(sail.faces):
        for (a, b) in shifts:
            t = group.translate(a, b)
            pts = [chart(t.apply(v)) for v in f.vertices]
            polys.append((fi, a == 0 and b == 0, pts))
    xs = [p[0] for _, _, ps in polys for p in ps]
    ys = [p[1] for _, _, ps in polys for p in ps]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    scale = 640.0 / span
    pad = 20.0

    def pix(p):
        return ((p[0] - x0) * scale + pad, (y1 - p[1]) * scale + pad)

    width = (x1 - x0) * scale + 2 * pad
    height = (y1 - y0) * scale + 2 * pad
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
           'viewBox="0 0 %.0f %.0f">' % (width, height, width, height)]
    for fi, central, pts in polys:
        hue = (fi * 67) % 360
        fill = "hsl(%d, 60%%, %d%%)" % (hue, 55 if central else 85)
        coords = " ".join("%.2f,%.2f" % pix(p) for p in pts)
        out.append('<polygon points="%s" fill="%s" stroke="#333" '
                   'stroke-width="1"/>' % (coords, fill))
    out.append("</svg>")
    return "\n".join(out)
