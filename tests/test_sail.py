import hashlib
import math
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from cf3 import sail
from cf3.acceptance import SEED, SL3_SAMPLE, _random_sl3, conjugate_by
from cf3.commutant import commutant_basis
from cf3.forms import TERNARY_CUBIC_EXPONENTS, det_form
from cf3.frobenius import REFERENCE_PARAMS
from cf3.intmat import CharCubic, IntMat, adjugate, char_cubic, parse_matrix
from cf3.roots import (
    isolate_real_roots,
    poly_add,
    poly_mod,
    poly_mul,
    poly_scale,
    poly_strip,
    refine_interval,
    sign_at_root,
)
from cf3.sail import (
    ROOT_WIDTH,
    CoverageError,
    _absorb,
    _box_slices,
    _cell_candidates,
    _certify_face,
    _char_adjugate,
    _combo_poly,
    _cone_points,
    _mat_power,
    _Roots,
    _strip_points,
    _undominated,
    _unit_pool,
    _Units,
    compute_sail,
    dirichlet_generators,
    eigen_cone,
    invariant_distinguish,
    sail_svg,
    torus_invariant_for,
)
from cf3.solver import grid_coords
from cf3.zlinalg import inverse_unimodular
from test_solver import grid_values

GOLDEN = IntMat([[0, 1, 0], [0, 0, 1], [1, 2, -1]])
M131 = IntMat([[0, 1, 0], [0, 0, 1], [1, 3, -1]])
M031 = IntMat([[0, 1, 0], [0, 0, 1], [1, 3, 0]])
A42 = IntMat([[1, 2, 0], [0, 1, 2], [-7, 0, 29]])
E3 = IntMat.identity(3)
P_UNIMODULAR = IntMat([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
# (vertex, edge, face orbits, face profile) of M(-1,2,1), as in the README.
GOLDEN_KEY = (1, 3, 2, ((3, 1), (3, 1)))


def conjugate(p, c):
    return p @ c @ IntMat(inverse_unimodular([list(r) for r in p.rows]))


def poly_sub(p, q):
    return poly_add(p, poly_scale(q, -1))


def char_entry_product(c, i, k, poly):
    # poly * (C - xE)[i][k], for symbolic eigen identities.
    return poly_mul(poly_strip((-int(i == k), c.rows[i][k])), poly)


def test_char_adjugate_matches_integer_adjugate():
    for c in (GOLDEN, M131, A42):
        adj = _char_adjugate(c)
        for x in (-3, 0, 2, 11):
            m = c - x * E3
            want = adjugate(m)
            for i in range(3):
                for j in range(3):
                    assert reduce(lambda acc, a: acc * x + a, adj[i][j], 0) == want[i, j]


def test_eigen_cone_golden_structure():
    cone = eigen_cone(GOLDEN)
    chi, intervals = cone.roots.chi, cone.roots.intervals
    assert len(intervals) == 3
    for (lo, hi, k), (lo2, _, k2) in zip(intervals, intervals[1:]):
        assert lo < hi and hi << k2 < lo2 << k
    # The seed direction is strictly inside the chosen cone.
    assert cone.contains((0, 0, 1))
    assert all(cone.dual_sign(i, (0, 0, 1)) == 1 for i in range(3))
    for i in range(3):
        # Dual is a left eigenvector: dual . (C - xE) = 0 mod chi, column-wise.
        for k in range(3):
            left = ()
            right = ()
            for j in range(3):
                left = poly_add(left, char_entry_product(
                    cone.c, j, k, cone.duals[i][j]))
                right = poly_add(right, char_entry_product(
                    cone.c, k, j, cone.rays[i][j]))
            assert poly_mod(left, chi) == ()
            assert poly_mod(right, chi) == ()
        # The dual pairs positively with its own ray.
        acc = ()
        for p, q in zip(cone.duals[i], cone.rays[i]):
            acc = poly_add(acc, poly_mul(p, q))
        assert sign_at_root(acc, chi, intervals[i]) > 0


def test_eigen_cone_rejects_bad_input():
    with pytest.raises(ValueError):
        eigen_cone(E3)
    # Irreducible but with one real root only: x^3 - x - 1.
    with pytest.raises(ValueError):
        eigen_cone(IntMat([[0, 1, 0], [0, 0, 1], [1, 1, 0]]))


def test_eigen_cone_conjugation_equivariance():
    cone1 = eigen_cone(GOLDEN)
    cone2 = eigen_cone(conjugate(P_UNIMODULAR, GOLDEN))
    p = P_UNIMODULAR
    assert cone1.roots.chi == cone2.roots.chi
    for i in range(3):
        mapped = tuple(
            _combo_poly(cone1.rays[i], p.rows[k]) for k in range(3))
        other = cone2.rays[i]
        # Eigen-directions for the same root are parallel, so every cross
        # component of P.ray against the conjugate's ray vanishes mod chi.
        for a, b in ((0, 1), (1, 2), (0, 2)):
            cross = poly_sub(poly_mul(mapped[a], other[b]),
                             poly_mul(mapped[b], other[a]))
            assert poly_mod(cross, cone1.roots.chi) == ()


def test_interior_mask_matches_exact_test():
    cone = eigen_cone(GOLDEN)
    rng = range(-4, 5)
    pts = np.array([(x, y, z) for x in rng for y in rng for z in rng],
                   dtype=np.int64)
    mask = cone.interior_mask(pts)
    for point, got in zip(pts, mask):
        assert bool(got) == cone.contains(tuple(int(v) for v in point))


def test_compute_sail_golden_faces_certified():
    cone = eigen_cone(GOLDEN)
    sail = compute_sail(cone, 16)
    assert sail.faces
    for f in sail.faces:
        assert f.offset >= 1
        assert f.area2 >= 1
        assert len(f.vertices) >= 3
        assert math.gcd(math.gcd(abs(f.normal[0]), abs(f.normal[1])),
                        abs(f.normal[2])) == 1
        for v in f.vertices:
            assert math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1
            assert sum(a * b for a, b in zip(v, f.normal)) == f.offset
            assert cone.contains(v)
    # Certification is global: every sail vertex is on or above every plane.
    for f in sail.faces:
        for v in sail.vertices:
            assert sum(a * b for a, b in zip(v, f.normal)) >= f.offset
    # The seed point is minimal, so it lies on some certified face plane.
    assert any(f.normal[2] == f.offset for f in sail.faces)


def test_compute_sail_radius_monotone():
    cone = eigen_cone(GOLDEN)
    small = compute_sail(cone, 12)
    large = compute_sail(cone, 24)
    assert small.face_keys() <= large.face_keys()


def test_compute_sail_tiny_radius():
    cone = eigen_cone(GOLDEN)
    try:
        sail = compute_sail(cone, 1)
    except RuntimeError:
        return
    assert isinstance(sail.faces, tuple)


def test_dirichlet_golden_group():
    group = dirichlet_generators(eigen_cone(GOLDEN))
    assert group.g1.det() == 1 and group.g2.det() == 1
    assert group.g1 != E3 and group.g2 != E3
    assert group.certified
    # Exact total positivity of both generators at every root.
    units = group.units
    for g in (group.g1, group.g2):
        lam = units.eig_poly(units.coords(g))
        for i in range(3):
            assert sign_at_root(lam, units.roots.chi, units.roots.intervals[i]) > 0
    # C^2 is a totally positive unit, so it must be a group member.
    exps = group.member_exponents(GOLDEN @ GOLDEN)
    assert exps is not None
    assert group.translate(*exps) == GOLDEN @ GOLDEN
    # Known members round-trip.
    w = group.translate(2, -1)
    assert group.member_exponents(w) == (2, -1)


def test_dirichlet_a42_contains_the_matrix():
    group = dirichlet_generators(eigen_cone(A42))
    # The matrix itself is a totally positive unit in its own commutant.
    exps = group.member_exponents(A42)
    assert exps is not None
    assert group.translate(*exps) == A42


def test_torus_invariants_golden():
    inv = torus_invariant_for(GOLDEN)
    assert inv.vertex_orbits >= 1
    assert inv.edge_orbits >= 1
    assert inv.face_orbits >= 1
    assert inv.vertex_orbits - inv.edge_orbits + inv.face_orbits == 0
    assert len(inv.face_profile) == inv.face_orbits
    assert inv.group_certified
    again = torus_invariant_for(GOLDEN)
    assert inv.key() == again.key()


def test_torus_invariant_conjugation_smoke():
    inv = torus_invariant_for(GOLDEN)
    conj = torus_invariant_for(conjugate(P_UNIMODULAR, GOLDEN))
    assert inv.key() == conj.key()


def test_invariant_distinguish_reference_pair():
    assert invariant_distinguish(GOLDEN, M131) == "distinct"
    assert invariant_distinguish(GOLDEN, GOLDEN) == "indistinguishable"


def test_cell_candidates_band():
    assert _cell_candidates(0.5) == (0,)
    assert set(_cell_candidates(1e-8)) == {0, -1}
    assert set(_cell_candidates(0.99999999)) == {0, 1}
    assert _cell_candidates(-2.5) == (-3,)


def test_sail_svg_deterministic():
    cone = eigen_cone(GOLDEN)
    group = dirichlet_generators(cone)
    sail = compute_sail(cone, 16)
    svg = sail_svg(sail, group)
    assert svg.startswith("<svg")
    assert "polygon" in svg
    assert svg == sail_svg(sail, group)


def _slab_oracle(normal, offset, bound):
    # The slice scan that face certification used before the slab was
    # enumerated directly: filter every box slice by 1 <= N.p <= offset.
    nvec = np.asarray(normal, dtype=np.int64)
    found = set()
    for pts in _box_slices(bound):
        w = pts @ nvec
        found.update(tuple(int(x) for x in p) for p in pts[(w >= 1) & (w <= offset)])
    return found


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-9, 9)] * 3).filter(any),
       st.integers(1, 40), st.integers(0, 12))
def test_strip_points_is_the_box_slab(normal, offset, bound):
    chunks = list(_strip_points(normal, offset, bound))
    got = []
    for pts, w in chunks:
        assert len(pts) <= (2 * bound + 1) ** 2
        assert np.array_equal(w, pts @ np.asarray(normal, dtype=np.int64))
        got.extend(tuple(int(x) for x in p) for p in pts)
    assert len(got) == len(set(got))
    assert set(got) == _slab_oracle(normal, offset, bound)


def _unit_pool_oracle(form, box):
    # The pool as it was built before the Horner pass: the form evaluated
    # monomial by monomial over the whole meshgrid.
    coords = grid_coords(np.arange(-box, box + 1, dtype=np.int64), 3)
    val = grid_values(form.coeffs, TERNARY_CUBIC_EXPONENTS, coords)
    return [(tuple(int(g[k]) for g in coords), int(val[k]))
            for k in np.flatnonzero(np.abs(val) == 1)]


@pytest.mark.parametrize("c", [GOLDEN, M131, M031, A42, conjugate(P_UNIMODULAR, M131)])
def test_unit_pool_matches_the_grid_builder(c):
    # the half-box pool holds N(v) * v once for every +-1 point v of the box
    form = det_form(commutant_basis(c).members())
    for box in (4, 8, 16):
        pool = _unit_pool(form, box)
        assert len(pool) == len(set(pool))
        assert set(pool) == {tuple(det * x for x in v) for v, det in _unit_pool_oracle(form, box)}


# The determinant form of this matrix passes the int64 guard up to box 18,
# where the bound on its values is just below 2^62.
NEAR_GUARD = parse_matrix("0,1,0;300,-89400,26819701;1,-298,89399")


@settings(derandomize=True, max_examples=40, deadline=None)
@example(NEAR_GUARD, 18)
@given(st.sampled_from([GOLDEN, M131, M031, A42, conjugate(P_UNIMODULAR, M131), NEAR_GUARD]),
       st.integers(4, 32))
def test_half_box_pool_is_the_totally_positive_full_box_pool(c, box):
    chi = (1,) + char_cubic(c).monic()
    units = _Units(c, _Roots(chi))
    form = det_form(units.basis.members())
    assume(sum(map(abs, form.coeffs)) * box ** 3 < 2 ** 62)
    pool = _unit_pool(form, box)
    assert len(pool) == len(set(pool))
    assert ({v for v in pool if units.totally_positive(v, 1)}
            == {v for v, det in _unit_pool_oracle(form, box) if units.totally_positive(v, det)})


def _face_keys_oracle(cone, radius):
    # The per-simplex loop that compute_sail ran before its planes were built
    # in one array pass: every plane is tested against all cone points.
    from scipy.spatial import ConvexHull

    pts = _cone_points(cone, radius)
    hull = ConvexHull(pts.astype(np.float64))
    seen, keys = set(), set()
    for simplex in hull.simplices:
        p0, p1, p2 = (pts[k].tolist() for k in simplex)
        n = tuple(int(x) for x in np.cross(np.subtract(p1, p0), np.subtract(p2, p0)))
        d = sum(a * b for a, b in zip(n, p0))
        if d < 0:
            n, d = tuple(-x for x in n), -d
        if d == 0:
            continue
        g = math.gcd(*n)
        n, d = tuple(x // g for x in n), d // g
        if (n, d) in seen:
            continue
        seen.add((n, d))
        if int((pts @ np.asarray(n, dtype=np.int64)).min()) != d:
            continue
        face = _certify_face(cone, n, d)
        if face is not None:
            keys.add(face.key())
    return frozenset(keys)


@pytest.mark.parametrize("c", [GOLDEN, M131, M031, conjugate(P_UNIMODULAR, M031)])
def test_compute_sail_faces_match_the_per_simplex_loop(c):
    for radius in (8, 16, 32):
        assert (compute_sail(eigen_cone(c), radius).face_keys()
                == _face_keys_oracle(eigen_cone(c), radius))


ELEMENTARY = st.tuples(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
                       st.sampled_from([1, -1]))


def _word_matrix(word):
    p = E3
    for (i, j), s in word:
        rows = [[int(r == c) for c in range(3)] for r in range(3)]
        rows[i][j] = s
        p = p @ IntMat(rows)
    return p


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.sampled_from([p.matrix() for _, p in REFERENCE_PARAMS]),
       st.lists(ELEMENTARY, max_size=6))
def test_dominance_filtered_faces_match_the_full_hull(c, word):
    """The hull of the undominated points and the certification from them
    give the faces of the full radius set on SL(3,Z) conjugates."""
    m = conjugate(_word_matrix(word), c)
    try:
        keys = compute_sail(eigen_cone(m), 16).face_keys()
    except CoverageError:
        reject()
    assert keys == _face_keys_oracle(eigen_cone(m), 16)


@pytest.mark.parametrize("c, faces", [
    (parse_matrix("11,-7,11;7,-4,8;-8,5,-8"), True),   # 3 undominated points
    (parse_matrix("-5,3,-5;-4,1,-3;3,-3,4"), False),   # 4 coplanar ones
])
def test_degenerate_undominated_set_falls_back_to_every_point(c, faces):
    cone = eigen_cone(c)
    pts = _cone_points(cone, 1)
    kept = _undominated(cone, pts)
    assert np.linalg.matrix_rank(pts[1:] - pts[0]) == 3
    assert len(kept) < 4 or np.linalg.matrix_rank(kept[1:] - kept[0]) < 3
    keys = compute_sail(cone, 1).face_keys()
    assert bool(keys) == faces
    assert keys == _face_keys_oracle(eigen_cone(c), 1)


# sha256 of the lines "matrix key group_certified radius" of the torus
# invariant of every conjugate that the sail acceptance claim draws, frozen.
CLAIM7_SHA256 = "c04200e54d85d08e8128d8af898921a26cf5cb387b7049098c4711136bdeb6b2"


def test_claim7_conjugate_invariants_are_frozen():
    lines = []
    for label, params in REFERENCE_PARAMS:
        rng = random.Random("%s:%s" % (SEED, label))
        for _ in range(SL3_SAMPLE):
            conj = conjugate_by(_random_sl3(rng), params.matrix())
            inv = torus_invariant_for(conj)
            lines.append("%s %r %s %d" % (conj.flat(), inv.key(), inv.group_certified,
                                          inv.radius))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CLAIM7_SHA256


@pytest.mark.parametrize("c", [
    GOLDEN, M131, M031, conjugate(P_UNIMODULAR, GOLDEN),
    conjugate(P_UNIMODULAR, M131),
    conjugate(IntMat([[1, 0, 2], [0, 1, 0], [0, -1, 1]]), M031),
])
def test_descartes_total_positivity_matches_root_signs(c):
    # The coefficient-sign test of dirichlet_generators, read off traces and
    # the Gram table, agrees with the characteristic polynomial of the unit
    # matrix and with exact signs of its eigenvalue polynomial at every root.
    chi = (1,) + char_cubic(c).monic()
    units = _Units(c, _Roots(chi))
    intervals = [refine_interval(chi, iv, ROOT_WIDTH) for iv in isolate_real_roots(chi)]
    positive = 0
    for coords, det in _unit_pool_oracle(det_form(units.basis.members()), 8):
        cubic = char_cubic(units.matrix(coords)).as_tuple()
        assert cubic[2] == det
        descartes = all(x > 0 for x in cubic)
        assert units.totally_positive(coords, det) == descartes
        lam = units.eig_poly(coords)
        assert descartes == all(sign_at_root(lam, chi, iv) > 0 for iv in intervals)
        positive += descartes
    assert positive > 1


def test_positive_enclosure_cap_raises_coverage_error():
    # chi vanishes at its own root, so its enclosure never excludes zero.
    roots = dirichlet_generators(eigen_cone(GOLDEN)).units.roots
    with pytest.raises(CoverageError, match="positive eigenvalue"):
        roots.positive(roots.chi, 0, "eigenvalue")


def test_positive_pairing_cap_raises_coverage_error():
    roots = eigen_cone(GOLDEN).roots
    with pytest.raises(CoverageError, match="positive pairing"):
        roots.positive(roots.chi, 1, "pairing")


def test_unit_index_search_cap_raises_coverage_error():
    # <g1^67, g2> has index 67 in the group, beyond the search up to 64.
    group = dirichlet_generators(eigen_cone(GOLDEN))
    gens = [(_mat_power(group.g1, 67), tuple(67 * x for x in group.log1)),
            (group.g2, group.log2)]
    with pytest.raises(CoverageError, match="index search exhausted"):
        _absorb(group.units, gens, group.g1, group.log1)


def _nests(inner, outer):
    return all(lo << k <= a << e <= b << e <= hi << k
               for (a, b, k), (lo, hi, e) in zip(inner, outer))


HYPERBOLIC_CUBICS = st.builds(CharCubic, *[st.integers(-9, 9)] * 3).filter(
    lambda cc: cc.is_irreducible() and cc.is_real_rooted())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(HYPERBOLIC_CUBICS, st.integers(0, 2), st.booleans(),
       st.tuples(*[st.integers(-20, 20)] * 3), st.integers(1, 7))
def test_positive_bounds_the_value_at_the_root(cc, i, near, coeffs, eighth):
    """``positive`` returns exact bounds 0 < lo <= p <= hi at the root, and
    every refinement it makes nests in the intervals before it.  With
    ``near``, p is a linear factor through a point of the isolating
    interval, so its first enclosure straddles zero and must be refined."""
    roots = _Roots((1,) + cc.monic())
    if near:
        lo, hi, k = roots.intervals[i]
        # x - t for t = lo + (hi - lo) * eighth / 8, scaled to integers
        p = (1 << k + 3, -(8 * lo + (hi - lo) * eighth))
    else:
        p = poly_strip(coeffs)
    sign = roots.sign(p, i)
    assume(sign != 0)
    p = poly_scale(p, sign)
    history = [list(roots.intervals)]
    refine = roots.refine

    def recording(bits):
        refine(bits)
        history.append(list(roots.intervals))

    roots.refine = recording
    lo, hi, e = roots.positive(p, i, "value")
    assert 0 < lo <= hi
    iv = roots.intervals[i]
    assert sign_at_root(poly_add(poly_scale(p, 1 << e), (-lo,)), roots.chi, iv) >= 0
    assert sign_at_root(poly_add(poly_scale(p, -1 << e), (hi,)), roots.chi, iv) >= 0
    assert all(_nests(b, a) for a, b in zip(history, history[1:]))
    if near:
        assert len(history) > 1


# (g1, g2, certified, box) of dirichlet_generators, frozen.
FROZEN_GENERATORS = [
    (GOLDEN, ((3, -1, -1), (-1, 1, 0), (0, -1, 1)),
     ((2, 1, 0), (0, 2, 1), (1, 2, 1)), True, 8),
    (M131, ((3, -2, 0), (0, 3, -2), (-2, -6, 5)),
     ((10, -2, -3), (-3, 1, 1), (1, 0, 0)), True, 16),
    (M031, ((2, -1, 0), (0, 2, -1), (-1, -3, 2)),
     ((9, 1, -3), (-3, 0, 1), (1, 0, 0)), True, 8),
    (A42, ((29, -58, 4), (-14, 29, -2), (7, -14, 1)),
     ((729, 1402, -104), (364, 729, -54), (189, 364, -27)), False, 32),
]


@pytest.mark.parametrize("c, g1, g2, certified, box", FROZEN_GENERATORS,
                         ids=["golden", "M131", "M031", "A42"])
def test_dirichlet_generators_frozen(c, g1, g2, certified, box):
    group = dirichlet_generators(eigen_cone(c))
    assert (group.g1.rows, group.g2.rows, group.certified, group.box) == (
        g1, g2, certified, box)


def test_dirichlet_generators_stops_at_the_last_box_that_fits_int64():
    # the determinant form's values may overflow int64 at box 32; box 16
    # already holds an uncertified pair, which is returned
    group = dirichlet_generators(eigen_cone(NEAR_GUARD))
    assert (group.certified, group.box) == (False, 16)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.lists(ELEMENTARY, max_size=6))
def test_torus_invariant_conjugation_invariant(word):
    """The torus invariant of M(-1,2,1) is unchanged by conjugation with an
    elementary SL(3,Z) word.  A conjugate that reaches a cap (CoverageError)
    is rejected, not failed; any other exception fails."""
    try:
        key = torus_invariant_for(conjugate(_word_matrix(word), GOLDEN)).key()
    except CoverageError:
        reject()
    assert key == GOLDEN_KEY


def test_torus_invariant_isolates_roots_once(monkeypatch):
    """The cone and the unit group of one matrix share one roots object."""
    calls = []

    def counting(p):
        calls.append(p)
        return isolate_real_roots(p)

    monkeypatch.setattr(sail, "isolate_real_roots", counting)
    assert torus_invariant_for(GOLDEN).key() == GOLDEN_KEY
    assert len(calls) == 1
