import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

import helpers
from orbitpoly.catalog import CATALOG_NAMES
from orbitpoly.cones import orbit_cone
from orbitpoly.errors import DimensionMismatchError, DimensionTooHighError, GeometryError
from orbitpoly import polytope
from orbitpoly.group import close_generators, find_regular, orbit, root_data
from orbitpoly.numerics import Tolerance, matrix_rank
from orbitpoly.polytope import (
    _merge_facet_rows,
    export_off,
    hull,
    hull_neighbors,
    minkowski_sum,
    polytope_equal,
    support,
)

SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def test_hull_square():
    P = hull(SQUARE)
    assert P.n_vertices == 4
    assert len(P.facet_normals) == 4
    assert P.affine_dim == 2


def test_hull_single_point():
    P = hull([[2.0, 3.0, 4.0]])
    assert P.affine_dim == 0
    assert P.n_vertices == 1
    assert len(P.facet_normals) == 0


def test_hull_interior_points_dropped():
    pts = np.vstack([SQUARE, [[0.0, 0.0], [0.1, 0.1]]])
    P = hull(pts)
    assert P.n_vertices == 4


def test_hull_b2_orbit_octagon():
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    orb = orbit(G, [2.0, 1.0])
    P = hull(orb.points)
    assert P.n_vertices == 8
    # all orbit points lie on a circle, so every one is a vertex
    assert helpers.match_point_sets(P.vertices, orb.points)


def test_hull_dim_cap():
    with pytest.raises(DimensionTooHighError):
        hull(np.eye(7))


@pytest.mark.parametrize("points", [[], [[]], np.zeros((0, 3))])
def test_hull_rejects_empty_input(points):
    with pytest.raises(ValueError, match="at least one point"):
        hull(points)


def test_hull_of_one_point_is_rounded_like_many():
    p = [0.12345678901234566, -1.0, 2.0]
    one = hull([p])
    assert one.vertices.tobytes() == hull([p, p]).vertices.tobytes()
    assert one.vertices.tolist() == [[0.123456789012, -1.0, 2.0]]


# Few distinct values, so rows tie in their leading columns; 1/3 + 1e-14 and
# 1e-13 round onto 1/3 and -0.0 onto 0.0.
_TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1 / 3, 1 / 3 + 1e-14, 1e-13, -2.5])


@st.composite
def _rows_with_duplicates(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    value = _TIED_VALUES | st.floats(min_value=-10, max_value=10)
    rows = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=30))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))]
    return np.array(draw(st.permutations(rows)))


@settings(max_examples=200, deadline=None)
@given(_rows_with_duplicates())
def test_hull_points_dedup_matches_np_unique(pts):
    assert np.array_equal(polytope._hull_points(pts), np.unique(np.round(pts, 12), axis=0))


def test_hull_points_keep_the_first_of_equal_rows_in_input_order():
    # -1e-13 rounds to -0.0, which equals 0.0: of each pair of equal rows
    # the one that comes first in the input is kept, sign bit and all.
    pts = np.array([[-1e-13, 1.0], [0.0, 1.0], [-0.0, -1.0], [0.0, -1.0]])
    got = polytope._hull_points(pts)
    assert got.tolist() == [[0.0, -1.0], [0.0, 1.0]]
    assert np.signbit(got[:, 0]).tolist() == [True, True]
    assert np.signbit(polytope._hull_points(pts[::-1])[:, 0]).tolist() == [False, False]


def test_hull_segment_in_3d():
    P = hull([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    assert P.affine_dim == 1
    assert P.n_vertices == 2
    assert helpers.match_point_sets(P.vertices, [[0, 0, 0], [2, 2, 0]])


def test_hull_planar_square_in_3d():
    pts = np.hstack([SQUARE, np.full((4, 1), 2.0)])
    P = hull(pts)
    assert P.affine_dim == 2
    assert P.n_vertices == 4
    assert len(P.facet_normals) == 4
    assert P.contains([0.0, 0.0, 2.0])
    assert not P.contains([0.0, 0.0, 2.1])
    assert not P.contains([0.9, 0.9, 2.0])


def test_support_square_axis():
    P = hull(SQUARE)
    mu, peak = support(P, [1.0, 0.0])
    assert mu == pytest.approx(1.0)
    assert peak.n_vertices == 1
    assert np.allclose(peak.vertices[0], [1.0, 0.0])


def test_support_square_diagonal_tie():
    P = hull(SQUARE)
    mu, peak = support(P, [1.0, 1.0])
    assert mu == pytest.approx(1.0)
    assert peak.n_vertices == 2
    assert helpers.match_point_sets(peak.vertices, [[1, 0], [0, 1]])


def test_support_octagon_tie():
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    P = hull(orbit(G, [2.0, 1.0]).points)
    mu, peak = support(P, [1.0, 0.0])
    assert mu == pytest.approx(2.0)
    assert helpers.match_point_sets(peak.vertices, [[2, 1], [2, -1]])


def test_minkowski_square_doubles():
    P = hull(SQUARE)
    S = minkowski_sum(P, P)
    assert polytope_equal(S, hull(2 * SQUARE))


def test_minkowski_segments_make_square():
    A = hull([[0.0, 0.0], [1.0, 0.0]])
    B = hull([[0.0, 0.0], [0.0, 1.0]])
    S = minkowski_sum(A, B)
    assert S.affine_dim == 2
    assert helpers.match_point_sets(S.vertices, [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_minkowski_rotated_squares_octagon():
    # Square orbit of (1,0) plus its 20-degree rotate: the sweep oracle says
    # exactly which of the 16 pairwise sums are extreme.
    A = SQUARE
    B = SQUARE @ helpers.rot2(math.radians(20)).T
    sums = (A[:, None, :] + B[None, :, :]).reshape(-1, 2)
    expected = helpers.extreme_points_2d(sums)
    assert len(expected) == 8
    S = minkowski_sum(hull(A), hull(B))
    assert S.n_vertices == 8
    assert helpers.match_point_sets(S.vertices, expected)


def test_minkowski_dim_mismatch(groups):
    with pytest.raises(DimensionMismatchError):
        minkowski_sum(hull(SQUARE), hull([[0.0, 0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError):
        minkowski_sum(orbit(groups["b2"], [2.0, 1.0]), orbit(groups["a3"], [1.0, 2.0, 3.0]))


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "h3", "chiral_t", "chiral_o"])
def test_orbit_sums_equal_orbit_hull_sums(groups, name):
    # hull(A) + hull(B) = hull(A + B), and every orbit point is a vertex of
    # its orbit's hull: summing the orbits gives the sum of their hulls, bit
    # for bit, without building them.
    G = helpers.named_group(groups, name)
    for seed in range(20):
        u, v = orbit(G, find_regular(G, seed)), orbit(G, find_regular(G, seed + 1))
        assert _same_bytes(minkowski_sum(u, v), minkowski_sum(hull(u.points), hull(v.points)))


@pytest.mark.parametrize("name", ["a3", "h3"])
def test_orbit_sums_near_a_mirror_equal_orbit_hull_sums(groups, name):
    # u 1e-4 ... 1e-6 off its nearest mirror: hull(O_u) keeps every orbit
    # point, and the orbit sum is the hull sum bit for bit.
    G = helpers.named_group(groups, name)
    normals = root_data(G).normals
    for seed in range(5):
        w = find_regular(G, seed)
        margins = normals @ w
        i = int(np.argmin(np.abs(margins)))
        v = orbit(G, find_regular(G, seed + 1))
        for delta in (1e-4, 1e-5, 1e-6):
            u = orbit(G, w - (margins[i] - math.copysign(delta, margins[i])) * normals[i])
            P = hull(u.points)
            assert P.n_vertices == len(u) == G.order
            assert _same_bytes(minkowski_sum(u, v), minkowski_sum(P, hull(v.points)))


def test_minkowski_parallel_edges_collinear_sums():
    # Hexagon plus triangle with parallel edges: vertex sums land in edge
    # interiors and must not survive as hull vertices.
    hexagon = np.array([helpers.rot2(k * math.pi / 3) @ [1.0, 0.0] for k in range(6)])
    triangle = np.array([helpers.rot2(k * 2 * math.pi / 3) @ [0.0, 1.0] for k in range(3)])
    S = minkowski_sum(hull(hexagon), hull(triangle))
    sums = (hexagon[:, None, :] + triangle[None, :, :]).reshape(-1, 2)
    expected = helpers.extreme_points_2d(sums)
    assert S.n_vertices == len(expected)
    assert helpers.match_point_sets(S.vertices, expected)


def test_polytope_equal_reflexive_and_negative():
    P = hull(SQUARE)
    assert polytope_equal(P, hull(SQUARE[::-1]))
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    Q = hull(orbit(G, [2.0, 1.0]).points)
    assert not polytope_equal(P, Q)


def test_sp_instance_b2():
    # hull(O_u) + hull(O_v) equals hull(O_{u+v}) when both lie in the same
    # closed chamber of the square's symmetry group.
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    u, v = np.array([1.0, 0.0]), np.array([2.0, 1.0])
    lhs = minkowski_sum(hull(orbit(G, u).points), hull(orbit(G, v).points))
    rhs = hull(orbit(G, u + v).points)
    assert polytope_equal(lhs, rhs)


def test_hull_idempotent(groups):
    from orbitpoly.group import find_regular

    for G in groups.values():
        P = hull(orbit(G, find_regular(G, 2)).points)
        assert polytope_equal(P, hull(P.vertices))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=2, max_value=3),
)
def test_support_additive_random_clouds(seed, n_pts, dim):
    rng = np.random.default_rng(seed)
    P = hull(rng.standard_normal((n_pts, dim)))
    Q = hull(rng.standard_normal((n_pts, dim)))
    S = minkowski_sum(P, Q)
    for _ in range(5):
        v = rng.standard_normal(dim)
        assert support(S, v).mu == pytest.approx(
            support(P, v).mu + support(Q, v).mu, abs=1e-8
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_peak_additive_random_clouds(seed):
    rng = np.random.default_rng(seed)
    P = hull(rng.standard_normal((8, 2)))
    Q = hull(rng.standard_normal((8, 2)))
    S = minkowski_sum(P, Q)
    v = rng.standard_normal(2)
    peak_sum = support(S, v).peak
    sum_peaks = minkowski_sum(support(P, v).peak, support(Q, v).peak)
    assert polytope_equal(peak_sum, sum_peaks, Tolerance(eps_eq=1e-8))


def test_facet_vertex_incidence(groups):
    for name in ("b2", "a3", "b3"):
        G = groups[name]
        P = hull(orbit(G, find_regular(G, 4)).points)
        for n, b in zip(P.facet_normals, P.facet_offsets):
            assert np.sum(np.abs(P.vertices @ n - b) <= 1e-9) >= P.affine_dim


def test_export_off_cube():
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    P = hull(cube)
    text = export_off(P)
    lines = text.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "8 6 0"
    verts = np.array([[float(x) for x in line.split()] for line in lines[2:10]])
    face_lines = lines[2 + 8:]
    assert len(face_lines) == 6
    for line in face_lines:
        parts = line.split()
        assert parts[0] == "4"
        assert len(parts) == 5
        # face cycles wind counterclockwise seen from outside: the polygon
        # area normal points away from the body
        cycle = verts[[int(i) for i in parts[1:]]]
        center = cycle.mean(axis=0)
        area_normal = np.zeros(3)
        for i in range(len(cycle)):
            area_normal += np.cross(cycle[i] - center, cycle[(i + 1) % len(cycle)] - center)
        assert area_normal @ center > 0


def test_export_off_rejects_flat():
    P = hull(np.hstack([SQUARE, np.zeros((4, 1))]))
    with pytest.raises(ValueError):
        export_off(P)


@pytest.mark.parametrize(
    "name, order, facets", [("d4", 192, 48), ("b4", 384, 80), ("f4", 1152, 240)]
)
def test_large_orbit_hull_known_answers(name, order, facets):
    G = close_generators(helpers.reflection_generators(name), name=name)
    assert G.order == order
    P = hull(orbit(G, find_regular(G, 0)).points)
    assert P.n_vertices == order
    assert len(P.facet_normals) == facets


# A dyadic merge width: rows on a grid of EPS / 16 differ by exact multiples.
EPS = 2.0**-20


@st.composite
def facet_rows(draw):
    """Shuffled rows with planted clusters, a chain and an exact-EPS pair.

    Returns the rows and the number of groups single linkage must form.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    width = draw(st.integers(min_value=2, max_value=5))
    n_clusters = draw(st.integers(min_value=0, max_value=6))
    blocks = []
    for _ in range(n_clusters):
        size = draw(st.integers(min_value=1, max_value=5))
        blocks.append(rng.uniform(-1, 1, width) + rng.uniform(-0.45, 0.45, (size, width)) * EPS)
    # Neighbors 0.75 EPS apart; the ends are at least 1.5 EPS apart.
    links = draw(st.integers(min_value=2, max_value=6))
    step = np.zeros(width)
    step[0] = 0.75 * EPS
    blocks.append(rng.uniform(-1, 1, width) + np.arange(links + 1)[:, None] * step)
    # Exactly EPS apart in max-norm: must stay two groups.
    grid = rng.integers(-(2**23), 2**23, width) * (EPS / 16)
    blocks.append(np.array([grid, grid + np.eye(width)[-1] * EPS]))
    rows = np.vstack(blocks)
    return rows[rng.permutation(len(rows))], n_clusters + 3


@settings(max_examples=60, deadline=None)
@given(facet_rows())
def test_merge_facet_rows_matches_reference(case):
    rows, n_groups = case
    merged = _merge_facet_rows(rows, EPS)
    assert np.array_equal(merged, helpers.merge_facet_rows_reference(rows, EPS))
    assert len(merged) == n_groups


def test_merge_facet_rows_keeps_signed_zeros():
    # np.mean sums from +0.0, so a -0.0 comes out as +0.0 even in a
    # singleton group; array_equal cannot see that, so compare bytes.
    rows = np.array([[-0.0, 1.0, 0.5], [1.0, -0.0, -0.0], [1.0 + 1e-12, -0.0, 1e-13]])
    merged = _merge_facet_rows(rows, EPS)
    assert len(merged) == 2
    assert merged.tobytes() == helpers.merge_facet_rows_reference(rows, EPS).tobytes()


def test_merge_facet_rows_on_qhull_equations(groups):
    for name in ("a3", "b3"):
        G = groups[name]
        rows = ConvexHull(orbit(G, find_regular(G, 3)).points).equations
        merged = _merge_facet_rows(rows, 1e-9)
        assert np.array_equal(merged, helpers.merge_facet_rows_reference(rows, 1e-9))
        assert len(merged) < len(rows)


def test_hull_neighbors_square():
    assert hull_neighbors(SQUARE, 0).tolist() == [1, 3]
    assert hull_neighbors(SQUARE, 2).tolist() == [1, 3]


@pytest.mark.parametrize("dim", [3, 4])
def test_hull_neighbors_skip_face_diagonals(dim):
    # Qhull splits every square face of a cube along a diagonal; only the
    # dim edge neighbors (one flipped sign) are hull edges.
    cube = np.array(np.meshgrid(*[[-1.0, 1.0]] * dim, indexing="ij")).reshape(dim, -1).T
    for index in range(len(cube)):
        flips = np.sum(cube != cube[index], axis=1)
        assert hull_neighbors(cube, index).tolist() == np.flatnonzero(flips == 1).tolist()


@pytest.mark.parametrize("name", ["a3", "b3", "h3", "d4"])
def test_hull_neighbors_of_regular_orbit_are_its_mirror_images(groups, name):
    # A regular orbit point has one hull edge per simple reflection, however
    # Qhull triangulates the hexagons, decagons and squares around it.
    G = groups[name] if name in groups else close_generators(helpers.reflection_generators(name))
    for seed in range(5):
        assert len(hull_neighbors(orbit(G, find_regular(G, seed)).points, 0)) == G.dim


def test_hull_neighbors_keep_every_index_without_simplices():
    # An interior point is in no hull simplex; a segment has no triangulation.
    assert hull_neighbors(np.vstack([SQUARE, [[0.0, 0.0]]]), 4).tolist() == [0, 1, 2, 3]
    segment = [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]
    assert hull_neighbors(segment, 1).tolist() == [0, 2]
    assert hull_neighbors([[1.0, 2.0]], 0).tolist() == []


def test_qhull_failure_raises_geometry_error(monkeypatch):
    from scipy.spatial import QhullError

    from orbitpoly import polytope

    def fail(points, **kwargs):
        raise QhullError("QH6154 initial simplex is flat (forced)")

    monkeypatch.setattr(polytope, "ConvexHull", fail)
    for call in (lambda: hull(SQUARE), lambda: hull_neighbors(SQUARE, 0)):
        with pytest.raises(GeometryError, match="Qhull failed"):
            call()


def _orbit_hull(G, seed):
    return hull(orbit(G, find_regular(G, seed)).points)


def _pairwise_sums(P, Q):
    return (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.ambient_dim)


def _forbid_lp(monkeypatch):
    from orbitpoly import cones, polytope

    def forbidden(*args, **kwargs):
        raise AssertionError("LP called")

    for module in (polytope, cones):
        monkeypatch.setattr(module, "linprog", forbidden)


def test_regular_orbit_hulls_and_sums_make_no_lp(groups, monkeypatch):
    # On the a3 sum the probes leave candidates uncertified: the reference
    # spends LPs on them.
    G = groups["a3"]
    lps = []
    real = helpers.linprog
    monkeypatch.setattr(helpers, "linprog", lambda *a, **k: lps.append(1) or real(*a, **k))
    helpers.hull_reference(_pairwise_sums(_orbit_hull(G, 1001), _orbit_hull(G, 1002)))
    assert len(lps) > 0

    # Production settles them against the hull of the certified candidates.
    _forbid_lp(monkeypatch)
    for name, facets in (("b3", 26), ("h3", 62), ("d4", 48)):
        assert len(_orbit_hull(helpers.named_group(groups, name), 7).facet_normals) == facets
    # The sum inputs of the benchmark's minkowski commands.
    for name in ("a3", "b3", "chiral_t", "chiral_o"):
        G = helpers.named_group(groups, name)
        for seed in range(1001, 1005):
            total = minkowski_sum(_orbit_hull(G, seed), _orbit_hull(G, seed + 1))
            assert total.n_vertices % G.order == 0


def test_sum_with_uncertified_candidates_makes_no_nested_hull(groups, monkeypatch):
    # The a3 sum at seeds 1001/1002 drops uncertified candidates, and its
    # facets come from the Qhull call that dropped them, not from a second hull.
    from orbitpoly import polytope

    G = groups["a3"]
    P, Q = _orbit_hull(G, 1001), _orbit_hull(G, 1002)
    depth, nested = [0], []
    real = polytope.hull

    def counted(*args, **kwargs):
        nested.append(depth[0])
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(polytope, "hull", counted)
    sums = _pairwise_sums(P, Q)
    total = polytope.hull(sums)
    assert nested == [0]
    assert (total.n_vertices, len(total.facet_normals)) == (24, 14)
    assert len(polytope._hull_points(sums)) > total.n_vertices


def _rotation(seed, dim):
    """Seeded orthogonal matrix: QR of a Gaussian, R's diagonal signs folded into Q."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize(
    "name, facets", [("d4", 48), ("f4", 240), ("b3", 26), ("h3", 62), ("a3", 14), ("chiral_o", None)]
)
def test_hull_counts_hold_in_a_rotated_basis(groups, name, facets):
    # Conjugating the group by Q rotates its orbit hulls and their sums.  In
    # a rotated basis Qhull's triangulation holds flat simplices whose
    # equations are arbitrary; they must not become facets.  a3 and chiral_o
    # check sums, and each body is compared with its rotation back.
    G = helpers.named_group(groups, name)
    for seed in range(4):
        Q = _rotation(seed, G.dim)
        rotated = close_generators([Q @ G.elements[i] @ Q.T for i in G.generator_indices])
        P = _orbit_hull(rotated, seed)
        if name in ("a3", "chiral_o"):
            P = minkowski_sum(P, _orbit_hull(rotated, seed + 1))
        back = hull(P.vertices @ Q)
        assert (P.n_vertices, len(P.facet_normals)) == (back.n_vertices, len(back.facet_normals))
        if facets is not None:
            assert len(P.facet_normals) == facets


def test_a5_permutohedron_in_the_basis_of_its_simple_roots():
    # S6 on the sum-zero R^5: a regular orbit hull is the permutohedron of
    # order 6, with 2^6 - 2 facets.  With scipy's default options alone
    # Qhull ends in a wide-merge error (QH6271) at most seeds in this basis;
    # Q12 lets it finish.
    Q, _ = np.linalg.qr(np.array(helpers.SIMPLE_ROOTS["a5"]).T)
    G = close_generators([Q.T @ g @ Q for g in helpers.reflection_generators("a5")])
    assert (G.order, G.dim) == (720, 5)
    for seed in (*range(8), 42):
        P = _orbit_hull(G, seed)
        assert (P.n_vertices, len(P.facet_normals)) == (720, 62)


def _same_bytes(P, Q):
    return all(
        getattr(P, field).tobytes() == getattr(Q, field).tobytes()
        for field in ("vertices", "facet_normals", "facet_offsets")
    )


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "chiral_t", "chiral_o"])
def test_hull_matches_lp_reference_near_walls(groups, name):
    # Orbit hulls, and sums with a regular orbit hull, of vectors on and near
    # a wall of the orbit cone (a mirror for the reflection groups).
    G = helpers.named_group(groups, name)
    for seed in range(3):
        v = find_regular(G, seed)
        wall = orbit_cone(G, v).halfspace_normals[0]
        Q = _orbit_hull(G, seed + 1)
        for delta in (0.0, 1e-3, 1e-5):
            points = orbit(G, v - (wall @ v - delta) * wall).points
            P = hull(points)
            assert _same_bytes(P, helpers.hull_reference(points))
            sums = _pairwise_sums(P, Q)
            assert _same_bytes(hull(sums), helpers.hull_reference(sums))


def test_regular_orbit_sums_known_answers(groups):
    # Two regular a3 orbit hulls sum to a permutohedron; a generic sum of
    # chiral orbit hulls has vertices in whole orbits of the group.
    for seed in range(20):
        for name in ("a3", "chiral_t", "chiral_o"):
            G = helpers.named_group(groups, name)
            total = minkowski_sum(_orbit_hull(G, seed), _orbit_hull(G, seed + 1))
            if name == "a3":
                assert (total.n_vertices, len(total.facet_normals)) == (24, 14)
            else:
                assert total.n_vertices % G.order == 0


# Two corners 1e-4 apart, 1e-6 above the segment [-1, 1] x {0}: no probe
# direction separates either corner from the other by eps_eq.
_TWIN_CORNERS = np.array([[-1.0, 0.0], [1.0, 0.0], [-1e-4, 1e-6], [1e-4, 1e-6]])


def test_uncertified_corner_joins_certified_vertices(monkeypatch):
    # With (0, -1) the certified candidates span the plane: one twin sticks
    # out of their triangle and joins them, and the other then lies within
    # eps_eq of the hull, all without an LP.
    _forbid_lp(monkeypatch)
    points = np.vstack([_TWIN_CORNERS, [[0.0, -1.0]]])
    P = hull(points)
    assert P.n_vertices == 4
    assert all(P.contains(p) for p in points)
    assert np.sum(P.vertices[:, 1] == 1e-6) == 1


def test_certified_vertices_that_do_not_span_grow_without_lp(monkeypatch):
    # Only the segment's ends are certified, two points in the plane: the
    # highest twin joins them, and the other lies within eps_eq of their
    # triangle.  The LP reference keeps the other twin, equally well.
    _forbid_lp(monkeypatch)
    P = hull(_TWIN_CORNERS)
    assert P.n_vertices == 3
    assert all(P.contains(p) for p in _TWIN_CORNERS)


def test_coplanar_certified_vertices_grow_without_lp(monkeypatch):
    # A square with the twin corners 1e-6 above its middle: the probes
    # certify the square's corners, which span only a plane.
    from orbitpoly import polytope

    _forbid_lp(monkeypatch)
    square = np.array([[-1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])
    points = np.vstack([square, [[-1e-4, 0.0, 1e-6], [1e-4, 0.0, 1e-6]]])
    pts = polytope._hull_points(points)
    _, basis, chart = polytope._affine_chart(pts, Tolerance())
    qh, _, certified = polytope._probe_facets(pts, chart, basis, Tolerance())
    known = chart[qh.vertices][certified]
    assert len(basis) == 3
    assert helpers.match_point_sets(pts[qh.vertices][certified], square)
    assert matrix_rank(known - known[0]) == 2
    P = hull(points)
    assert (P.n_vertices, len(P.facet_normals)) == (5, 5)
    assert all(P.contains(p) for p in points)


_TRIANGLE = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]])


def test_within_hull_decides_at_eps():
    # (0.3, h) is h away from the triangle's top edge in max-norm.  The LP
    # answers at eps = 1e-9, not at HiGHS's default 1e-7 feasibility.
    for h in (0.0, 5e-10, 1e-9):
        assert helpers.within_hull(np.array([0.3, h]), _TRIANGLE, 1e-9)
    for h in (2e-9, 5e-9, 2e-8, 5e-8, 1e-7):
        assert not helpers.within_hull(np.array([0.3, h]), _TRIANGLE, 1e-9)


def test_lp_certification_keeps_points_beyond_eps():
    # Three points 1.5e-9 above the triangle's top edge: the LP reference may
    # drop some of them, but only those within eps_eq of what it keeps.
    points = np.vstack([_TRIANGLE, [[-0.5, 1.5e-9], [0.0, 1.5e-9 + 1e-13], [0.5, 1.5e-9]]])
    for P in (hull(points), helpers.hull_reference(points)):
        assert all(P.contains(p) for p in points)
    assert hull(points).n_vertices == 5
