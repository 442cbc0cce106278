import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
from orbitpoly import cones
from orbitpoly.catalog import CATALOG_NAMES
from orbitpoly.cones import (
    cone_contains,
    cone_equal,
    cone_from_halfspaces,
    dual_cone,
    in_orbit_cone,
    orbit_cone,
    voronoi_consistency,
)
from orbitpoly.cli import main
from orbitpoly.coxeter import group_reflections, sp_equivalence_report
from orbitpoly.errors import GeometryError, OrbitPolyError, ZeroVectorError
from orbitpoly.group import close_generators, find_regular, orbit
from orbitpoly.numerics import DEFAULT_TOL, unit
from orbitpoly.polytope import hull, support

R2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def c4():
    return close_generators([helpers.rot2(math.pi / 2)], name="c4")


@pytest.fixture(scope="module")
def b2():
    return close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])], name="b2")


def test_orbit_cone_c4_reduction(c4):
    # Raw difference normals are (1,-1), (2,0), (1,1); the axis one is
    # redundant and the cone is {x >= |y|}.
    C = orbit_cone(c4, [1.0, 0.0])
    assert helpers.match_point_sets(C.halfspace_normals, [[R2, -R2], [R2, R2]])
    assert helpers.match_point_sets(C.rays, [[R2, R2], [R2, -R2]])
    assert C.lineality_dim == 0


def test_orbit_cone_trivial_group():
    G = close_generators([np.eye(2)])
    C = orbit_cone(G, [1.0, 0.0])
    assert C.is_whole_space
    assert C.lineality_dim == 2
    assert len(C.rays) == 0


def test_orbit_cone_b2_chamber(b2):
    # Seven difference normals reduce to the chamber {x >= y >= 0}.
    C = orbit_cone(b2, [2.0, 1.0])
    assert helpers.match_point_sets(C.halfspace_normals, [[0, 1], [R2, -R2]])
    assert helpers.match_point_sets(C.rays, [[1, 0], [R2, R2]])


def _assert_matches_unpruned(G, v):
    """The orbit cone equals the LP reduction of all |G| difference rows."""
    v = np.asarray(v, dtype=float)
    C = orbit_cone(G, v)
    ref = cones._cone(helpers.irredundant_reference(v - orbit(G, v).points), G.dim, DEFAULT_TOL)
    assert np.array_equal(C.halfspace_normals, ref.halfspace_normals)
    assert np.array_equal(C.rays, ref.rays)
    assert C.lineality_dim == ref.lineality_dim
    assert np.array_equal(C.lineality_basis, ref.lineality_basis)
    return C


@pytest.mark.parametrize("name", CATALOG_NAMES + ("h3", "d4"))
def test_orbit_cone_matches_unpruned(groups, name):
    if name in groups:
        G = groups[name]
    else:
        G = close_generators(helpers.reflection_generators(name), name=name)
    vectors = [find_regular(G, seed) for seed in (0, 1)]
    reflections = group_reflections(G)
    if reflections:
        # On a mirror (non-regular), then 1e-2 ... 1e-6 off it.
        n = reflections[0].normal
        on_mirror = vectors[0] - (vectors[0] @ n) * n
        vectors += [on_mirror + delta * n for delta in (0.0, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    for v in vectors:
        _assert_matches_unpruned(G, v)


@pytest.mark.parametrize("name", ["chiral_t", "chiral_o"])
def test_orbit_cone_matches_unpruned_near_a_chiral_wall(name):
    # No mirrors here: step off a wall of a regular vector's own cone, a
    # plane on which the functional ties two points of its orbit.  From 1e-6
    # in, the hull-edge facets and the LP reduction can disagree on a thin
    # facet (a tolerance question), so the sweep stops at 1e-5.
    G = close_generators(helpers.NON_REFLECTION_GENERATORS[name], name=name)
    for seed in (0, 1, 2):
        v = find_regular(G, seed)
        n = _assert_matches_unpruned(G, v).halfspace_normals[0]
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            _assert_matches_unpruned(G, v - (v @ n - delta) * n)


B2_PLUS_TRIVIAL = [
    np.block([[helpers.rot2(math.pi / 2), np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]]),
    np.diag([1.0, -1.0, 1.0]),
]


@pytest.mark.parametrize(
    "gens, v, lineality_dim",
    [
        ([np.eye(3)], [0.3, -0.4, 0.5], 3),  # orbit of affine dim 0
        ([-np.eye(1)], [0.7], 0),  # a1: affine dim 1
        ([-np.eye(3)], [0.3, -0.4, 0.5], 2),  # -I3: affine dim 1
        (B2_PLUS_TRIVIAL, [0.8, 0.3, 0.5], 1),  # non-essential action
    ],
    ids=["trivial", "a1", "minus_i3", "b2_plus_trivial"],
)
def test_orbit_cone_degenerate_orbits_match_unpruned(gens, v, lineality_dim):
    C = _assert_matches_unpruned(close_generators(gens), v)
    assert C.lineality_dim == lineality_dim


def test_orbit_cone_rejects_zero(b2):
    with pytest.raises(ZeroVectorError):
        orbit_cone(b2, [0.0, 0.0])


def test_orbit_cone_contains_base(groups):
    for G in groups.values():
        v = find_regular(G, 13)
        C = orbit_cone(G, v)
        assert cone_contains(C, v)


def test_dual_swaps_normals_and_rays(c4):
    C = orbit_cone(c4, [1.0, 0.0])
    D = dual_cone(C)
    assert helpers.match_point_sets(D.rays, C.halfspace_normals)
    assert helpers.match_point_sets(D.halfspace_normals, C.rays)


def test_dual_of_whole_space():
    G = close_generators([np.eye(2)])
    C = orbit_cone(G, [1.0, 0.0])
    D = dual_cone(C)
    assert D.lineality_dim == 0
    assert len(D.rays) == 0  # the zero cone has no extreme rays
    assert not cone_contains(D, [1e-3, 0.0])


def test_dual_involution(groups):
    for G in groups.values():
        v = find_regular(G, 19)
        C = orbit_cone(G, v)
        assert cone_equal(dual_cone(dual_cone(C)), C)


def test_cone_contains_examples(c4):
    C = orbit_cone(c4, [1.0, 0.0])  # {x >= |y|}
    assert cone_contains(C, [5.0, 1.0])
    assert not cone_contains(C, [0.0, 1.0])
    assert cone_contains(C, [1.0, 1.0])  # boundary of the closed cone


def test_cone_equal_examples(c4):
    C = orbit_cone(c4, [1.0, 0.0])
    assert cone_equal(C, C)
    D = cone_from_halfspaces([[-R2, R2], [R2, R2]])  # {y >= |x|}
    assert not cone_equal(C, D)


def test_cone_equal_same_chamber_interior(b2):
    # Two regular points interior to the same chamber share one cone.
    assert cone_equal(orbit_cone(b2, [2.0, 1.0]), orbit_cone(b2, [3.0, 0.5]))
    assert not cone_equal(orbit_cone(b2, [2.0, 1.0]), orbit_cone(b2, [1.0, 2.0]))


def test_only_base_point_in_own_cone(groups):
    rng = np.random.default_rng(29)
    for G in groups.values():
        for v in (find_regular(G, 31), rng.standard_normal(G.dim)):
            orb = orbit(G, v)
            C = orbit_cone(G, v)
            inside = [p for p in orb.points if cone_contains(C, p)]
            assert len(inside) == 1
            assert np.allclose(inside[0], orb.points[0], atol=1e-9)


def test_membership_symmetry(groups):
    rng = np.random.default_rng(37)
    for G in groups.values():
        for _ in range(100):
            u = rng.standard_normal(G.dim)
            v = rng.standard_normal(G.dim)
            assert in_orbit_cone(G, v, u) == in_orbit_cone(G, u, v)


def test_membership_iff_peak(groups):
    # u in the cone of v exactly when v maximizes u's functional on its orbit.
    rng = np.random.default_rng(41)
    for G in groups.values():
        for _ in range(60):
            u = rng.standard_normal(G.dim)
            v = rng.standard_normal(G.dim)
            pts = orbit(G, v).points
            vals = pts @ u
            v_peaks = vals[0] >= vals.max() - 1e-9
            assert in_orbit_cone(G, v, u) == v_peaks


def test_peak_set_is_cone_slice(groups):
    # Vertices of the support peak of hull(O_u) in direction v are exactly
    # the orbit points inside the cone of v.
    rng = np.random.default_rng(43)
    for G in groups.values():
        v = find_regular(G, 47)
        C = orbit_cone(G, v)
        for _ in range(25):
            u = rng.standard_normal(G.dim)
            orb = orbit(G, u)
            peak = support(hull(orb.points), v).peak
            slice_pts = np.array([p for p in orb.points if cone_contains(C, p)])
            assert helpers.match_point_sets(peak.vertices, slice_pts)


def test_every_orbit_meets_cone(groups):
    rng = np.random.default_rng(53)
    for G in groups.values():
        v = find_regular(G, 59)
        C = orbit_cone(G, v)
        for _ in range(25):
            orb = orbit(G, rng.standard_normal(G.dim))
            assert any(cone_contains(C, p) for p in orb.points)


def test_regular_cone_full_dimensional(groups):
    for G in groups.values():
        C = orbit_cone(G, find_regular(G, 61))
        assert C.lineality_dim == 0
        stacked = np.vstack([C.rays, C.lineality_basis]) if C.lineality_dim else C.rays
        assert np.linalg.matrix_rank(stacked) == G.dim


def test_cone_orbit_simply_transitive(groups):
    # For regular v the map g -> cone(gv) is injective: |G| distinct cones.
    from orbitpoly.numerics import DEFAULT_TOL, round_key

    for G in groups.values():
        v = find_regular(G, 67)
        base = orbit_cone(G, v).halfspace_normals
        keys = set()
        for g in G.elements:
            transformed = base @ g.T
            canon = tuple(sorted(round_key(row, DEFAULT_TOL) for row in transformed))
            keys.add(canon)
        assert len(keys) == G.order


def test_shared_wall_orthogonal_to_difference(groups):
    # Points common to the cones of two orbit points are orthogonal to their
    # difference; sample the intersection cone through its rays.
    for name in ("b2", "g2", "a3"):
        G = groups[name]
        v = find_regular(G, 71)
        orb = orbit(G, v)
        C_v = orbit_cone(G, v)
        rng = np.random.default_rng(73)
        for p, w in list(zip(orb.points, orb.point_to_element))[1:6]:
            C_p_normals = C_v.halfspace_normals @ G.elements[w].T
            inter = cone_from_halfspaces(np.vstack([C_v.halfspace_normals, C_p_normals]))
            samples = list(inter.rays) + list(inter.lineality_basis)
            for _ in range(5):
                if len(inter.rays):
                    coeffs = rng.uniform(0, 1, len(inter.rays))
                    samples.append(coeffs @ inter.rays)
            for x in samples:
                assert abs(float(np.dot(x, p - v))) <= 1e-8


def test_local_peak_neighborhood(groups):
    # With the base at the center of its cone, every direction within a
    # tenth of the radius keeps the base as unique maximizer.
    for G in groups.values():
        v0 = find_regular(G, 79)
        C = orbit_cone(G, v0)
        v = unit(np.sum(C.rays, axis=0)) if len(C.rays) else v0
        if len(orbit(G, v)) != G.order:
            v = v0  # fall back when the ray sum is non-regular
        failures = helpers.local_peak_failures(G, v, radius_factor=0.1, n_samples=50, seed=83)
        assert failures == []


def test_local_peak_failures_tell_v_from_orbit_points_past_eps():
    # v lies 1e-6 off a 3-fold axis of the chiral tetrahedral group, so two
    # orbit points lie 1.4e-6 from v in every coordinate: farther than eps_eq
    # (1e-9), though within a relative 1e-5 of |v|.  A direction whose unique maximiser is
    # one of them is a failure.
    G = close_generators(helpers.NON_REFLECTION_GENERATORS["chiral_t"], name="chiral_t")
    v = unit(np.ones(3)) + 1e-6 * unit(np.array([1.0, -1.0, 0.0]))
    points = orbit(G, v).points
    assert 1e-9 < np.sort(np.abs(points - v).max(axis=1))[1] < 1e-5
    failures = helpers.local_peak_failures(G, v, radius_factor=0.1, n_samples=50, seed=83)
    for failure in failures:
        values = points @ np.array(failure["direction"])
        top = np.flatnonzero(values >= values.max() - G.tol.eps_eq)
        assert len(top) == failure["tied"]
        assert len(top) > 1 or np.abs(points[top[0]] - v).max() > G.tol.eps_eq
    assert len(failures) == 31


def _assert_voronoi_matches_reference(G, v, n_samples, seed, extra_points=None):
    got = voronoi_consistency(G, v, n_samples, seed, extra_points=extra_points)
    want = helpers.voronoi_reference(G, v, n_samples, seed, extra_points=extra_points)
    assert got.violations == want.violations
    assert (got.n_points, got.n_samples) == (want.n_points, want.n_samples)
    if want.min_wall_distance is None:
        assert got.min_wall_distance is None
    else:
        # One product per facet sums in another order than the einsum.
        assert abs(got.min_wall_distance - want.min_wall_distance) <= 1e-12
    return got


def test_voronoi_consistency_catalog(groups):
    for G in groups.values():
        report = voronoi_consistency(G, find_regular(G, 89), n_samples=200, seed=97)
        assert report.passed, report.violations[:3]
        assert report.min_wall_distance > 0.0


@pytest.mark.parametrize("name", helpers.RAY_GROUPS)
def test_voronoi_matches_reference(groups, name):
    G = helpers.named_group(groups, name)
    for seed in range(12):
        _assert_voronoi_matches_reference(G, find_regular(G, seed), 500, seed)


def test_voronoi_tie_on_wall(c4):
    # A sample on the diagonal wall is equidistant from (1,0) and (0,1) and
    # must be a member of both cones.
    report = _assert_voronoi_matches_reference(
        c4, np.array([1.0, 0.0]), n_samples=10, seed=1, extra_points=[[2.0, 2.0]]
    )
    assert report.passed
    assert report.min_wall_distance <= DEFAULT_TOL.eps_eq
    orb = orbit(c4, np.array([1.0, 0.0]))
    wall = np.array([2.0, 2.0])
    d = np.linalg.norm(wall - orb.points, axis=1)
    assert np.sum(d <= d.min() + 1e-9) == 2


@pytest.mark.parametrize("name", ["b3", "h3"])
def test_voronoi_ties_at_wall_midpoints(groups, name):
    # v - <v, n> n is the midpoint of v and its mirror image across the wall
    # n, inside that wall of both cells: two nearest points, two cones.
    G = helpers.named_group(groups, name)
    v = find_regular(G, 0)
    midpoints = [v - (v @ n) * n for n in orbit_cone(G, v).halfspace_normals]
    report = _assert_voronoi_matches_reference(G, v, 100, 0, extra_points=midpoints)
    assert report.passed
    assert report.min_wall_distance <= G.tol.eps_eq
    points = orbit(G, v).points
    for m in midpoints:
        d = np.linalg.norm(points - m, axis=1)
        assert np.sum(d <= d.min() + G.tol.eps_eq) == 2


def test_voronoi_blocks_match_reference(groups):
    # A sample count that no whole number of blocks makes, wall midpoints
    # appended: the block walk keeps every decision and the violation order.
    # One sample is left over, and the last block takes it.
    G = helpers.named_group(groups, "h3")
    v = find_regular(G, 5)
    block = cones._VORONOI_BLOCK_BYTES // (8 * G.order) - 1
    midpoints = [v - (v @ n) * n for n in orbit_cone(G, v).halfspace_normals]
    n_samples = 7 * block + 1 - len(midpoints)
    assert 1 < block and (n_samples + len(midpoints)) % block == 1
    report = _assert_voronoi_matches_reference(G, v, n_samples, 5, extra_points=midpoints)
    assert report.n_samples == n_samples + len(midpoints)
    assert report.min_wall_distance <= G.tol.eps_eq


@pytest.mark.parametrize(
    "name, seed, n_violations",
    [
        # The regular vector is within 2e-4 of a mirror and one sample falls
        # near the wall between the two close orbit points: the absolute
        # distance tie and the cone test disagree (perfbench/README.md).
        ("d4", 804, 1),
        ("d4", 4158078, 1),
        # 2.4e-5 from a mirror, with no violation at 1000 samples.
        ("h3", 117, 0),
    ],
)
def test_voronoi_near_mirror_matches_reference(groups, name, seed, n_violations):
    G = helpers.named_group(groups, name)
    report = _assert_voronoi_matches_reference(G, find_regular(G, seed), 1000, seed)
    assert len(report.violations) == n_violations


@pytest.mark.parametrize("name", ["d4", "f4"])
def test_voronoi_memory_is_bounded(groups, name):
    # The work arrays are (block, orbit points), within the block budget
    # each; the rest grows with the samples (n x dim) and with the orbit's
    # cells (|G| x dim x dim), not with their product.
    G = helpers.named_group(groups, name)
    v = find_regular(G, 0)
    voronoi_consistency(G, v, 10, 0)  # orbit and root data cached untraced
    tracemalloc.start()
    try:
        report = voronoi_consistency(G, v, 1000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    floats = report.n_samples * G.dim + G.order * G.dim**2
    assert peak < 4 * cones._VORONOI_BLOCK_BYTES + 4 * 8 * floats, peak


def test_voronoi_trivial_group():
    G = close_generators([np.eye(2)])
    report = _assert_voronoi_matches_reference(G, np.array([1.0, 0.0]), n_samples=50, seed=3)
    assert report.passed
    assert report.min_wall_distance is None


@pytest.fixture
def no_cone_lp(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("cone reduction solved an LP")

    monkeypatch.setattr(cones, "linprog", forbidden)


def test_orbit_cone_reads_facets_from_hull_edges_without_lp(groups, no_cone_lp):
    for G in groups.values():
        orbit_cone(G, find_regular(G, 5))
        voronoi_consistency(G, find_regular(G, 6), n_samples=20, seed=1)


def test_cone_from_halfspaces_drops_implied_rows_without_lp(no_cone_lp):
    # {x = 0, y >= 0} is the ray e2; its normals' cone is a half-plane, so
    # the apex is no vertex of their hull and the rays are enumerated.
    C = cone_from_halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(C.rays, [[0.0, 1.0]])
    assert C.lineality_dim == 0
    assert cone_contains(C, [0.0, 2.0])
    assert not cone_contains(C, [1e-3, 1.0])


def test_cone_from_halfspaces_zero_cone_without_lp(no_cone_lp):
    C = cone_from_halfspaces([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert len(C.rays) == 0
    assert C.lineality_dim == 0
    for u in ([1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [1.0, -1.0]):
        assert not cone_contains(C, np.asarray(u) * 1e-3)


@pytest.mark.parametrize("name", ["a4", "a5"])
def test_dual_involution_with_lineality_without_lp(name, no_cone_lp):
    # S5 on R^5 and S6 on R^6 fix (1, ..., 1): every orbit cone has
    # lineality 1, and its dual's normals (rays and +-lineality) generate a
    # cone that is not pointed.
    G = close_generators(helpers.reflection_generators(name), name=name)
    for seed in (0, 1):
        C = orbit_cone(G, find_regular(G, seed))
        assert C.lineality_dim == 1
        D = dual_cone(C)
        assert D.lineality_dim == 0
        assert cone_equal(dual_cone(D), C)


def test_orbit_cone_without_incidence_reads_rays_from_qhull(monkeypatch, no_cone_lp):
    # Qhull can leave the apex out of every simplex by roundoff; then the
    # facets come from the rays of the dual of the cone of all rows v - w,
    # two more Qhull calls.  A regular cone of a reflection group never asks
    # Qhull, so these are groups without root data.  The budget rules out a
    # path exponential in the rows: one SVD per 3-subset of the 191 rows of
    # a regular B4-rotation vector takes about 52 s.
    for name in ("chiral_o", "chiral_t", "c3h", "b4_rotations"):
        G = close_generators(helpers.NON_REFLECTION_GENERATORS[name], name=name)
        v = find_regular(G, 5)
        want = orbit_cone(G, v)
        with monkeypatch.context() as m:
            m.setattr(cones, "_edge_neighbors", lambda points, index, tol: None)
            start = time.perf_counter()
            got = orbit_cone(G, v)
            elapsed = time.perf_counter() - start
        assert cone_equal(got, want), name
        assert elapsed < 2.0, (name, elapsed)


def _assert_rays_match_enumeration(C):
    rays, lineality = helpers.rays_reference(C.halfspace_normals, C.ambient_dim)
    assert C.rays.shape == rays.shape
    assert np.max(np.abs(C.rays - rays), initial=0.0) <= 1e-9
    assert C.lineality_dim == len(lineality)


@pytest.mark.parametrize("name", helpers.RAY_GROUPS)
def test_cone_rays_match_enumeration(groups, name):
    # Same rays, in the same order, as one SVD per (d - 1)-subset of the
    # normals: at regular vectors, and on or 1e-4 off a mirror (a wall of
    # the regular cone for a group without mirrors), and for their duals.
    G = helpers.named_group(groups, name)
    reflections = group_reflections(G)
    for seed in range(12):
        v = find_regular(G, seed)
        C = orbit_cone(G, v)
        n = reflections[0].normal if reflections else C.halfspace_normals[0]
        on_wall = v - (v @ n) * n
        for x in (v, on_wall, on_wall + 1e-4 * n):
            C = orbit_cone(G, x)
            _assert_rays_match_enumeration(C)
            _assert_rays_match_enumeration(dual_cone(C))


@pytest.mark.parametrize("seed", range(40))
def test_halfspace_cone_rays_match_enumeration(seed):
    # Seeded random halfspace sets in R^2 ... R^5; every third is not
    # pointed (a row and its negative), every fifth has a lineality line.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    normals = rng.standard_normal((int(rng.integers(1, 12)), dim))
    if seed % 3 == 0:
        normals = np.vstack([normals, -normals[:1]])
    if seed % 5 == 0:
        normals[:, -1] = 0.0
    C = cone_from_halfspaces(normals)
    _assert_rays_match_enumeration(C)
    _assert_rays_match_enumeration(dual_cone(C))


# Seeds of the near-axis sweep, fixed before it was run.  Every seed passes.
NEAR_AXIS_SEEDS = range(60)


def test_orbit_cone_rays_near_a_rotation_axis():
    # 1e-6 off a fixed axis of a rotation, nearly coincident orbit points
    # give unit rows v - w whose directions carry roundoff.  Every ray of
    # the cone must still satisfy every row; the LP reduction broke this
    # on 16 of these 60 seeds, by 0.2 to 0.9.
    G = close_generators(helpers.NON_REFLECTION_GENERATORS["b4_rotations"], name="b4_rotations")
    _, _, vt = np.linalg.svd(G.elements[1] - np.eye(G.dim))
    axis = vt[-1]
    assert np.allclose(G.elements[1] @ axis, axis)
    failures = {}
    for seed in NEAR_AXIS_SEEDS:
        x = np.random.default_rng(seed).standard_normal(G.dim)
        x = unit(x - (x @ axis) * axis)
        u = axis + 1e-6 * x
        try:
            rays = orbit_cone(G, u).rays
        except OrbitPolyError as exc:
            failures[seed] = str(exc)
            continue
        rows = cones.orbit_cone_normals(G, u)
        worst = float(np.min(rays @ rows.T))
        if worst < -1e-7:
            failures[seed] = worst
    assert failures == {}


# Rays and lineality are computed on their first read.


def _count_ray_steps(monkeypatch):
    calls = []
    original = cones._rays_and_lineality

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_rays_and_lineality", counted)
    return calls


@pytest.mark.parametrize("name", ["a2", "b3", "h3", "d4"])
def test_theorem2_computes_rays_once(groups, monkeypatch, name):
    # The SP probes read the base cone's rays; the local-cone criterion
    # compares normals only.
    G = helpers.named_group(groups, name)
    calls = _count_ray_steps(monkeypatch)
    assert sp_equivalence_report(G, seed=42).verdict
    assert len(calls) == 1


def test_voronoi_check_computes_no_rays(groups, monkeypatch):
    calls = _count_ray_steps(monkeypatch)
    for name in ("c4", "b3"):
        G = groups[name]
        assert voronoi_consistency(G, find_regular(G, 7), 200, 7).passed
    assert calls == []


def _assert_rays_on_first_read(C):
    rays, lineality = cones._rays_and_lineality(C.halfspace_normals, C.ambient_dim, C.tol)
    assert C.rays.dtype == rays.dtype and np.array_equal(C.rays, rays)
    assert np.array_equal(C.lineality_basis, lineality)
    assert C.lineality_dim == len(lineality)
    assert C.rays is C.rays
    assert C.lineality_basis is C.lineality_basis


@pytest.mark.parametrize("name", ["b2", "b3", "c4", "chiral_o", "a4"])
def test_cone_rays_are_the_ray_step_bit_for_bit(groups, name):
    G = helpers.named_group(groups, name)
    for seed in range(4):
        C = orbit_cone(G, find_regular(G, seed))
        _assert_rays_on_first_read(C)
        _assert_rays_on_first_read(dual_cone(C))
        _assert_rays_on_first_read(cone_from_halfspaces(np.vstack([C.halfspace_normals, C.rays])))
    _assert_rays_on_first_read(cone_from_halfspaces(np.zeros((0, G.dim)), dim=G.dim))


def test_ray_step_failure_surfaces_on_first_read(groups, monkeypatch, tmp_path):
    # A regular chiral-O cone has more facets than dimensions, so its rays
    # need Qhull; only the ray step calls cones._qhull.
    G = helpers.named_group(groups, "chiral_o")
    v = find_regular(G, 0)
    assert len(orbit_cone(G, v).halfspace_normals) > G.dim

    def failing(*args, **kwargs):
        raise GeometryError("Qhull failed (forced)")

    monkeypatch.setattr(cones, "_qhull", failing)
    C = orbit_cone(G, v)
    with pytest.raises(GeometryError, match="forced"):
        C.rays
    path = tmp_path / "chiral_o.json"
    gens = helpers.NON_REFLECTION_GENERATORS["chiral_o"]
    path.write_text(json.dumps({"name": "chiral_o", "dim": 3, "generators": [g.tolist() for g in gens]}))
    result = CliRunner().invoke(main, ["cone", "--input", str(path), "--seed", "0"])
    assert result.exit_code == 2
    assert result.output == "error: GeometryError: Qhull failed (forced)\n"
