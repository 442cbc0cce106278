"""Root data of reflection groups, checked against Qhull and known answers.

Orbit cones and SP checks of a reflection group read their hull edges and
hull facets from root data instead of Qhull.  Qhull stays the oracle up to
ambient dimension 4: on every reflection group there, the chamber walls
must be the hull-edge neighbours Qhull finds, and the root-data halfspaces
that are facets must be Qhull's facets.  From rank 5 on, where Qhull does
not cope with the orbits, known facet counts and verdicts are the check.
"""

import gc
import math
import time
import weakref

import numpy as np
import pytest

import helpers
from orbitpoly import polytope
from orbitpoly.cones import orbit_hull
from orbitpoly.coxeter import chamber, hull_from_dual_cones, sp_equivalence_report
from orbitpoly.errors import GeometryError
from orbitpoly.group import close_generators, find_regular, group_reflections, orbit, root_data
from orbitpoly.numerics import DEFAULT_TOL
from orbitpoly.polytope import hull

ORACLE_GROUPS = ("a1", "a2", "b2", "g2", "i2_5", "a3", "b3", "h3", "d4", "b4", "f4")
SEEDS = range(50)
MIRROR_OFFSETS = (1e-3, 1e-4, 1e-5, 1e-6)


def _oracle_vectors(G):
    """Seeded regular vectors, then a few moved to 1e-3 ... 1e-6 off their nearest mirror."""
    vectors = [find_regular(G, seed) for seed in SEEDS]
    normals = root_data(G).normals
    for v in vectors[:5]:
        margins = normals @ v
        i = int(np.argmin(np.abs(margins)))
        for delta in MIRROR_OFFSETS:
            vectors.append(v - (margins[i] - math.copysign(delta, margins[i])) * normals[i])
    return vectors


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_chamber_walls_are_the_qhull_hull_edges(groups, name):
    G = helpers.named_group(groups, name)
    roots = root_data(G)
    for v in _oracle_vectors(G):
        points = orbit(G, v).points
        assert len(points) == G.order
        qhull = polytope._edge_neighbors(points, 0, DEFAULT_TOL)
        assert roots.walls(points).tolist() == qhull.tolist(), v.tolist()


# Regular-orbit facet counts: the sum over the maximal parabolic subgroups
# W_J of |W| / |W_J|; 2^(n+1) - 2 for A_n, 3^n - 1 for B_n, and 2k for the
# k-gon's group.
FACETS = {
    "a1": 2, "a2": 6, "b2": 8, "g2": 12, "i2_5": 10, "a3": 14, "b3": 26, "h3": 62,
    "d4": 48, "b4": 80, "f4": 240, "a4": 30, "a5": 62, "d5": 162, "b5": 242,
}

# Regular seeds on which hull() itself fails: on F4 at seed 35 Qhull raises
# a precision error.
QHULL_FAILS_AT_SEED = {("f4", 35)}


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_root_data_facets_are_the_qhull_facets(groups, name):
    """The root-data halfspaces that touch at least d orbit points are hull()'s facets.

    hull() is an oracle only where it is right.  At regular seeds it must
    be, bar the failures listed above.  Near a mirror it miscounts the
    facets of a3, H3 and F4 orbits (merged facets of a nearly flat
    triangulation); there it is compared only when its count is the known
    one, and the root data must have the known count everywhere.  hull()
    rounds its input to 12 decimals, so a facet spanned by points 2 delta
    apart has a normal off by about 1e-12 / delta: near a mirror the sets
    are matched to 1e-6.
    """
    G = helpers.named_group(groups, name)
    roots = root_data(G)
    assert len(roots.row_coweight) == FACETS[name]
    qhull_fails = set()
    for k, v in enumerate(_oracle_vectors(G)):
        seed = k if k < len(SEEDS) else None
        points = orbit(G, v).points
        offsets = roots.support(v)
        touching = np.sum(np.abs(points @ roots.rows.T - offsets) <= DEFAULT_TOL.eps_eq, axis=0)
        assert np.all(touching >= G.dim), v.tolist()
        try:
            P = hull(points)
        except GeometryError:
            qhull_fails.add(seed)
            continue
        if len(P.facet_normals) != FACETS[name]:
            qhull_fails.add(seed)
            continue
        got = np.column_stack([roots.rows, offsets])
        want = np.column_stack([P.facet_normals, P.facet_offsets])
        assert helpers.match_point_sets(got, want, eps=1e-8 if seed is not None else 1e-6), v.tolist()
    qhull_fails.discard(None)
    assert {(name, seed) for seed in qhull_fails} <= QHULL_FAILS_AT_SEED


@pytest.mark.parametrize("name", ["a5", "d5", "b5"])
def test_root_data_facet_counts_at_rank_five(groups, name):
    roots = root_data(helpers.named_group(groups, name))
    assert len(roots.row_coweight) == FACETS[name]


SUPPORT_GROUPS = (*ORACLE_GROUPS, "a4", "a5", "d5", "b5", "trivial")


def _support_vectors(G, v, ch):
    """v, the fundamental rays, and v moved to 1e-3 ... 1e-6 off its first wall, inside the chamber."""
    vectors = [v, *ch.fundamental_rays]
    if len(ch.simple_normals):
        n = ch.simple_normals[0]
        vectors += [v - (v @ n - delta) * n for delta in MIRROR_OFFSETS]
    return vectors


def _hull_from_dual_cones_reference(G, x):
    """The dual-cone hull as built with the reference supports."""
    roots = root_data(G)
    offsets = helpers.support_reference(roots, x)
    m = len(roots.row_coweight)
    top = offsets[np.searchsorted(roots.row_coweight, np.arange(roots.rank))]
    x0 = np.linalg.solve(
        np.vstack([roots.coweights, roots.fixed]), np.r_[top, offsets[m : m + len(roots.fixed)]]
    )
    return orbit_hull(G, x0)


@pytest.mark.parametrize("name", SUPPORT_GROUPS)
def test_support_matches_the_reference(groups, name):
    # The block maxima by reduceat equal the np.maximum.at ones, and the
    # hulls rebuilt from the halfspaces keep their vertices.
    if name == "trivial":
        G = close_generators([np.eye(3)], name="trivial")
    else:
        G = helpers.named_group(groups, name)
    roots = root_data(G)
    assert roots.starts.tolist() == [int(np.argmax(roots.row_coweight == k)) for k in range(roots.rank)]
    v = find_regular(G, 3)
    ch = chamber(G, v)
    for x in _support_vectors(G, v, ch):
        assert np.array_equal(roots.support(x), helpers.support_reference(roots, x)), x.tolist()
        if G.dim <= 5 and G.order <= 1152:  # the A5, D5 and B5 hulls take seconds
            want = _hull_from_dual_cones_reference(G, x)
            got = hull_from_dual_cones(G, x, ch)
            assert np.array_equal(got.vertices, want.vertices), x.tolist()
            assert np.array_equal(got.facet_normals, want.facet_normals), x.tolist()
    for seed in SEEDS:
        x = find_regular(G, seed)
        assert np.array_equal(roots.support(x), helpers.support_reference(roots, x))


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_support_of_a_stack_is_the_support_of_each_row(groups, name):
    G = helpers.named_group(groups, name)
    roots = root_data(G)
    W = np.array(_oracle_vectors(G))
    got = roots.support(W)
    assert got.shape == (len(W), len(roots.rows))
    for w, row in zip(W, got):
        assert np.array_equal(row, helpers.support_reference(roots, w)), w.tolist()


class QhullCalled(Exception):
    pass


def test_theorem2_on_reflection_groups_makes_no_qhull_call(groups, monkeypatch):
    def forbidden(*args, **kwargs):
        raise QhullCalled

    monkeypatch.setattr(polytope, "ConvexHull", forbidden)
    for name in ("b3", "f4", "d5"):
        assert sp_equivalence_report(helpers.named_group(groups, name), seed=42).verdict
    # Other groups, and hulls, still go to Qhull.
    with pytest.raises(QhullCalled):
        sp_equivalence_report(groups["c4"], seed=42)
    with pytest.raises(QhullCalled):
        hull(orbit(groups["b3"], find_regular(groups["b3"], 0)).points)


ORDERS = {"a5": 720, "d5": 1920, "b5": 3840, "b4_rotations": 192}


@pytest.mark.parametrize("name, want", [("a5", True), ("d5", True), ("b5", True), ("b4_rotations", False)])
def test_theorem2_rank_five_and_a_rotation_control(groups, name, want):
    G = helpers.named_group(groups, name)
    assert G.order == ORDERS[name]
    rep = sp_equivalence_report(G, seed=42)
    assert rep.verdict == want
    assert [passed for passed, _ in rep.criterion_results.values()] == [want] * 4


def test_a4_known_answers(groups):
    # S5 permuting R^5: rank 4, 2^5 - 2 coweight rows plus the two pins
    # along (1, ..., 1), and SP with all four criteria true.
    G = helpers.named_group(groups, "a4")
    roots = root_data(G)
    assert (G.order, roots.rank, len(roots.row_coweight)) == (120, 4, FACETS["a4"])
    assert len(roots.rows) == FACETS["a4"] + 2
    rep = sp_equivalence_report(G, seed=42)
    assert rep.verdict is True
    assert [passed for passed, _ in rep.criterion_results.values()] == [True] * 4
    # Hulls rebuilt from the halfspaces, at rank 4 with a fixed direction:
    # the four fundamental rays, then the regular vector.
    v = find_regular(G, 42)
    ch = chamber(G, v)
    for x, want in zip([*ch.fundamental_rays, v], (10, 5, 5, 10, 120)):
        P = hull_from_dual_cones(G, x, ch)
        assert P.n_vertices == want
        assert helpers.match_point_sets(P.vertices, orbit(G, x).points)


def test_a5_pins_the_fixed_direction(groups):
    # S6 permuting R^6 fixes (1, ..., 1): the halfspaces pin it on both sides.
    roots = root_data(helpers.named_group(groups, "a5"))
    assert roots.rank == 5
    assert np.allclose(np.abs(roots.fixed), 1 / math.sqrt(6))
    assert np.array_equal(roots.rows[len(roots.row_coweight):], np.vstack([roots.fixed, -roots.fixed]))


def test_root_data_lives_no_longer_than_its_group():
    G = helpers.named_group({}, "b4")
    assert root_data(G) is root_data(G)
    alive = weakref.ref(G)
    del G
    gc.collect()
    assert alive() is None


# Wall-time budget of theorem2 on H4 (order 14400): three times the 1.36 s
# (median of 1.24, 1.36 and 1.73 s) it took once root data replaced Qhull
# for reflection groups; never to be loosened.
H4_THEOREM2_BUDGET_S = 4.1


def test_theorem2_h4_within_budget():
    G = helpers.h4_group()
    assert (G.order, len(group_reflections(G))) == (14400, 60)
    assert len(root_data(G).row_coweight) == 2640
    start = time.perf_counter()
    rep = sp_equivalence_report(G, seed=42)
    elapsed = time.perf_counter() - start
    assert rep.verdict
    assert all(passed for passed, _ in rep.criterion_results.values())
    assert elapsed < H4_THEOREM2_BUDGET_S, f"theorem2 h4 took {elapsed:.1f}s"


# Wall-time budget of theorem2 on the B4 rotations (order 192, not generated
# by reflections): about 20 times the 0.05 s it takes once the SP scan stops
# at its first failing pair (about 5 s when it checked every pair); never to
# be loosened.
ROTATION_CONTROL_THEOREM2_BUDGET_S = 1.0


def test_theorem2_rotation_control_within_budget():
    G = helpers.named_group({}, "b4_rotations")
    # Untimed: the first Qhull call loads scipy.spatial.
    assert not sp_equivalence_report(G, seed=7).verdict
    start = time.perf_counter()
    rep = sp_equivalence_report(G, seed=42)
    elapsed = time.perf_counter() - start
    assert not rep.verdict
    assert not any(passed for passed, _ in rep.criterion_results.values())
    assert elapsed < ROTATION_CONTROL_THEOREM2_BUDGET_S, f"theorem2 b4_rotations took {elapsed:.2f}s"


# The catalog reflection groups, H3, D4, B4 and F4.
ORBIT_HULL_GROUPS = ("a2", "b2", "g2", "i2_5", "a3", "b3", "h3", "d4", "b4", "f4")


@pytest.mark.parametrize("name", ORBIT_HULL_GROUPS)
def test_orbit_hull_is_the_qhull_hull(groups, name):
    # Same facets within eps_eq, and the same rounded, sorted vertices; a 2-d
    # hull() lists them in Qhull's counterclockwise order instead.
    G = helpers.named_group(groups, name)
    for seed in range(5):
        v = find_regular(G, seed)
        got, want = orbit_hull(G, v), hull(orbit(G, v).points)
        facets = [np.column_stack([P.facet_normals, P.facet_offsets]) for P in (got, want)]
        assert helpers.match_point_sets(*facets, eps=DEFAULT_TOL.eps_eq), seed
        assert (got.affine_dim, len(got.facet_normals)) == (want.affine_dim, FACETS[name])
        if G.dim >= 3:
            assert np.array_equal(got.vertices, want.vertices), seed
        else:
            assert helpers.match_point_sets(got.vertices, want.vertices, eps=0.0), seed


@pytest.fixture
def no_qhull(monkeypatch):
    def forbidden(*args, **kwargs):
        raise QhullCalled

    monkeypatch.setattr(polytope, "ConvexHull", forbidden)


@pytest.mark.parametrize("name, seed", [("h3", 198647486), ("f4", 35)])
def test_orbit_hull_where_qhull_miscounts(groups, no_qhull, name, seed):
    # hull() gives this H3 orbit 122 facets and fails on this F4 one (QH6417).
    G = helpers.named_group(groups, name)
    P = orbit_hull(G, find_regular(G, seed))
    assert (P.n_vertices, len(P.facet_normals)) == (G.order, FACETS[name])


@pytest.mark.parametrize("name", ["a3", "h3", "f4"])
def test_orbit_hull_near_a_mirror(groups, no_qhull, name):
    # Seeds 0-4 moved 1e-4 ... 1e-7 off their nearest mirror are still
    # regular, so the hull keeps the regular count; hull() is right on only
    # 1, 3 and 18 of these 20 orbits.
    G = helpers.named_group(groups, name)
    normals = root_data(G).normals
    for seed in range(5):
        v = find_regular(G, seed)
        margins = normals @ v
        i = int(np.argmin(np.abs(margins)))
        for delta in (1e-4, 1e-5, 1e-6, 1e-7):
            w = v - (margins[i] - math.copysign(delta, margins[i])) * normals[i]
            P = orbit_hull(G, w)
            assert (P.n_vertices, len(P.facet_normals)) == (G.order, FACETS[name]), (seed, delta)


def test_hull_from_dual_cones_on_b5_chamber_points(groups):
    # Criterion 5's points (tests/test_acceptance.py) on B5: the fundamental
    # rays, then positive combinations of them, each a regular vector whose
    # hull has the 242 facets of the regular B5 orbit (hull() gave point 14
    # 243).
    G = helpers.named_group(groups, "b5")
    ch = chamber(G, find_regular(G, 42))
    rng = np.random.default_rng(42)
    points = list(ch.fundamental_rays)
    while len(points) < 20:
        points.append(rng.uniform(0.0, 1.0, len(ch.fundamental_rays)) @ ch.fundamental_rays)
    for k in range(len(ch.fundamental_rays), 20):
        P = hull_from_dual_cones(G, points[k], ch)
        assert (P.n_vertices, len(P.facet_normals)) == (G.order, FACETS["b5"]), k
