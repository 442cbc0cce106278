import math

import numpy as np
import pytest

import helpers
from orbitpoly import cones, coxeter, polytope
from orbitpoly.cones import orbit_cone, cone_equal
from orbitpoly.coxeter import (
    chamber,
    chamber_representative,
    criterion_local_cone,
    criterion_peak,
    detect_reflection,
    group_reflections,
    hull_from_dual_cones,
    is_reflection_generated,
    sp_check_pair,
    sp_equivalence_report,
)
from orbitpoly.catalog import CATALOG_NAMES, fixture_dict
from orbitpoly.errors import (
    GeometryError,
    InconsistentCriteriaError,
    NotCoxeterError,
    NotInChamberError,
    NotRegularError,
    OrbitPolyError,
)
from orbitpoly.group import close_generators, find_regular, group_from_json_dict, orbit, root_data
from orbitpoly.numerics import Tolerance
from orbitpoly.polytope import hull, minkowski_sum, polytope_equal

R2 = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def b2():
    return close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])], name="b2")


@pytest.fixture(scope="module")
def c4():
    return close_generators([helpers.rot2(math.pi / 2)], name="c4")


def test_detect_reflection_mirror():
    r = detect_reflection(np.diag([-1.0, 1.0]))
    assert r is not None
    assert np.allclose(r.normal, [1.0, 0.0])


def test_detect_reflection_sign_convention():
    # normal of the mirror swapping x and y: direction (1,-1), flipped to
    # make the first coordinate positive
    r = detect_reflection(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert r is not None
    assert r.normal[0] > 0
    assert np.allclose(np.abs(r.normal), [R2, R2])


def test_detect_reflection_negatives():
    assert detect_reflection(helpers.rot2(math.pi / 2)) is None
    assert detect_reflection(-np.eye(2)) is None  # involution but rank 2
    assert detect_reflection(np.eye(2)) is None


def test_reflections_are_involutions(groups):
    for G in groups.values():
        for r in group_reflections(G):
            g = G.elements[r.element_index]
            assert np.allclose(g @ g, np.eye(G.dim), atol=1e-9)
            assert np.allclose(g @ r.normal, -r.normal, atol=1e-9)


def test_is_reflection_generated(groups, b2, c4):
    # Oracle for the square group: its four mirrors close to all 8 elements.
    mirrors = [G for G in b2.elements if detect_reflection(G) is not None]
    assert len(mirrors) == 4
    assert close_generators(mirrors).order == 8

    assert is_reflection_generated(b2)
    assert not is_reflection_generated(c4)
    assert is_reflection_generated(groups["i2_5"])
    for name, expected in (("c3", False), ("a2", True), ("a3", True), ("b3", True)):
        assert is_reflection_generated(groups[name]) == expected


def test_trivial_group_is_coxeter():
    assert is_reflection_generated(close_generators([np.eye(2)]))


def test_rank_one_sign_group_is_coxeter():
    assert is_reflection_generated(close_generators([np.array([[-1.0]])]))


def test_chamber_b2(b2):
    ch = chamber(b2, [2.0, 1.0])
    assert helpers.match_point_sets(ch.simple_normals, [[0, 1], [R2, -R2]])
    assert helpers.match_point_sets(ch.fundamental_rays, [[1, 0], [R2, R2]])
    # dual pairing: ray k annihilates every normal but k
    pairing = ch.fundamental_rays @ ch.simple_normals.T
    assert np.all(np.abs(pairing - np.diag(np.diag(pairing))) <= 1e-9)
    assert np.all(np.diag(pairing) > 0)


def test_chamber_a2_angle(groups):
    G = groups["a2"]
    ch = chamber(G, find_regular(G, 3))
    r1, r2 = ch.fundamental_rays
    angle = math.degrees(math.acos(float(np.clip(r1 @ r2, -1, 1))))
    assert angle == pytest.approx(60.0, abs=1e-6)


def test_chamber_rank_one():
    G = close_generators([np.array([[-1.0]])])
    ch = chamber(G, [1.0])
    assert np.allclose(ch.simple_normals, [[1.0]])
    assert np.allclose(ch.fundamental_rays, [[1.0]])


def test_chamber_rejections(b2, c4):
    with pytest.raises(NotCoxeterError):
        chamber(c4, [1.0, 0.0])
    with pytest.raises(NotRegularError):
        chamber(b2, [1.0, 0.0])


def test_chamber_equals_orbit_cone(groups):
    # Regular points interior to the chamber all produce the chamber cone.
    for name in ("a2", "b2", "g2", "i2_5", "a3", "b3"):
        G = groups[name]
        v = find_regular(G, 7)
        ch = chamber(G, v)
        rng = np.random.default_rng(11)
        base = orbit_cone(G, v)
        for _ in range(5):
            weights = rng.uniform(0.2, 1.0, len(ch.fundamental_rays))
            u = weights @ ch.fundamental_rays
            assert cone_equal(orbit_cone(G, u), base)


def test_hull_reconstruction_b2(b2):
    ch = chamber(b2, [2.0, 1.0])
    P = hull_from_dual_cones(b2, np.array([2.0, 1.0]), ch)
    assert polytope_equal(P, hull(orbit(b2, [2.0, 1.0]).points))
    # wall point: the degenerate square orbit
    Q = hull_from_dual_cones(b2, np.array([1.0, 0.0]), ch)
    assert Q.n_vertices == 4
    assert polytope_equal(Q, hull(orbit(b2, [1.0, 0.0]).points))


def test_hull_reconstruction_rank_one():
    G = close_generators([np.array([[-1.0]])])
    ch = chamber(G, [1.0])
    P = hull_from_dual_cones(G, np.array([3.0]), ch)
    assert helpers.match_point_sets(P.vertices, [[-3.0], [3.0]])


def test_hull_reconstruction_lineality():
    # One mirror in the plane: the orbit hull is a horizontal segment and
    # the reconstruction must pin the invariant coordinate.
    G = close_generators([np.diag([-1.0, 1.0])])
    ch = chamber(G, [1.0, 1.0])
    P = hull_from_dual_cones(G, np.array([1.0, 1.0]), ch)
    assert helpers.match_point_sets(P.vertices, [[-1.0, 1.0], [1.0, 1.0]])


def test_hull_reconstruction_outside_chamber(b2):
    ch = chamber(b2, [2.0, 1.0])
    with pytest.raises(NotInChamberError):
        hull_from_dual_cones(b2, np.array([-2.0, 1.0]), ch)


def test_criterion_peak_c4_fails_on_diagonal(c4):
    ok, witness = criterion_peak(c4, [1.0, 0.0], [np.array([1.0, 1.0])])
    assert not ok
    assert np.allclose(witness, [1.0, 1.0])


def test_criterion_peak_rejects_wall_base(b2):
    with pytest.raises(NotRegularError):
        criterion_peak(b2, [1.0, 0.0], [np.array([1.0, 1.0])])


def test_criterion_peak_b2(b2):
    rng = np.random.default_rng(13)
    points = [rng.standard_normal(2) for _ in range(30)] + [np.array([1.0, 1.0]), np.array([1.0, 0.0])]
    ok, witness = criterion_peak(b2, [2.0, 1.0], points)
    assert ok and witness is None


def test_criterion_peak_trivial_group():
    G = close_generators([np.eye(2)])
    ok, _ = criterion_peak(G, find_regular(G, 1), [np.array([1.0, 1.0])])
    assert ok


def test_criterion_local_cone(b2, c4):
    ok, _ = criterion_local_cone(b2, [2.0, 1.0], seed=5)
    assert ok
    ok, witness = criterion_local_cone(c4, [1.0, 0.0], seed=5)
    assert not ok
    assert witness is not None


def test_criterion_local_cone_trivial_group():
    G = close_generators([np.eye(2)])
    ok, _ = criterion_local_cone(G, find_regular(G, 1), seed=5)
    assert ok


def test_sp_check_pair_b2(b2):
    ok, rep = sp_check_pair(b2, [1.0, 0.0], [2.0, 1.0])
    assert ok
    assert np.allclose(rep, [2.0, 1.0])
    # the certified sum really is the orbit hull of u + rep
    lhs = minkowski_sum(orbit(b2, [1.0, 0.0]), orbit(b2, [2.0, 1.0]))
    assert polytope_equal(lhs, hull(orbit(b2, [3.0, 1.0]).points))


def test_sp_check_pair_c4_rotated(c4):
    u = np.array([1.0, 0.0])
    v = np.array([math.cos(math.radians(20)), math.sin(math.radians(20))])
    ok, rep = sp_check_pair(c4, u, v)
    assert not ok and rep is None


def test_sp_check_pair_trivial_group():
    G = close_generators([np.eye(2)])
    ok, rep = sp_check_pair(G, [1.0, 2.0], [3.0, 4.0])
    assert ok
    assert np.allclose(rep, [3.0, 4.0])


def test_sp_zero_summand(b2):
    ok, rep = sp_check_pair(b2, [2.0, 1.0], [0.0, 0.0])
    assert ok
    assert np.allclose(rep, [0.0, 0.0])


def test_sp_associativity_in_chamber(groups):
    # Chamber points compose: ((u + v) + w) stays an orbit hull.
    for name in ("b2", "a3"):
        G = groups[name]
        ch = chamber(G, find_regular(G, 17))
        rng = np.random.default_rng(19)
        w_list = [
            rng.uniform(0.2, 1.0, len(ch.fundamental_rays)) @ ch.fundamental_rays
            for _ in range(3)
        ]
        u, v, w = w_list
        # An orbit sum, then a polytope plus an orbit.
        sum_uv = minkowski_sum(orbit(G, u), orbit(G, v))
        total = minkowski_sum(sum_uv, orbit(G, w))
        assert polytope_equal(total, hull(orbit(G, u + v + w).points), Tolerance(eps_eq=1e-7))


def test_equivalence_report_catalog(groups):
    expected = {"c3": False, "c4": False, "a2": True, "b2": True, "g2": True, "i2_5": True}
    for name, want in expected.items():
        rep = sp_equivalence_report(groups[name], seed=42)
        assert rep.verdict == want
        assert {p for p, _ in rep.criterion_results.values()} == {want}
        if not want:
            assert rep.witnesses  # failing groups must exhibit witnesses


def test_equivalence_report_dict_shape(groups):
    rep = sp_equivalence_report(groups["c4"], seed=42)
    d = rep.to_dict()
    assert set(d["criteria"]) == {"sp", "peak_i", "coxeter_ii", "local_cone_iii"}
    assert d["verdict"] is False


def test_chamber_representative(groups, b2):
    C = orbit_cone(b2, find_regular(b2, 23))
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = rng.standard_normal(2)
        rep = chamber_representative(b2, C, x)
        assert any(np.allclose(rep, p, atol=1e-9) for p in orbit(b2, x).points)
        assert np.min(C.halfspace_normals @ rep) >= -1e-9


def _sp_oracle_pairs(G, seed):
    """Structured probes, random pairs, pairs near a wall, and a w = 0 candidate."""
    rng = np.random.default_rng(seed)
    v = find_regular(G, seed)
    cone = orbit_cone(G, v)
    probes = [v, *cone.rays]
    pairs = [(a, b) for i, a in enumerate(probes) for b in probes[i:]]
    pairs += [(rng.standard_normal(G.dim), rng.standard_normal(G.dim)) for _ in range(3)]
    if len(cone.halfspace_normals):
        n = cone.halfspace_normals[0]
        for delta in (1e-3, 1e-5, 1e-7):
            near = v - (v @ n - delta) * n
            pairs += [(near, v), (near, near)]
    pairs.append((v, -v))  # the scan reaches v' = -v, where u + v' = 0, unless it hits first
    return pairs


@pytest.mark.parametrize(
    "name",
    ["a2", "b2", "g2", "i2_5", "c3", "c4", "a3", "b3", "chiral_t", "chiral_o", "minus_i3", "c3h", "c4_x_mirror"],
)
def test_sp_check_pair_matches_minkowski_scan(groups, name):
    G = helpers.named_group(groups, name)
    for seed in (3, 4):
        for u, v in _sp_oracle_pairs(G, seed):
            ok, rep = sp_check_pair(G, u, v)
            ref_ok, ref_rep = helpers.sp_check_pair_reference(G, u, v)
            assert ok == ref_ok
            assert (rep is None and ref_rep is None) or np.array_equal(rep, ref_rep)


@pytest.mark.parametrize("name", ["chiral_o", "c3"])
def test_sp_scan_without_root_data_builds_no_orbit_hull(groups, name, monkeypatch):
    # The SP scan of a group without root data reads its halfspaces from
    # orbit cones, so no orbit hull is built anywhere in the report.
    def forbidden(*args, **kwargs):
        raise AssertionError("the SP report built an orbit hull")

    for module in (coxeter, cones, polytope):
        monkeypatch.setattr(module, "orbit_hull" if module is coxeter else "hull", forbidden)
    rep = sp_equivalence_report(helpers.named_group(groups, name), seed=7)
    assert rep.verdict is False
    assert not rep.criterion_results["sp"][0]


def _record_sp_checks(monkeypatch):
    """Wrap coxeter.sp_check_pair; return the list of (u, v, verdict) it is called with."""
    calls = []
    check = coxeter.sp_check_pair

    def recorder(G, u, v):
        ok, rep = check(G, u, v)
        calls.append((np.asarray(u).tolist(), np.asarray(v).tolist(), ok))
        return ok, rep

    monkeypatch.setattr(coxeter, "sp_check_pair", recorder)
    return calls


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize(
    "name", ["c3", "c4", "chiral_o", "minus_i3", "c3h", "c4_x_mirror", "b4_rotations"]
)
def test_sp_scan_stops_at_the_first_failing_pair(groups, name, seed, monkeypatch):
    calls = _record_sp_checks(monkeypatch)
    rep = sp_equivalence_report(helpers.named_group(groups, name), seed=seed)
    assert rep.verdict is False
    assert [ok for *_, ok in calls] == [True] * (len(calls) - 1) + [False]
    u, v, _ = calls[-1]
    assert rep.criterion_results["sp"] == (False, {"u": u, "v": v})
    assert rep.witnesses["sp"] == {"u": u, "v": v}
    assert rep.sp_pairs_checked == len(calls)
    assert rep.to_dict()["timings"] == {"sp_pairs_checked": len(calls)}


def _record_sp_scan(monkeypatch):
    """Wrap coxeter._first_candidates_hold; return the list of (u, v, verdict) of the pairs it is passed."""
    pairs = []
    scan = coxeter._first_candidates_hold

    def recorder(G, roots, vectors, pair_u, pair_v):
        holds = scan(G, roots, vectors, pair_u, pair_v)
        pairs.extend(zip(vectors[pair_u].tolist(), vectors[pair_v].tolist(), holds.tolist()))
        return holds

    monkeypatch.setattr(coxeter, "_first_candidates_hold", recorder)
    return pairs


@pytest.mark.parametrize("seed", [7, 42])
def test_sp_scan_checks_every_pair_on_a_true_verdict(groups, seed, monkeypatch):
    # A reflection group's pairs are tested at their first candidate in one
    # array pass; a pair failing there goes on to sp_check_pair.
    pairs = _record_sp_scan(monkeypatch)
    calls = _record_sp_checks(monkeypatch)
    rep = sp_equivalence_report(groups["b3"], seed=seed)
    assert rep.verdict is True
    assert all(ok for *_, ok in calls)
    assert [(u, v) for u, v, ok in pairs if not ok] == [(u, v) for u, v, _ in calls]
    assert rep.criterion_results["sp"] == (True, f"no counterexample found ({len(pairs)} pairs)")
    assert rep.sp_pairs_checked == len(pairs)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("name", ["a2", "b3", "h3", "d4"])
def test_theorem2_on_a_reflection_group_makes_no_call_per_probe(groups, monkeypatch, name, seed):
    # Every pair holds at its first candidate and every local sample lies in
    # the base chamber: no sp_check_pair, no orbit per probe, and the two
    # orbit cones are the base cone's, once for the probes and once in the
    # local-cone criterion.
    G = helpers.named_group(groups, name)
    pair_checks = _count_calls(monkeypatch, coxeter, "sp_check_pair")
    orbits = _count_calls(monkeypatch, coxeter, "orbit")
    orbit_cones = _count_calls(monkeypatch, coxeter, "orbit_cone")
    assert sp_equivalence_report(G, seed=seed).verdict
    assert (len(pair_checks), len(orbits), len(orbit_cones)) == (0, 0, 2)


@pytest.mark.parametrize("name", ["a2", "b3", "h3", "d4", "f4", "a4"])
def test_local_samples_settle_only_where_their_orbit_cone_is_the_base(groups, name):
    # Samples in the base chamber, near and on its walls, and in other
    # chambers: the array pass settles a sample only when the orbit cone
    # would equal the base cone, and settles those well inside the chamber.
    G = helpers.named_group(groups, name)
    v = find_regular(G, 5)
    base = orbit_cone(G, v)
    n = base.halfspace_normals[0]
    near = [v - (v @ n - delta) * n for delta in (1e-3, 1e-6, 1e-8, 1e-9, 0.0)]
    radius = 0.5 * np.min(base.halfspace_normals @ v)
    far = [v + radius * x / np.linalg.norm(x) for x in np.random.default_rng(5).standard_normal((20, G.dim))]
    others = [g @ v for g in G.stack[1:6]]
    samples = np.array([*far, *near, *others])
    settled = coxeter._chamber_cones_match(G, root_data(G), samples, base.halfspace_normals)
    for u, ok in zip(samples, settled):
        if ok:
            assert cone_equal(orbit_cone(G, u), base)
    assert settled[: len(far) + 2].all()
    assert not settled[len(far) + 3 :].any()


def _report_or_error(report, G, seed):
    try:
        return report(G, seed).to_dict()
    except OrbitPolyError as exc:
        return type(exc), str(exc)


_REFLECTION_RAY_GROUPS = [
    n for n in helpers.RAY_GROUPS if n not in ("c3", "c4") and n not in helpers.NON_REFLECTION_GENERATORS
]


@pytest.mark.parametrize("name", [*_REFLECTION_RAY_GROUPS, "b4", "c3", "chiral_o"])
def test_report_matches_the_per_probe_reference(groups, name):
    # The same report, or the same error and message: B4 and F4 raise at
    # seed 117 (a regular vector 1.7e-5 off a mirror ties in the peak test).
    G = helpers.named_group(groups, name)
    for seed in (0, 1, 5, 42, 117):
        got = _report_or_error(sp_equivalence_report, G, seed)
        assert got == _report_or_error(helpers.sp_equivalence_report_reference, G, seed), seed
        assert isinstance(got, tuple) == (name in ("b4", "f4") and seed == 117), seed


def test_report_matches_the_reference_where_a_turned_group_raises():
    # b3 with each generator turned by 1e-7, at eps_eq 1e-6: the criteria
    # disagree at these seeds, the same way on both.
    data = fixture_dict("b3")
    data["generators"] = helpers.turned_generators(data["generators"])
    data["tolerance"] = 1e-6
    G, _ = group_from_json_dict(data)
    for seed in (1, 7, 42):
        got = _report_or_error(sp_equivalence_report, G, seed)
        assert got[0] is InconsistentCriteriaError
        assert got == _report_or_error(helpers.sp_equivalence_report_reference, G, seed)


@pytest.mark.parametrize("name", [*CATALOG_NAMES, "h3", "chiral_o", "c3h", "c4_x_mirror"])
def test_sp_check_pair_verdict_is_scale_free(groups, name):
    # The scan stops on one pair's verdict, so that verdict must not depend
    # on the size of the input.
    G = helpers.named_group(groups, name)
    for seed in range(10):
        u, v = np.random.default_rng(seed).standard_normal((2, G.dim))
        want = sp_check_pair(G, u, v)[0]
        for s in (1e-4, 1e4):
            assert sp_check_pair(G, s * u, s * v)[0] == want, (seed, s)


def test_sp_check_pair_zero_sum_hits_on_fixed_points():
    G = close_generators([np.eye(2)])
    ok, rep = sp_check_pair(G, [1.0, 2.0], [-1.0, -2.0])
    assert ok
    assert np.array_equal(rep, [-1.0, -2.0])


@pytest.mark.parametrize(
    "name",
    [*CATALOG_NAMES, "h3", "d4", "b4", "f4", "chiral_t", "chiral_o", "minus_i3", "c3h", "c4_x_mirror"],
)
def test_is_reflection_generated_matches_closure(groups, name):
    G = helpers.named_group(groups, name)
    assert is_reflection_generated(G) == helpers.is_reflection_generated_reference(G)
    if name in ("c3h", "c4_x_mirror"):
        assert G.order == {"c3h": 6, "c4_x_mirror": 8}[name]
        assert len(group_reflections(G)) == 1
        assert not is_reflection_generated(G)


def test_is_reflection_generated_rejects_base_on_mirror(monkeypatch):
    # Root data is cached per group, so the decision is made on a group of
    # its own, with the base vector of seed 0 put on a mirror.
    from orbitpoly import group

    b2 = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])], name="b2")
    monkeypatch.setattr(group, "find_regular", lambda G, seed: np.array([1.0, 0.0]))
    with pytest.raises(GeometryError, match="mirror"):
        is_reflection_generated(b2)


def test_criteria_decide_at_the_tolerance_of_a_group_file():
    # Each generator of a3 turned by 1e-7: a reflection group at eps_eq 1e-6,
    # where I - g of each reflection is within the rank cut of rank one.
    # The file sets 1e-6 once, and no call passes a tolerance.
    data = fixture_dict("a3")
    data["generators"] = helpers.turned_generators(data["generators"])
    data["tolerance"] = 1e-6
    G, tol = group_from_json_dict(data)
    assert G.tol == tol == Tolerance(eps_eq=1e-6)
    assert is_reflection_generated(G)
    rep = sp_equivalence_report(G, seed=7)
    assert rep.verdict is True
    assert all(passed for passed, _ in rep.criterion_results.values())


@pytest.mark.parametrize("name, want", [("h3", True), ("d4", True), ("chiral_t", False), ("chiral_o", False)])
def test_equivalence_report_known_answers(groups, name, want):
    rep = sp_equivalence_report(helpers.named_group(groups, name), seed=42)
    assert rep.verdict == want
    assert [passed for passed, _ in rep.criterion_results.values()] == [want] * 4


def test_sp_report_and_chamber_make_no_lp(groups, monkeypatch):
    from orbitpoly import cones, polytope

    def forbidden(*args, **kwargs):
        raise AssertionError("LP called")

    monkeypatch.setattr(cones, "linprog", forbidden)
    monkeypatch.setattr(polytope, "linprog", forbidden)
    monkeypatch.setattr(polytope, "HalfspaceIntersection", forbidden)
    for name in ("b2", "c4", "a3"):
        G = groups[name]
        sp_equivalence_report(G, seed=42)
        sp_check_pair(G, find_regular(G, 1), find_regular(G, 2))
    b3 = groups["b3"]
    v = find_regular(b3, 3)
    ch = chamber(b3, v)
    assert hull_from_dual_cones(b3, v, ch).n_vertices == 48
    assert hull_from_dual_cones(b3, ch.fundamental_rays[0], ch).n_vertices == 8


@pytest.mark.parametrize(
    "name", [*CATALOG_NAMES, "h3", "d4", "chiral_t", "chiral_o", "minus_i3", "c3h", "c4_x_mirror"]
)
def test_verdict_and_reflections_hold_in_a_rotated_basis(groups, name):
    # Conjugating the group by an orthogonal Q is a change of basis: the
    # theorem2 verdict and the number of reflections must not move.
    G = helpers.named_group(groups, name)
    verdict = sp_equivalence_report(G, seed=7).verdict
    n_reflections = len(group_reflections(G))
    for basis_seed in range(3):
        q, r = np.linalg.qr(np.random.default_rng(basis_seed).standard_normal((G.dim, G.dim)))
        Q = q * np.sign(np.diag(r))
        rotated = close_generators([Q @ G.elements[i] @ Q.T for i in G.generator_indices])
        assert len(group_reflections(rotated)) == n_reflections
        for seed in (7, 42):
            assert sp_equivalence_report(rotated, seed=seed).verdict is verdict
