import inspect
import math

import numpy as np
import pytest

import helpers
from orbitpoly import catalog, cli, cones, coxeter, group, numerics, polar, polytope
from orbitpoly.catalog import CATALOG_NAMES, generator_matrices
from orbitpoly.coxeter import group_reflections
from orbitpoly.errors import GeometryError, OrderExceededError, RegularNotFoundError
from orbitpoly.group import (
    FiniteGroup,
    close_generators,
    find_regular,
    group_from_json_dict,
    is_regular,
    orbit,
    stabilizer,
)
from orbitpoly.numerics import Tolerance, round_key


def _element_keys(G):
    return {round_key(g, G.tol) for g in G.elements}


def test_group_functions_read_the_group_tolerance():
    # A group carries the tolerance it was closed with; no public function
    # that takes a group takes another one, except group_reflections, whose
    # tol defaults to the group's.
    taking_a_group = {}
    for module in (group, cones, coxeter, polar, polytope, numerics, catalog, cli):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            params = list(inspect.signature(fn, eval_str=True).parameters.values())
            if params and params[0].annotation is FiniteGroup:
                taking_a_group[f"{module.__name__}.{name}"] = [p.name for p in params]
    assert len(taking_a_group) == 19, sorted(taking_a_group)
    with_tol = {name for name, params in taking_a_group.items() if "tol" in params}
    assert with_tol == {"orbitpoly.group.group_reflections"}
    assert inspect.signature(group.group_reflections).parameters["tol"].default is None
    assert taking_a_group["orbitpoly.coxeter.is_reflection_generated"] == ["G"]


def test_closure_c4_order():
    G = close_generators([helpers.rot2(math.pi / 2)])
    assert G.order == 4


def test_closure_b2_matches_bruteforce():
    # Oracle: the 8 dihedral matrices of the square, written in closed form.
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    oracle = helpers.dihedral_matrices(4)
    assert G.order == 8
    assert _element_keys(G) == {round_key(m, G.tol) for m in oracle}


def test_closure_i25_matches_bruteforce():
    G = close_generators([helpers.rot2(2 * math.pi / 5), np.diag([1.0, -1.0])])
    oracle = helpers.dihedral_matrices(5)
    assert G.order == 10
    assert _element_keys(G) == {round_key(m, G.tol) for m in oracle}


def test_closure_identity_first():
    G = close_generators([helpers.rot2(2 * math.pi / 3)])
    assert np.allclose(G.elements[0], np.eye(2))


def test_closure_order_cap():
    # An irrational rotation angle never closes up.
    with pytest.raises(OrderExceededError):
        close_generators([helpers.rot2(1.0)], max_order=500)


def test_orbit_c4_square():
    G = close_generators([helpers.rot2(math.pi / 2)])
    orb = orbit(G, [1.0, 0.0])
    assert helpers.match_point_sets(orb.points, [[1, 0], [0, 1], [-1, 0], [0, -1]])
    assert np.allclose(orb.points[0], [1.0, 0.0])


def test_orbit_trivial_group():
    G = close_generators([np.eye(3)])
    orb = orbit(G, [1.0, 2.0, 3.0])
    assert len(orb) == 1


def test_orbit_b2_of_generic_point():
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    # Oracle: apply all 8 closed-form matrices directly.
    expected = np.unique(
        np.round([m @ np.array([2.0, 1.0]) for m in helpers.dihedral_matrices(4)], 9), axis=0
    )
    orb = orbit(G, [2.0, 1.0])
    assert len(orb) == 8
    assert helpers.match_point_sets(orb.points, expected)


def test_orbit_witnesses(groups):
    for G in groups.values():
        v = find_regular(G, 11)
        orb = orbit(G, v)
        for p, w in zip(orb.points, orb.point_to_element):
            assert np.allclose(G.elements[w] @ v, p, atol=1e-9)


def test_stabilizer_b2_axis_point():
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    stab = stabilizer(G, [1.0, 0.0])
    assert stab.order == 2
    keys = _element_keys(stab)
    assert round_key(np.eye(2), stab.tol) in keys
    assert round_key(np.diag([1.0, -1.0]), stab.tol) in keys


def test_stabilizer_generic_point_trivial():
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    assert stabilizer(G, [2.0, 1.0]).order == 1


def test_stabilizer_origin_is_whole_group(groups):
    for G in groups.values():
        assert stabilizer(G, np.zeros(G.dim)).order == G.order


def test_is_regular_examples():
    G = close_generators([helpers.rot2(math.pi / 2), np.diag([1.0, -1.0])])
    assert is_regular(G, [2.0, 1.0])
    assert not is_regular(G, [1.0, 0.0])
    C4 = close_generators([helpers.rot2(math.pi / 2)])
    assert is_regular(C4, [1.0, 0.0])


def test_find_regular_deterministic(groups):
    for G in groups.values():
        v1 = find_regular(G, 5)
        v2 = find_regular(G, 5)
        assert np.array_equal(v1, v2)
        assert is_regular(G, v1)
        assert np.linalg.norm(v1) == pytest.approx(1.0)


def test_find_regular_fails_on_nonfaithful():
    # A non-faithful action shows up as duplicate element matrices, which a
    # generator closure would collapse; build the degenerate group directly.
    # Every stabilizer then has size two and no draw can succeed.
    from orbitpoly.group import FiniteGroup

    fake = FiniteGroup(
        dim=2,
        elements=(np.eye(2), np.eye(2)),
        generator_indices=(0,),
        name="nonfaithful",
    )
    with pytest.raises(RegularNotFoundError):
        find_regular(fake, 0)


def test_orbit_stabilizer_theorem(groups):
    rng = np.random.default_rng(17)
    for G in groups.values():
        for _ in range(100):
            v = rng.standard_normal(G.dim)
            assert len(orbit(G, v)) * stabilizer(G, v).order == G.order


def test_orbit_norm_preserved(groups):
    rng = np.random.default_rng(23)
    for G in groups.values():
        v = rng.standard_normal(G.dim) * 3.0
        r = np.linalg.norm(v)
        for p in orbit(G, v).points:
            assert np.linalg.norm(p) == pytest.approx(r, abs=1e-9)


def test_minimal_stabilizer_characterization(groups):
    # For faithful finite actions, v is regular iff its stabilizer sits
    # inside the stabilizer of every sampled vector.
    rng = np.random.default_rng(3)
    for name in ("b2", "a3"):
        G = groups[name]
        v_reg = find_regular(G, 9)
        stab_keys = _element_keys(stabilizer(G, v_reg))
        for _ in range(20):
            u = rng.standard_normal(G.dim)
            assert stab_keys <= _element_keys(stabilizer(G, u))
        # a wall point has a strictly larger stabilizer than some regular u
        wall = np.zeros(G.dim)
        wall[0] = 1.0
        if not is_regular(G, wall):
            u = find_regular(G, 10)
            assert not _element_keys(stabilizer(G, wall)) <= _element_keys(stabilizer(G, u))


def test_group_from_json_roundtrip():
    data = {
        "name": "square",
        "dim": 2,
        "generators": [
            [["0.0", "-1.0"], ["1.0", "0.0"]],
            [[1.0, 0.0], [0.0, -1.0]],
        ],
    }
    G, tol = group_from_json_dict(data)
    assert G.order == 8
    assert G.name == "square"


# Equality with the per-element loops of tests/helpers.py, bit for bit.

REFERENCE_GROUPS = [
    *CATALOG_NAMES,
    *helpers.SIMPLE_ROOTS,
    "chiral_t",
    "chiral_o",
    "minus_i3",
]


def _test_vectors(G, ref):
    """Regular vectors at three seeds, scaled copies, one on a wall, and zero."""
    vectors = [find_regular(G, seed) for seed in range(3)]
    vectors += [1e-3 * vectors[0], 1e3 * vectors[0]]
    mirrors = helpers.group_reflections_reference(ref)
    if mirrors:
        n = mirrors[0].normal
        vectors.append(vectors[1] - (vectors[1] @ n) * n)
    elif G.dim == 3 and G.order > 2:
        # The chiral groups: the axis of the first generator, a rotation.
        vectors.append(np.linalg.svd(np.eye(3) - G.generators[0])[2][-1])
    vectors.append(np.zeros(G.dim))
    return vectors


def _assert_matches_reference(G, ref):
    tol = G.tol
    assert np.array_equal(G.stack, np.array(ref.elements))
    assert G.generator_indices == ref.generator_indices
    for v in _test_vectors(G, ref):
        orb, expected = orbit(G, v), helpers.orbit_reference(ref, v, tol)
        assert np.array_equal(orb.points, expected.points)
        assert np.array_equal(orb.point_to_element, expected.point_to_element)
        assert stabilizer(G, v).order == helpers.stabilizer_order_reference(ref, v, tol)
        assert is_regular(G, v) == (helpers.stabilizer_order_reference(ref, v, tol) == 1)
    got, expected = group_reflections(G), helpers.group_reflections_reference(ref, tol)
    assert [r.element_index for r in got] == [r.element_index for r in expected]
    assert all(np.array_equal(a.normal, b.normal) for a, b in zip(got, expected))


def _generators(name):
    if name in CATALOG_NAMES:
        return generator_matrices(name)
    if name in helpers.SIMPLE_ROOTS:
        return helpers.reflection_generators(name)
    return helpers.NON_REFLECTION_GENERATORS[name]


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_group_layer_matches_per_element_loops(name):
    gens = _generators(name)
    G = close_generators(gens, name=name)
    _assert_matches_reference(G, helpers.close_generators_reference(gens, name=name))


@pytest.mark.parametrize("name", ["b2", "a3", "h3", "chiral_o"])
def test_group_layer_matches_per_element_loops_loose_tolerance(name):
    tol = Tolerance(eps_eq=1e-6)
    gens = _generators(name)
    G = close_generators(gens, tol=tol)
    _assert_matches_reference(G, helpers.close_generators_reference(gens, tol=tol))


@pytest.mark.parametrize(
    "gens",
    [
        [helpers.rot2(2 * math.pi / 360)],
        [helpers.rot2(2 * math.pi / 37), np.diag([1.0, -1.0])],
        [helpers.rot3z(2 * math.pi / 7), helpers.rot3z(2 * math.pi / 5), np.diag([1.0, 1.0, -1.0])],
    ],
    ids=["c360", "i2_37", "c35_x_mirror"],
)
def test_long_cycles_match_per_element_loops(gens):
    # Long generator cycles: the closure multiplies by generator powers.
    G = close_generators(gens)
    _assert_matches_reference(G, helpers.close_generators_reference(gens))


def test_closure_keeps_key_mates_farther_than_eps():
    # At eps_eq 1e-3 the rounding grid is 0.1, so neighbouring elements of
    # C100 share rounding keys while lying farther apart than eps_eq.
    tol = Tolerance(eps_eq=1e-3)
    gens = [helpers.rot2(2 * math.pi / 100)]
    G = close_generators(gens, tol=tol)
    assert G.order == 100
    assert len(_element_keys(G)) < 100
    _assert_matches_reference(G, helpers.close_generators_reference(gens, tol=tol))


def test_orbit_keeps_key_mates_farther_than_eps():
    # Rotations by 3e-9 and 6e-9 move (1, 0) within one rounding cell but
    # farther than eps_eq from each other: three distinct points, one key.
    G = FiniteGroup(
        dim=2,
        elements=(np.eye(2), helpers.rot2(3e-9), helpers.rot2(-3e-9), helpers.rot2(6e-9), helpers.rot2(1e-9)),
        generator_indices=(1,),
        name="cell",
    )
    v = np.array([1.0, 0.0])
    orb, expected = orbit(G, v), helpers.orbit_reference(G, v)
    assert np.array_equal(orb.point_to_element, expected.point_to_element)
    assert np.array_equal(orb.point_to_element, [0, 1, 2, 3])
    assert np.array_equal(orb.points, expected.points)
    assert len({round_key(p, G.tol) for p in orb.points}) == 1
    assert stabilizer(G, v).order == helpers.stabilizer_order_reference(G, v) == 2


def test_closure_order_cap_matches_reference():
    for closure in (close_generators, helpers.close_generators_reference):
        with pytest.raises(OrderExceededError):
            closure([helpers.rot2(1.0)], max_order=500)


def test_replay_check_rejects_a_table_the_stack_closure_would_not_build():
    from orbitpoly.group import _check_replay

    G = close_generators([helpers.rot2(math.pi / 2)])
    gens = np.stack(G.generators)
    target = np.array([[1], [2], [3], [0]])  # elements in order I, r, r^2, r^3
    _check_replay(G.stack, gens, target, G.tol)
    with pytest.raises(GeometryError):
        _check_replay(G.stack, gens, target[[0, 2, 1, 3]], G.tol)


def test_stack_is_read_only(groups):
    G = groups["b3"]
    assert G.stack.shape == (48, 3, 3)
    with pytest.raises(ValueError):
        G.stack[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        G.elements[1][0, 0] = 2.0
