from dataclasses import replace

import numpy as np
import pytest

import helpers
from orbitpoly import polar
from orbitpoly.errors import NoCartanDataError
from orbitpoly.numerics import Tolerance, is_orthogonal


@pytest.fixture(scope="module")
def so3():
    return polar.so3_standard()


@pytest.fixture(scope="module")
def sym3():
    return polar.sym3_traceless()


@pytest.fixture(scope="module")
def hopf():
    return polar.hopf_circle()


def test_samplers_produce_orthogonal_matrices(so3, sym3, hopf):
    for model in (so3, sym3, hopf):
        for m in model.sampler(0, 20):
            assert is_orthogonal(m, Tolerance(eps_eq=1e-9))


def test_samplers_deterministic(so3, sym3, hopf):
    for model in (so3, sym3, hopf):
        assert np.array_equal(model.sampler(7, 5), model.sampler(7, 5))


@pytest.mark.parametrize("count", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 42, 1001])
def test_rotations_match_scipy_sampler(count, seed):
    rotations = polar._sample_rotations(seed, count)
    assert rotations.shape == (count, 3, 3)
    assert np.max(np.abs(rotations - helpers.sample_rotations_reference(seed, count))) <= 1e-12
    assert np.max(np.abs(np.linalg.det(rotations) - 1.0)) <= 1e-12
    gram = np.einsum("sba,sbc->sac", rotations, rotations)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-14


def test_conjugation_action_matches_reference():
    rotations = helpers.sample_rotations_reference(5, 2000)
    action = polar.conjugation_action(rotations)
    assert np.max(np.abs(action - helpers.conjugation_action_reference(rotations))) <= 1e-14


def test_conjugation_action_is_homomorphism():
    r1 = helpers.sample_rotations_reference(6, 500)
    r2 = helpers.sample_rotations_reference(7, 500)
    product = polar.conjugation_action(r1 @ r2)
    composed = polar.conjugation_action(r1) @ polar.conjugation_action(r2)
    assert np.max(np.abs(product - composed)) <= 1e-13


def test_conjugation_action_single_rotation():
    rotation = helpers.sample_rotations_reference(8, 1)[0]
    action = polar.conjugation_action(rotation)
    assert action.shape == (1, 5, 5)
    assert np.max(np.abs(action - helpers.conjugation_action_reference(rotation))) <= 1e-14


def test_sym_basis_orthonormal():
    E = polar._SYM_BASIS
    gram = np.einsum("iab,jab->ij", E, E)
    assert np.allclose(gram, np.eye(5), atol=1e-12)
    for e in E:
        assert abs(np.trace(e)) <= 1e-12


def test_tangents_orthogonal_to_base(so3, sym3, hopf):
    # orthogonal actions: the orbit tangent at v is orthogonal to v itself
    rng = np.random.default_rng(1)
    for model in (so3, sym3, hopf):
        for _ in range(10):
            v = rng.standard_normal(model.ambient_dim)
            for t in model.tangent_basis_at(v):
                assert abs(float(t @ v)) <= 1e-9


def test_skew_diagonal_commutator_oracle():
    # The tangent directions of the conjugation action at a diagonal matrix
    # are commutators [X, D]; those always have zero diagonal.
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal((3, 3))
        x = x - x.T
        d = np.diag(rng.standard_normal(3))
        comm = x @ d - d @ x
        assert np.max(np.abs(np.diag(comm))) <= 1e-12


def test_cartan_orthogonality_polar_models(so3, sym3):
    for model in (so3, sym3):
        report = polar.check_cartan_orthogonality(model, n_samples=200, seed=5)
        assert report.passed
        assert report.max_violation < 1e-8


def test_cartan_orthogonality_hopf_fails(hopf):
    report = polar.check_cartan_orthogonality(hopf, n_samples=200, seed=5)
    assert not report.passed
    assert report.max_violation > 1e-2


def _generic_candidate(model, dim, seed):
    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((model.ambient_dim, dim)))
    return polar.with_candidate_basis(model, basis.T)


def test_tangent_maps_are_linear(so3, sym3, hopf):
    rng = np.random.default_rng(3)
    for model in (so3, sym3, hopf):
        x, y = rng.standard_normal((2, model.ambient_dim))
        combined = model.tangent_basis_at(2.5 * x - 0.75 * y)
        expected = 2.5 * model.tangent_basis_at(x) - 0.75 * model.tangent_basis_at(y)
        assert np.max(np.abs(combined - expected)) <= 1e-12


@pytest.mark.parametrize("seed", [5, 7, 42, 1001])
def test_cartan_orthogonality_matches_reference(so3, sym3, hopf, seed):
    for model in (so3, sym3, hopf, _generic_candidate(hopf, 2, 11)):
        report = polar.check_cartan_orthogonality(model, n_samples=200, seed=seed)
        assert report.max_violation == helpers.check_cartan_orthogonality_reference(model, 200, seed)
    # A generic subspace of sym3 makes the tangent products non-trivial;
    # reading the map off at the unit vectors changes only rounding there.
    model = _generic_candidate(sym3, 2, 11)
    report = polar.check_cartan_orthogonality(model, n_samples=200, seed=seed)
    reference = helpers.check_cartan_orthogonality_reference(model, 200, seed)
    assert report.max_violation > 1e-2
    assert abs(report.max_violation - reference) <= 1e-14


def test_orbits_meet_cartan(so3, sym3, hopf):
    for model in (so3, sym3, hopf):
        report = polar.check_orbits_meet_cartan(model, n_vectors=15, seed=5, n_group_samples=500)
        assert report.passed, (model.name, report.max_violation)


def test_orbits_miss_generic_subspace(hopf):
    # A circle orbit meets every hyperplane (its signed distance is a
    # sinusoid in the angle), so failure needs codimension >= 2: against a
    # generic 2-dim candidate the orbits stay clear.
    rng = np.random.default_rng(11)
    basis, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    model = polar.with_candidate_basis(hopf, basis.T)
    report = polar.check_orbits_meet_cartan(model, n_vectors=10, seed=5, n_group_samples=2000)
    assert not report.passed
    assert report.max_violation > 1e-2


def test_align_witnesses_exact(so3, sym3, hopf):
    rng = np.random.default_rng(13)
    for model in (so3, sym3, hopf):
        B = model.cartan_basis
        for _ in range(10):
            v = rng.standard_normal(model.ambient_dim)
            g = model.align_to_cartan(v)
            assert is_orthogonal(g, Tolerance(eps_eq=1e-8))
            image = g @ v
            off = image - (image @ B.T) @ B
            assert np.linalg.norm(off) <= 1e-9
            assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(v), abs=1e-9)


def test_projection_hull_so3(so3):
    a = np.array([1.5, 0.0, 0.0])
    report = polar.check_projection_matches_weyl_hull(so3, a=a, n_samples=2000, seed=7)
    assert report.passed
    assert report.details["hull_vertices"] == 2


def test_projection_hull_sym3_with_majorization_oracle(sym3):
    # Base diag(1, 0, -1); projections of conjugates must be majorized by it.
    a = polar.sym_vec(np.diag([1.0, 0.0, -1.0]))
    report = polar.check_projection_matches_weyl_hull(sym3, a=a, n_samples=3000, seed=7)
    assert report.passed
    assert report.details["hull_vertices"] == 6  # hexagon of the 6 permutations

    mats = sym3.sampler(23, 500)
    for img in mats @ a:
        diag = np.diag(polar.sym_mat((img @ sym3.cartan_basis.T) @ sym3.cartan_basis))
        assert helpers.in_permutohedron(diag, [1.0, 0.0, -1.0], eps=1e-8)


def test_projection_hull_zero_point(sym3):
    report = polar.check_projection_matches_weyl_hull(
        sym3, a=np.zeros(5), n_samples=100, seed=7
    )
    assert report.passed
    assert report.details["hull_vertices"] == 1


def test_cartan_slice_sym3(sym3):
    report = polar.check_cartan_slice_is_weyl_orbit(sym3, n_group_samples=1000, seed=9)
    assert report.passed
    # the Weyl witnesses themselves populate the slice
    assert report.details["n_points_in_slice"] >= 6


def test_cartan_slice_so3(so3):
    a = np.array([2.0, 0.0, 0.0])
    report = polar.check_cartan_slice_is_weyl_orbit(so3, a=a, n_group_samples=1000, seed=9)
    assert report.passed


def test_slice_support_so3_segments(so3):
    # Orbits of (1,0,0) and (2,0,0) are spheres; both sides give the
    # supports of the segment [-3, 3].
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([2.0, 0.0, 0.0])
    report = polar.check_slice_support_match(so3, a=a, b=b, n_dirs=50, seed=3)
    assert report.passed
    dirs = np.array([[1.0], [-1.0]])
    for d in dirs:
        amb = d @ so3.cartan_basis
        lhs = max(float((w @ a) @ amb) for w in so3.weyl_witnesses) + max(
            float((w @ b) @ amb) for w in so3.weyl_witnesses
        )
        assert lhs == pytest.approx(3.0, abs=1e-12)


def test_slice_support_sym3(sym3):
    report = polar.check_slice_support_match(sym3, n_dirs=200, seed=3)
    assert report.passed
    assert report.max_violation < 1e-6


def test_slice_support_identity_element(sym3):
    # Adding the zero orbit changes nothing.
    a = sym3.cartan_point(31)
    report = polar.check_slice_support_match(sym3, a=a, b=np.zeros(5), n_dirs=50, seed=3)
    assert report.passed


def test_sampled_support_bounded_by_sorted_pairing(sym3):
    # The sampled orbit support never exceeds the rearrangement bound and
    # grows monotonically with the sample count.
    a_diag, d_diag = np.array([1.3, 0.2, -1.5]), np.array([0.7, 0.1, -0.8])
    a = polar.sym_vec(np.diag(a_diag))
    d = polar.sym_vec(np.diag(d_diag))
    bound = helpers.sorted_pairing(a_diag, d_diag)
    values = sym3.sampler(37, 4000) @ a @ d
    prev = -np.inf
    for n in (10, 100, 1000, 4000):
        est = float(values[:n].max())
        assert est <= bound + 1e-10
        assert est >= prev - 1e-12
        prev = est
    assert prev > bound - 0.05  # the sample gets close from below


def test_trace_conservation_sym3(sym3):
    mats = sym3.sampler(41, 500)
    a = sym3.cartan_point(43)
    for img in mats @ a:
        proj = (img @ sym3.cartan_basis.T) @ sym3.cartan_basis
        assert abs(np.trace(polar.sym_mat(proj))) <= 1e-10


def test_weyl_group_is_coxeter(so3, sym3):
    assert polar.weyl_is_coxeter(so3)
    assert polar.weyl_is_coxeter(sym3)


def test_weyl_checks_require_data(hopf):
    with pytest.raises(NoCartanDataError):
        polar.weyl_is_coxeter(hopf)
    with pytest.raises(NoCartanDataError):
        polar.check_projection_matches_weyl_hull(hopf)
    with pytest.raises(NoCartanDataError):
        polar.check_cartan_slice_is_weyl_orbit(hopf)
    with pytest.raises(NoCartanDataError):
        polar.check_slice_support_match(hopf)


def test_dimension_obstruction_hopf(hopf):
    report = polar.sp_falsify_nonpolar(hopf, n_group_samples=64, seed=3)
    assert not report.passed
    assert report.details["sum_affine_dim"] == 4
    assert report.details["max_orbit_affine_dim"] == 2
    assert report.details["sp_impossible"]


def test_dimension_obstruction_absent_for_polar(so3, sym3):
    for model in (so3, sym3):
        report = polar.sp_falsify_nonpolar(model, n_group_samples=64, seed=3)
        assert report.passed


def test_dimension_obstruction_zero_summand(hopf):
    u = np.zeros(4)
    v = np.array([0.0, 0.0, 1.0, 0.0])
    report = polar.sp_falsify_nonpolar(hopf, u=u, v=v, n_group_samples=64, seed=3)
    assert report.passed  # sum equals one orbit hull, no obstruction


def test_battery_verdicts():
    for name, expected in (("so3_standard", True), ("sym3_traceless", True), ("hopf_circle", False)):
        verdict, _ = polar.run_battery(polar.get_model(name), samples=500, seed=42)
        assert verdict == expected


def test_battery_deterministic(sym3):
    v1, r1 = polar.run_battery(polar.get_model("sym3_traceless"), samples=300, seed=8)
    v2, r2 = polar.run_battery(polar.get_model("sym3_traceless"), samples=300, seed=8)
    assert v1 == v2
    for key in r1:
        a, b = r1[key], r2[key]
        if isinstance(a, polar.PolarCheckReport):
            assert a.max_violation == b.max_violation
            assert a.passed == b.passed


def _reference_sampler(model):
    """The model's sampler rebuilt from the reference rotation primitives."""
    if model.name == "so3_standard":
        return helpers.sample_rotations_reference
    if model.name == "sym3_traceless":
        return lambda seed, count: helpers.conjugation_action_reference(
            helpers.sample_rotations_reference(seed, count)
        )
    return model.sampler  # hopf_circle draws no rotations of 3-space


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("name", sorted(polar.MODEL_BUILDERS))
def test_battery_matches_reference_sampler(name, seed):
    model = polar.get_model(name)
    verdict, reports = polar.run_battery(model, samples=2000, seed=seed)
    ref_verdict, ref_reports = polar.run_battery(
        replace(model, sampler=_reference_sampler(model)), samples=2000, seed=seed
    )
    assert verdict == ref_verdict
    assert reports.keys() == ref_reports.keys()
    for key, report in reports.items():
        ref = ref_reports[key]
        if not isinstance(report, polar.PolarCheckReport):
            assert report == ref
            continue
        assert (report.passed, report.n_samples) == (ref.passed, ref.n_samples)
        assert report.max_violation == pytest.approx(ref.max_violation, rel=0.0, abs=1e-13)
        assert report.details.keys() == ref.details.keys()
        for field, value in report.details.items():
            if isinstance(value, float):
                assert value == pytest.approx(ref.details[field], rel=0.0, abs=1e-13)
            else:
                assert value == ref.details[field]
