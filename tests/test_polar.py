import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

import helpers
from orbitpoly import polar
from orbitpoly.errors import NoCartanDataError
from orbitpoly.numerics import Tolerance, is_orthogonal
from orbitpoly.polytope import hull


@pytest.fixture(scope="module")
def so3():
    return polar.so3_standard()


@pytest.fixture(scope="module")
def sym3():
    return polar.sym3_traceless()


@pytest.fixture(scope="module")
def hopf():
    return polar.hopf_circle()


def _sampled_matrices(model, seed, count):
    """The seeded elements g_s as matrices, read off as the images of the unit vectors."""
    images = polar.group_images(model, seed, count, np.eye(model.ambient_dim))  # [i, s] = g_s e_i
    return images.transpose(1, 2, 0)  # [s, j, i] = g_s[j, i]


def _reference_images(model, seed, count, points):
    """``group_images`` with the elements formed one at a time by scipy's expm."""
    mats = helpers.group_elements_reference(model, seed, count)
    return np.array([mats @ p for p in np.asarray(points, dtype=float)])


def test_samplers_produce_orthogonal_matrices(so3, sym3, hopf):
    for model in (so3, sym3, hopf):
        for m in _sampled_matrices(model, 0, 20):
            assert is_orthogonal(m, Tolerance(eps_eq=1e-9))


def test_samplers_deterministic(so3, sym3, hopf):
    for model in (so3, sym3, hopf):
        assert np.array_equal(_sampled_matrices(model, 7, 5), _sampled_matrices(model, 7, 5))
        assert not np.array_equal(_sampled_matrices(model, 7, 5), _sampled_matrices(model, 8, 5))


@pytest.mark.parametrize("count", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 42, 1001])
@pytest.mark.parametrize("name", sorted(polar.MODEL_BUILDERS))
def test_images_match_sampled_matrices(name, seed, count):
    model = polar.get_model(name)
    points = np.random.default_rng(seed + 1).standard_normal((4, model.ambient_dim))
    images = polar.group_images(model, seed, count, points)
    assert images.shape == (4, count, model.ambient_dim)
    expected = _reference_images(model, seed, count, points)
    assert np.max(np.abs(images - expected)) <= 1e-13 * np.linalg.norm(points, axis=1).max()
    # Row k depends on points[k] alone: batching changes no bit.
    for k in range(len(points)):
        assert np.array_equal(polar.group_images(model, seed, count, points[k : k + 1])[0], images[k])


@pytest.mark.parametrize("count", [1, 7, 10_000])
@pytest.mark.parametrize("seed", [0, 42, 1001])
def test_rotations_match_scipy_sampler(count, seed):
    # exp(sum xi_t X_t) on so(3) is the turn by |xi| about xi (Rodrigues),
    # which scipy builds from the rotation vector xi of the same draw.
    rotations = _sampled_matrices(polar.so3_standard(), seed, count)
    assert rotations.shape == (count, 3, 3)
    xi = np.random.default_rng(seed).uniform(-np.pi, np.pi, (count, 3))
    assert np.max(np.abs(rotations - Rotation.from_rotvec(xi).as_matrix())) <= 1e-13
    assert np.max(np.abs(np.linalg.det(rotations) - 1.0)) <= 1e-13
    gram = np.einsum("sba,sbc->sac", rotations, rotations)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-14


@pytest.mark.parametrize("bound", [0.0, 0.3, 1.0, 2.5, 5.0, 10.0, 20.0])
@pytest.mark.parametrize("name", sorted(polar.MODEL_BUILDERS))
def test_expm_matches_scipy(name, bound):
    # Stacks of sum xi_t X_t with Frobenius norms up to bound, the largest at
    # it, so up to 6 squarings run.  Past norm 10 scipy's own expm leaves
    # the Hopf circle's closed form by 1.4e-13, so the cut grows with the bound there.
    algebra = polar.get_model(name).algebra
    rng = np.random.default_rng(int(10 * bound))
    units = np.tensordot(rng.standard_normal((200, len(algebra))), algebra, axes=1)
    units /= np.linalg.norm(units, axis=(1, 2))[:, None, None]
    sizes = bound * rng.uniform(0.0, 1.0, 200)
    sizes[0] = bound
    stack = sizes[:, None, None] * units
    out = polar._expm(stack, bound)
    reference = np.array([expm(a) for a in stack])
    scale = max(10.0, bound)
    assert np.max(np.abs(out - reference)) <= 1e-14 * scale
    gram = np.einsum("sji,sjk->sik", out, out)
    assert np.max(np.abs(gram - np.eye(algebra.shape[1]))) <= 1e-15 * scale


def test_expm_matches_the_hopf_closed_form(hopf):
    # exp(t J) = cos t I + sin t J, for |t J|_F = 2 |t| up to 20.
    j = hopf.algebra[0]
    t = np.linspace(-10.0, 10.0, 2001)[:, None, None]
    out = polar._expm(t * j, 20.0)
    assert np.max(np.abs(out - (np.cos(t) * np.eye(4) + np.sin(t) * j))) <= 1e-14


def test_hopf_elements_commute_with_j(hopf):
    # The circle is {cos t I + sin t J}: every element commutes with J.
    j = hopf.algebra[0]
    for m in _sampled_matrices(hopf, 3, 200):
        assert np.max(np.abs(m @ j - j @ m)) <= 1e-14


def test_sym_basis_orthonormal():
    E = polar._SYM_BASIS
    gram = np.einsum("iab,jab->ij", E, E)
    assert np.allclose(gram, np.eye(5), atol=1e-12)
    for e in E:
        assert abs(np.trace(e)) <= 1e-12


def test_tangents_orthogonal_to_base(so3, sym3, hopf):
    # Orthogonal actions: every X_t is skew, so the orbit tangent X_t v at v
    # is orthogonal to v itself.
    for model in (so3, sym3, hopf):
        assert model.algebra.shape[1:] == (model.ambient_dim, model.ambient_dim)
        assert np.max(np.abs(model.algebra + model.algebra.transpose(0, 2, 1))) <= 1e-15


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


@pytest.mark.parametrize("seed", [5, 7, 42, 1001])
def test_cartan_orthogonality_matches_reference(so3, sym3, hopf, seed):
    for model in (so3, sym3, hopf, _generic_candidate(hopf, 2, 11)):
        report = polar.check_cartan_orthogonality(model, n_samples=200, seed=seed)
        assert report.max_violation == helpers.check_cartan_orthogonality_reference(model, 200, seed)
    # A generic subspace of sym3 makes the tangent products non-trivial;
    # the commutators of the reference differ from the algebra only by rounding there.
    model = _generic_candidate(sym3, 2, 11)
    report = polar.check_cartan_orthogonality(model, n_samples=200, seed=seed)
    reference = helpers.check_cartan_orthogonality_reference(model, 200, seed)
    assert report.max_violation > 1e-2
    assert abs(report.max_violation - reference) <= 1e-14


def _candidate_cases():
    """The models, one more section (without Weyl data) and two subspaces that are not sections."""
    so3, sym3, hopf = (polar.get_model(name) for name in ("so3_standard", "sym3_traceless", "hopf_circle"))
    line_112 = polar.sym_vec(np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0))
    return {
        "so3_standard": so3,
        "sym3_traceless": sym3,
        "hopf_circle": hopf,
        "so3_axis_2": polar.with_candidate_basis(so3, [[0.0, 1.0, 0.0]]),
        "hopf_plane_11": _generic_candidate(hopf, 2, 11),
        "sym3_line_112": polar.with_candidate_basis(sym3, [line_112]),
    }


@pytest.mark.parametrize(
    "name, dims", [("so3_standard", (2, 1)), ("sym3_traceless", (3, 2)), ("hopf_circle", (1, 3))]
)
def test_cohomogeneity_of_models(name, dims):
    # (principal orbit dim, candidate dim): each candidate is a complement of
    # a principal orbit's tangent space, and its generic points are regular.
    report = polar.check_cohomogeneity(polar.get_model(name), seed=5)
    assert report.passed
    assert (report.max_violation, report.threshold, report.n_samples) == (0.0, 0.0, 1)
    details = report.details
    assert (details["principal_orbit_dim"], details["candidate_dim"]) == dims
    assert details["orbit_dim_in_candidate"] == dims[0]


def test_cohomogeneity_of_another_axis():
    # Every line through 0 is a section of SO(3); no witness is needed.
    model = _candidate_cases()["so3_axis_2"]
    for seed in (0, 5, 42):
        assert polar.check_cohomogeneity(model, seed=seed).passed


def test_cohomogeneity_generic_plane_fails():
    # Circle orbits in R^4 leave a 3-dim section; a 2-plane is a dimension short.
    report = polar.check_cohomogeneity(_candidate_cases()["hopf_plane_11"], seed=5)
    assert not report.passed
    assert report.max_violation == 1.0
    assert report.details == {"principal_orbit_dim": 1, "candidate_dim": 2, "orbit_dim_in_candidate": 1}


def test_cohomogeneity_fails_on_singular_line():
    # The line of diag(1, 1, -2) is a dimension short of a section, and its
    # points have a double eigenvalue: their orbits are 2-dim, not 3-dim.
    report = polar.check_cohomogeneity(_candidate_cases()["sym3_line_112"], seed=5)
    assert not report.passed
    assert report.max_violation == 2.0
    assert report.details == {"principal_orbit_dim": 3, "candidate_dim": 1, "orbit_dim_in_candidate": 2}


def _in_basis(model, q):
    """The model in the coordinates x' = q x, where each element g acts as q g q^T."""

    return replace(
        model,
        algebra=q @ model.algebra @ q.T,
        cartan_basis=model.cartan_basis @ q.T,
        weyl_witnesses=None if model.weyl_witnesses is None else q @ model.weyl_witnesses @ q.T,
    )


@pytest.mark.parametrize("case", sorted(_candidate_cases()))
def test_battery_survives_a_change_of_basis(case):
    # Polarity, a section's dimension and the Weyl checks are properties of
    # the action, not of the coordinates it is written in.
    model = _candidate_cases()[case]
    q, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((model.ambient_dim,) * 2))
    verdict, reports = polar.run_battery(model, seed=42)
    q_verdict, q_reports = polar.run_battery(_in_basis(model, q), seed=42)
    assert q_verdict == verdict
    assert q_reports["cohomogeneity"].details == reports["cohomogeneity"].details
    for key, report in reports.items():
        if isinstance(report, polar.PolarCheckReport):
            assert q_reports[key].passed == report.passed, key
        else:
            assert q_reports[key] == report, key


def test_projection_hull_so3(so3):
    a = np.array([1.5, 0.0, 0.0])
    report = polar.check_projection_matches_weyl_hull(so3, a=a, seed=7)
    assert report.passed
    assert report.n_samples == polar._WEYL_HULL_STARTS
    assert report.details["hull_vertices"] == 2
    assert report.details["max_gradient_norm"] <= polar._ASCENT_GRADIENT_CUT


def test_projection_hull_sym3_with_majorization_oracle(sym3):
    # Base diag(1, 0, -1); projections of conjugates must be majorized by it.
    a = polar.sym_vec(np.diag([1.0, 0.0, -1.0]))
    report = polar.check_projection_matches_weyl_hull(sym3, a=a, seed=7)
    assert report.passed
    assert report.details["hull_vertices"] == 6  # hexagon of the 6 permutations

    for img in polar.group_images(sym3, 23, 500, a[None])[0]:
        diag = np.diag(polar.sym_mat((img @ sym3.cartan_basis.T) @ sym3.cartan_basis))
        assert helpers.in_permutohedron(diag, [1.0, 0.0, -1.0], eps=1e-8)


def _hull_rows(model, a):
    """The check's Weyl hull of a / |a| (of 0 for a = 0) and its (direction, offset) rows."""
    unit_chart = model.chart(a / (np.linalg.norm(a) or 1.0))
    weyl_hull = hull(np.array([w @ unit_chart for w in model.weyl_elements]))
    return (weyl_hull, *polar._weyl_hull_rows(weyl_hull, model.cartan_basis))


def _unit_starts(model, a, seed):
    """The check's starts, seeded images of a and its Weyl witness images, over |a|."""
    starts = np.concatenate(
        [polar.group_images(model, seed + 1, polar._WEYL_HULL_STARTS, a[None])[0], model.weyl_witnesses @ a]
    )
    return starts / np.linalg.norm(a)


def _orbit_maxima(model, a, directions, seed):
    """max over K a of <x, n> for each row n of directions, by the check's ascent and starts."""
    size = np.linalg.norm(a)
    heights, gradient_norms, *_ = polar._ascend(model.algebra, _unit_starts(model, a, seed), directions)
    assert gradient_norms.max() <= polar._ASCENT_GRADIENT_CUT
    return size * heights


def _analytic_maxima(model, a, directions):
    """so3: max_R <R a, n> = |a| |n|; sym3: max_R <R A R^T, D> = sum of eigenvalues paired in order (von Neumann)."""
    if model.name == "so3_standard":
        return np.linalg.norm(a) * np.linalg.norm(directions, axis=1)
    eigenvalues = np.linalg.eigvalsh(polar.sym_mat(a))
    return np.array([helpers.sorted_pairing(eigenvalues, np.linalg.eigvalsh(polar.sym_mat(n))) for n in directions])


def _unit_rows(rng, count, dim):
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 117])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_ascent_reaches_the_analytic_maxima(name, seed):
    # The facet rows of a Cartan point's Weyl hull, and seeded directions
    # from a seeded point off the section.
    model = polar.get_model(name)
    rng = np.random.default_rng(seed)
    a = model.cartan_point(seed)
    _, directions, _ = _hull_rows(model, a)
    b = rng.standard_normal(model.ambient_dim)
    for point, dirs in ((a, directions), (b, _unit_rows(rng, 6, model.ambient_dim))):
        maxima = _orbit_maxima(model, point, dirs, seed)
        assert np.max(np.abs(maxima - _analytic_maxima(model, point, dirs))) <= 1e-10


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_ascent_on_a_point_with_a_double_eigenvalue(sym3, seed):
    # diag(1, 1, -2) has 3 Weyl images, so its hull is a triangle, and its
    # orbit is a 2-dim singular one; the ascent still reaches the maxima.
    a = 1.3 * polar.sym_vec(np.diag([1.0, 1.0, -2.0]))
    report = polar.check_projection_matches_weyl_hull(sym3, a=a, seed=seed)
    assert report.passed
    assert report.details["hull_vertices"] == 3
    _, directions, offsets = _hull_rows(sym3, a)
    assert len(directions) == 3
    maxima = _orbit_maxima(sym3, a, directions, seed)
    assert np.max(np.abs(maxima - _analytic_maxima(sym3, a, directions))) <= 1e-10
    assert np.max(np.abs(maxima - np.linalg.norm(a) * offsets)) <= 1e-10
    dirs = _unit_rows(np.random.default_rng(seed), 6, 5)
    assert np.max(np.abs(_orbit_maxima(sym3, a, dirs, seed) - _analytic_maxima(sym3, a, dirs))) <= 1e-10


def _section_normal(model):
    """A seeded unit vector orthogonal to the model's section."""
    u = np.random.default_rng(3).standard_normal(model.ambient_dim)
    u -= model.cartan_basis.T @ (model.cartan_basis @ u)
    return u / np.linalg.norm(u)


def _off_the_section(model, eps):
    """cartan_point(5) and the point eps |a| off it along a seeded unit normal to the section."""
    a = model.cartan_point(5)
    return a, a + eps * np.linalg.norm(a) * _section_normal(model)


@pytest.mark.parametrize("eps", [1e-3, 3e-4])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_projection_hull_fails_off_the_section(name, eps):
    # The chart of the tilted point is a, so its Weyl hull is a's, but its
    # orbit is larger: the projection leaves the hull by a gap second order
    # in eps, 4e-8 to 7e-7 here, which 10^5 sampled rotations never reached.
    model = polar.get_model(name)
    a, tilted = _off_the_section(model, eps)
    if name == "so3_standard":
        gap = np.linalg.norm(a) * (np.sqrt(1.0 + eps**2) - 1.0)
    else:
        # The hexagon's facet normals are the Weyl images of diag(2, -1, -1)
        # and diag(1, 1, -2) over sqrt(6); each facet's offset is the height
        # of a, and the orbit's maximum that of the tilted point.
        normals = [polar.sym_vec(np.diag(d) / np.sqrt(6.0)) for d in ([2.0, -1.0, -1.0], [1.0, 1.0, -2.0])]
        gap = max(
            (_analytic_maxima(model, tilted, [n]) - _analytic_maxima(model, a, [n]))[0] for n in normals
        )
    report = polar.check_projection_matches_weyl_hull(model, a=tilted, seed=5)
    assert gap > 3.0 * report.threshold
    assert not report.passed
    assert abs(report.max_violation - gap) <= 1e-9
    assert report.details["max_gradient_norm"] <= polar._ASCENT_GRADIENT_CUT


@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_projection_facet_residual_matches_row_wise(name):
    # The (facet x start) batch gives each facet the best of its rows run
    # one at a time, and max_violation is the largest facet residual: a
    # point in the Cartan subspace passes, one off it fails by that residual.
    model = polar.get_model(name)
    seed = 5
    algebra = model.algebra
    off_subspace = np.random.default_rng(seed).standard_normal(model.ambient_dim)
    for a, passes in ((model.cartan_point(seed), True), (off_subspace, False)):
        report = polar.check_projection_matches_weyl_hull(model, a=a, seed=seed)
        assert report.passed == passes
        _, directions, offsets = _hull_rows(model, a)
        size = np.linalg.norm(a)
        starts = _unit_starts(model, a, seed)
        row_wise = np.array(
            [max(polar._ascend(algebra, start[None], n[None])[0][0] for start in starts) for n in directions]
        )
        residual = size * (row_wise - offsets)
        assert abs(report.max_violation - max(float(residual.max()), 0.0)) <= 1e-12 * size


def test_projection_hull_zero_point(sym3):
    # K 0 = {0}: a one-vertex hull, and rows along both signs of both chart
    # directions off its affine span, all at height and offset 0.
    report = polar.check_projection_matches_weyl_hull(sym3, a=np.zeros(5), seed=7)
    assert report.passed
    assert report.max_violation == 0.0
    assert report.details["hull_vertices"] == 1
    assert report.details["ascent_steps"] == 0
    _, directions, offsets = _hull_rows(sym3, np.zeros(5))
    assert len(directions) == 4 and not offsets.any()
    assert np.allclose(np.abs(directions @ sym3.cartan_basis.T).sum(axis=0), 2.0)


def _tilted(model, angle):
    """The model with its first section direction turned by angle towards a seeded normal."""
    basis = model.cartan_basis.copy()
    basis[0] = np.cos(angle) * basis[0] + np.sin(angle) * _section_normal(model)
    return replace(model, cartan_basis=basis)


def _tampered_sym3(case):
    sym3 = polar.sym3_traceless()
    if case == "identity_only":
        return replace(sym3, weyl_elements=sym3.weyl_elements[:1])
    if case == "rotated_0.3":
        c, s = np.cos(0.3), np.sin(0.3)
        return replace(sym3, weyl_elements=np.array([[c, -s], [s, c]]) @ sym3.weyl_elements)
    if case == "z3_subgroup":
        even = [0, 3, 4]  # the identity and the two 3-cycles among the permutations
        return replace(sym3, weyl_elements=sym3.weyl_elements[even], weyl_witnesses=sym3.weyl_witnesses[even])
    return _tilted(sym3, {"tilted_1e-3": 1e-3, "tilted_1e-5": 1e-5}[case])


@pytest.mark.parametrize(
    "case", ["identity_only", "rotated_0.3", "z3_subgroup", "tilted_1e-3", "tilted_1e-5"]
)
def test_projection_hull_fails_on_tampered_weyl_data(case):
    # Weyl data that is not the action's: too few elements, elements that
    # are not the Weyl group's, a proper subgroup, or a candidate subspace
    # turned off the section.  In each case the projection of K a leaves
    # the hull of the listed W a.
    model = _tampered_sym3(case)
    report = polar.check_projection_matches_weyl_hull(model, seed=9)
    assert not report.passed
    assert report.max_violation > report.threshold


@pytest.mark.parametrize("seed", [0, 7, 42, 117])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_projection_hull_is_scale_free(name, seed):
    # The check runs on the orbit of a / |a|: scaling a changes neither the
    # verdict nor the steps, and scales max_violation and threshold with it.
    model = polar.get_model(name)
    a = model.cartan_point(seed)
    reports = {
        c: polar.check_projection_matches_weyl_hull(model, a=c * a, seed=seed) for c in (1e-3, 1.0, 1e3, 1e6)
    }
    base = reports[1.0]
    assert base.passed
    for c, report in reports.items():
        assert report.passed == base.passed
        assert report.details["ascent_steps"] == base.details["ascent_steps"]
        assert abs(report.max_violation / c - base.max_violation) <= 1e-12
        assert report.threshold / c == pytest.approx(base.threshold, rel=1e-15)


@pytest.mark.parametrize("seed, capped", [(117, True), (0, False), (1, False), (7, False), (42, False)])
def test_rows_at_step_cap_are_reported(sym3, seed, capped):
    # At seed 117 the Cartan point has a near-double eigenvalue, and rows
    # starting near its saddle are still moving when the batch stops at the
    # step cap; the check passes on the rows that reached each maximum.
    report = polar.check_projection_matches_weyl_hull(sym3, seed=seed)
    assert report.passed
    assert (report.details["rows_at_step_cap"] > 0) == capped
    assert (report.details["ascent_steps"] == polar._ASCENT_MAX_STEPS) == capped


def test_sampled_support_bounded_by_sorted_pairing(sym3):
    # The sampled orbit support never exceeds the rearrangement bound and
    # grows monotonically with the sample count.
    a_diag, d_diag = np.array([1.3, 0.2, -1.5]), np.array([0.7, 0.1, -0.8])
    a = polar.sym_vec(np.diag(a_diag))
    d = polar.sym_vec(np.diag(d_diag))
    bound = helpers.sorted_pairing(a_diag, d_diag)
    values = polar.group_images(sym3, 37, 4000, a[None])[0] @ d
    prev = -np.inf
    for n in (10, 100, 1000, 4000):
        est = float(values[:n].max())
        assert est <= bound + 1e-10
        assert est >= prev - 1e-12
        prev = est
    assert prev > bound - 0.05  # the sample gets close from below


def test_trace_conservation_sym3(sym3):
    a = sym3.cartan_point(43)
    for img in polar.group_images(sym3, 41, 500, a[None])[0]:
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
        verdict, _ = polar.run_battery(polar.get_model(name), seed=42)
        assert verdict == expected


def test_battery_memory_is_bounded(sym3):
    # The battery's draws are fixed, the dimension obstruction's 64 elements
    # and the ascent's 4, and the ascent holds a few dozen rows: its traced
    # peak was 0.4 MB (numpy 2.4).
    polar.run_battery(sym3)  # load scipy.spatial and warm caches untraced
    tracemalloc.start()
    try:
        polar.run_battery(sym3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_battery_deterministic(sym3):
    v1, r1 = polar.run_battery(polar.get_model("sym3_traceless"), seed=8)
    v2, r2 = polar.run_battery(polar.get_model("sym3_traceless"), seed=8)
    assert v1 == v2
    for key in r1:
        a, b = r1[key], r2[key]
        if isinstance(a, polar.PolarCheckReport):
            assert a.max_violation == b.max_violation
            assert a.passed == b.passed


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("name", sorted(polar.MODEL_BUILDERS))
def test_battery_matches_reference_sampler(name, seed, monkeypatch):
    model = polar.get_model(name)
    verdict, reports = polar.run_battery(model, seed=seed)
    monkeypatch.setattr(polar, "group_images", _reference_images)
    ref_verdict, ref_reports = polar.run_battery(model, seed=seed)
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
            if field == "max_gradient_norm":
                # Where a row stops under the cut depends on the last bits of its start.
                assert max(value, ref.details[field]) <= polar._ASCENT_GRADIENT_CUT
            elif isinstance(value, float):
                assert value == pytest.approx(ref.details[field], rel=0.0, abs=1e-13)
            else:
                assert value == ref.details[field]
