import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

import helpers
from orbitpoly import polar
from orbitpoly.group import root_data
from orbitpoly.numerics import DEFAULT_TOL, Tolerance, is_orthogonal


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
    """``group_images`` with the elements formed by ``helpers.group_elements_reference``."""
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


def _section(model, seed):
    return polar._section(model, seed, DEFAULT_TOL)


def _weyl_group(model, seed):
    return polar._weyl(model, seed, DEFAULT_TOL)[0]


def test_cartan_orthogonality_polar_models(so3, sym3):
    # B X_t B^T vanishes to rounding on the computed section.
    for model in (so3, sym3):
        for seed in (0, 5, 42):
            report = polar.check_cartan_orthogonality(model, seed=seed)
            assert report.passed
            assert report.max_violation <= 1e-15
            assert (report.n_samples, report.seed) == (0, seed)


def test_cartan_orthogonality_hopf_fails(hopf):
    # J maps the plane orthogonal to p and J p onto itself, and |J|_2 = 1.
    for seed in (0, 5, 42):
        report = polar.check_cartan_orthogonality(hopf, seed=seed)
        assert not report.passed
        assert abs(report.max_violation - 1.0) <= 1e-15


def test_nonpolar_control_fails_orthogonality():
    # SO(3) on R^3 + R^3: nu_p has a section's dimension, the tangents turn
    # against it, and there are no roots to compute.
    control = helpers.so3_on_r3_plus_r3()
    verdict, reports = polar.run_battery(control, seed=3)
    orthogonality = reports["cartan_orthogonality"]
    assert verdict is False
    assert not orthogonality.passed
    assert 0.9 < orthogonality.max_violation < 1.0
    assert orthogonality.details == {"section_dim": 3, "principal_orbit_dim": 3}
    assert reports["projection_matches_weyl_hull"] == {"skipped": "no section: cartan_orthogonality failed"}
    assert reports["weyl_is_coxeter"] is None


@pytest.mark.parametrize("seed", [5, 7, 42, 1001])
def test_cartan_orthogonality_matches_reference(so3, sym3, hopf, seed):
    control = helpers.so3_on_r3_plus_r3()
    for model in (so3, hopf, control):
        reference = helpers.check_cartan_orthogonality_reference(model.algebra, _section(model, seed).basis)
        assert abs(polar.check_cartan_orthogonality(model, seed=seed).max_violation - reference) <= 1e-15
    assert polar.check_cartan_orthogonality(control, seed=seed).max_violation > 1e-2
    # On sym3 the reference's tangents are the commutators, which differ
    # from the algebra only by rounding.
    reference = helpers.check_cartan_orthogonality_reference(
        sym3.algebra, _section(sym3, seed).basis, helpers.sym3_tangent
    )
    assert abs(polar.check_cartan_orthogonality(sym3, seed=seed).max_violation - reference) <= 1e-14


def _in_basis(model, q):
    """The model in the coordinates x' = q x, where each element g acts as q g q^T."""
    return polar.GroupModel(model.name, q @ model.algebra @ q.T)


@pytest.mark.parametrize("seed", [5, 7, 42, 1001])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_cartan_orthogonality_in_rotated_bases(name, seed):
    model = polar.get_model(name)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((model.ambient_dim,) * 2))
    rotated = _in_basis(model, q)
    report = polar.check_cartan_orthogonality(rotated, seed=seed)
    assert report.passed
    assert report.max_violation <= 1e-15
    reference = helpers.check_cartan_orthogonality_reference(rotated.algebra, _section(rotated, seed).basis)
    assert abs(report.max_violation - reference) <= 1e-15


@pytest.mark.parametrize(
    "name, dims", [("so3_standard", (2, 1)), ("sym3_traceless", (3, 2)), ("hopf_circle", (1, 3))]
)
def test_cohomogeneity_of_models(name, dims):
    # (principal orbit dim, section dim): nu_p is the orthogonal complement
    # of the tangents at the regular p, and holds p.
    model = polar.get_model(name)
    report = polar.check_cartan_orthogonality(model, seed=5)
    assert report.details == {"principal_orbit_dim": dims[0], "section_dim": dims[1]}
    section = _section(model, 5)
    assert np.max(np.abs(section.basis @ section.basis.T - np.eye(dims[1]))) <= 1e-15
    assert np.max(np.abs(section.basis @ (model.algebra @ section.point).T)) <= 1e-14
    p = section.point
    assert np.linalg.norm(p - section.basis.T @ (section.basis @ p)) <= 1e-14 * np.linalg.norm(p)


def test_cohomogeneity_of_another_axis(so3):
    # The section of SO(3) through p is the line of p, another axis at each seed.
    for seed in (0, 5, 42):
        section = _section(so3, seed)
        p = section.point / np.linalg.norm(section.point)
        assert abs(abs(float(section.basis[0] @ p)) - 1.0) <= 1e-15
        assert polar.check_cartan_orthogonality(so3, seed=seed).passed


@pytest.mark.parametrize("seed", [0, 3, 42, 117])
def test_sym3_section_is_the_commutant(sym3, seed):
    # nu_p is the traceless symmetric matrices that commute with sym_mat(p).
    section = _section(sym3, seed)
    reference = helpers.sym3_section_reference(section.point)
    assert np.max(np.abs(section.basis.T @ section.basis - reference.T @ reference)) <= 1e-14


@pytest.mark.parametrize("seed", [0, 3, 42, 117])
def test_sym3_weyl_group_permutes_the_eigenvalues(sym3, seed):
    # The computed W has order 6, with 3 reflections, and W p is p's
    # eigenvalues in all 6 orders on p's eigenvectors.
    weyl = _weyl_group(sym3, seed)
    assert weyl.order == 6
    assert len(root_data(weyl).normals) == 3
    section = _section(sym3, seed)
    orbit = (weyl.stack @ (section.basis @ section.point)) @ section.basis
    expected = helpers.sym3_weyl_orbit_reference(section.point, section.point)
    assert helpers.match_point_sets(orbit, expected, eps=1e-12)


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_so3_weyl_group_is_the_sign_flip(so3, seed):
    weyl = _weyl_group(so3, seed)
    assert helpers.match_point_sets(weyl.stack.reshape(-1, 1), helpers.SO3_WEYL.reshape(-1, 1), eps=1e-15)


@pytest.mark.parametrize("seed", [0, 3, 42])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_root_elements_act_as_reflections(name, seed):
    # exp(pi / |X_a a| X_a) maps the section onto itself and acts there as
    # the reflection in a, one element per mirror of W.  Over seeds 0-199
    # the action is a reflection to 1.6e-15 and the section leaks by up to
    # 1.05e-13 (sym3 seed 3), where two eigenvalues of P(h) lie close.
    model = polar.get_model(name)
    section = _section(model, seed)
    weyl, elements = polar._weyl(model, seed, DEFAULT_TOL)
    mirrors = [weyl.stack[r.element_index] for r in weyl._reflections]
    assert len(elements) == len(mirrors)
    basis = section.basis
    for g in elements:
        assert np.max(np.abs(g @ g.T - np.eye(model.ambient_dim))) <= 1e-14
        acting = basis @ g @ basis.T
        assert np.max(np.abs(g @ basis.T - basis.T @ acting)) <= 1e-12
        assert min(np.max(np.abs(acting - m)) for m in mirrors) <= 1e-14


@pytest.mark.parametrize("seed", [0, 1, 3, 42])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_roots_need_no_invariant_metric(name, seed):
    # The algebra in a basis mixed by a non-orthogonal matrix: the ratios
    # P_i are no longer symmetric, and the frame of so3 is no longer
    # orthogonal to the stabiliser, yet the roots, W and its realizations
    # are the same.  At seed 1 rounding splits so3's double eigenvalue
    # into a complex pair.
    model = polar.get_model(name)
    mix = np.eye(3) + 0.8 * np.random.default_rng(seed).standard_normal((3, 3))
    skewed = polar.GroupModel(name, np.tensordot(mix, model.algebra, axes=1))
    verdict, reports = polar.run_battery(skewed, seed=seed)
    assert verdict is True
    details = reports["projection_matches_weyl_hull"].details
    assert details["weyl_order"] == {"so3_standard": 2, "sym3_traceless": 6}[name]
    assert details["realized_vertices"] == details["hull_vertices"] == details["weyl_order"]
    assert details["vertex_realization_error"] <= 1e-13


@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless", "hopf_circle", "so3_on_r3_plus_r3"])
def test_battery_survives_a_change_of_basis(name):
    # Polarity, the section's dimension, the Weyl group and the orbit
    # dimensions are properties of the action, not of the coordinates it is
    # written in: the algebra conjugated by a seeded orthogonal q.
    model = helpers.so3_on_r3_plus_r3() if name == "so3_on_r3_plus_r3" else polar.get_model(name)
    q, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((model.ambient_dim,) * 2))
    verdict, reports = polar.run_battery(model, seed=42)
    q_verdict, q_reports = polar.run_battery(_in_basis(model, q), seed=42)
    assert q_verdict == verdict
    assert q_reports["cartan_orthogonality"].details == reports["cartan_orthogonality"].details
    obstruction = "minkowski_dimension_obstruction"
    assert q_reports[obstruction].details == reports[obstruction].details
    for key, report in reports.items():
        if isinstance(report, polar.PolarCheckReport):
            assert q_reports[key].passed == report.passed, key
        else:
            assert q_reports[key] == report, key
    if verdict:
        weyl = "projection_matches_weyl_hull"
        assert q_reports[weyl].details["weyl_order"] == reports[weyl].details["weyl_order"]


# sym3's Cartan point at seed 117 had eigenvalues 0.40822 and 0.40828 on the
# unit orbit, a near-double eigenvalue where ascent rows meet saddles of
# small curvature.  These tests keep that point, in the computed section's
# chamber of p: eigenvalues in ascending order on p's ascending eigenvectors.
_NEAR_DOUBLE_SEED = 117
_NEAR_DOUBLE = (-0.8165, 0.40822, 0.40828)


def _point(model, seed):
    """The Weyl-hull check's a at seed: p, or sym3's near-double point at seed 117."""
    p = _section(model, seed).point
    if model.name == "sym3_traceless" and seed == _NEAR_DOUBLE_SEED:
        return helpers.sym3_section_point(p, _NEAR_DOUBLE)
    return p


def test_projection_hull_so3(so3):
    a = 1.5 * _section(so3, 7).point / np.linalg.norm(_section(so3, 7).point)
    report = polar.check_projection_matches_weyl_hull(so3, a=a, seed=7)
    assert report.passed
    assert report.n_samples == polar._WEYL_HULL_STARTS
    assert report.details["weyl_order"] == report.details["hull_vertices"] == 2
    assert report.details["realized_vertices"] == 2
    assert report.details["max_gradient_norm"] <= polar._ASCENT_GRADIENT_CUT


def test_projection_hull_sym3_with_majorization_oracle(sym3):
    # Base eigenvalues (1, 0, -1) on p's eigenvectors: the projections of its
    # conjugates onto the section must be majorized by them.
    p = _section(sym3, 7).point
    a = helpers.sym3_section_point(p, [1.0, 0.0, -1.0])
    report = polar.check_projection_matches_weyl_hull(sym3, a=a, seed=7)
    assert report.passed
    assert report.details["hull_vertices"] == 6  # hexagon of the 6 permutations

    basis = _section(sym3, 7).basis
    vectors = np.linalg.eigh(polar.sym_mat(p))[1]
    for img in polar.group_images(sym3, 23, 500, a[None])[0]:
        diag = np.diag(vectors.T @ polar.sym_mat((img @ basis.T) @ basis) @ vectors)
        assert helpers.in_permutohedron(diag, [1.0, 0.0, -1.0], eps=1e-8)


def _hull_rows(model, a, seed):
    """The check's (direction, offset) rows: the Weyl group's root-data rows and their supports at a / |a|."""
    basis = _section(model, seed).basis
    roots = root_data(_weyl_group(model, seed))
    return roots.rows @ basis, roots.support(basis @ (a / (np.linalg.norm(a) or 1.0)))


@pytest.mark.parametrize("seed", range(50))
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_root_data_rows_are_the_qhull_facets(name, seed):
    # At a regular a every root-data row is a facet of hull(W a / |a|), so
    # Qhull's facets and the rows match one to one, within eps_eq.
    model = polar.get_model(name)
    a = _section(model, seed).point
    weyl_hull, facets, facet_offsets = helpers.weyl_hull_rows_reference(
        _weyl_group(model, seed).stack, _section(model, seed).basis, a
    )
    directions, offsets = _hull_rows(model, a, seed)
    assert len(facets) == len(directions) == weyl_hull.n_vertices
    eps = DEFAULT_TOL.eps_eq
    for facet, offset in zip(facets, facet_offsets):
        match = np.flatnonzero(np.abs(directions - facet).max(axis=1) <= eps)
        assert len(match) == 1
        assert abs(offsets[match[0]] - offset) <= eps


def _unit_starts(model, a, seed):
    """The check's starts over |a|: seeded images of a, and the realized Weyl vertices of a / |a|."""
    size = np.linalg.norm(a)
    weyl, elements = polar._weyl(model, seed, DEFAULT_TOL)
    realized = polar._realized_orbit(elements, a / size, weyl.order, DEFAULT_TOL)
    images = polar.group_images(model, seed + 1, polar._WEYL_HULL_STARTS, a[None])[0]
    return np.concatenate([images / size, realized])


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
    # The facet rows of a section point's Weyl hull, and seeded directions
    # from a seeded point off the section.
    model = polar.get_model(name)
    rng = np.random.default_rng(seed)
    a = _point(model, seed)
    directions, _ = _hull_rows(model, a, seed)
    b = rng.standard_normal(model.ambient_dim)
    for point, dirs in ((a, directions), (b, _unit_rows(rng, 6, model.ambient_dim))):
        maxima = _orbit_maxima(model, point, dirs, seed)
        assert np.max(np.abs(maxima - _analytic_maxima(model, point, dirs))) <= 1e-10


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_ascent_on_a_point_with_a_double_eigenvalue(sym3, seed):
    # Eigenvalues (1, 1, -2) have 3 Weyl images, so the hull is a triangle,
    # and the orbit is a 2-dim singular one; the ascent still reaches the
    # maxima.  Three of the six root-data rows are the triangle's facets,
    # and the other three touch it at a vertex.
    section = _section(sym3, seed)
    a = 1.3 * helpers.sym3_section_point(section.point, np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0))
    report = polar.check_projection_matches_weyl_hull(sym3, a=a, seed=seed)
    assert report.passed
    assert report.details["hull_vertices"] == report.details["realized_vertices"] == 3
    assert len(helpers.weyl_hull_rows_reference(_weyl_group(sym3, seed).stack, section.basis, a)[1]) == 3
    directions, offsets = _hull_rows(sym3, a, seed)
    assert len(directions) == 6
    maxima = _orbit_maxima(sym3, a, directions, seed)
    assert np.max(np.abs(maxima - _analytic_maxima(sym3, a, directions))) <= 1e-10
    assert np.max(np.abs(maxima - np.linalg.norm(a) * offsets)) <= 1e-10
    dirs = _unit_rows(np.random.default_rng(seed), 6, 5)
    assert np.max(np.abs(_orbit_maxima(sym3, a, dirs, seed) - _analytic_maxima(sym3, a, dirs))) <= 1e-10


def _off_the_section(model, eps):
    """The section point at seed 5, and the point eps |a| off it along a seeded unit normal to that section."""
    section = _section(model, 5)
    normal = np.random.default_rng(3).standard_normal(model.ambient_dim)
    normal -= section.basis.T @ (section.basis @ normal)
    a = section.point
    return a, a + eps * np.linalg.norm(a) * normal / np.linalg.norm(normal)


@pytest.mark.parametrize("eps", [1e-3, 3e-4])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_projection_hull_fails_off_the_section(name, eps):
    # The chart of the tilted point is a's, so its Weyl hull is a's, but its
    # orbit is larger: the projection leaves the hull by a gap second order
    # in eps, 4e-8 to 7e-7 here, which 10^5 sampled rotations never reached.
    # Each facet's offset is the height of a, and the orbit's maximum that
    # of the tilted point.
    model = polar.get_model(name)
    a, tilted = _off_the_section(model, eps)
    directions, _ = _hull_rows(model, a, 5)
    gap = float(np.max(_analytic_maxima(model, tilted, directions) - _analytic_maxima(model, a, directions)))
    report = polar.check_projection_matches_weyl_hull(model, a=tilted, seed=5)
    assert gap > 3.0 * report.threshold
    assert not report.passed
    assert abs(report.max_violation - gap) <= 1e-9
    assert report.details["max_gradient_norm"] <= polar._ASCENT_GRADIENT_CUT


@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_projection_facet_residual_matches_row_wise(name):
    # The (facet x start) batch gives each facet the best of its rows run
    # one at a time, and max_violation is the largest facet residual: a
    # point in the section passes, one off it fails by that residual.
    model = polar.get_model(name)
    seed = 5
    algebra = model.algebra
    # Not p itself, which default_rng(seed) would draw again.
    off_subspace = np.random.default_rng(seed + 1).standard_normal(model.ambient_dim)
    for a, passes in ((_section(model, seed).point, True), (off_subspace, False)):
        report = polar.check_projection_matches_weyl_hull(model, a=a, seed=seed)
        assert report.passed == passes
        directions, offsets = _hull_rows(model, a, seed)
        size = np.linalg.norm(a)
        starts = _unit_starts(model, a, seed)
        row_wise = np.array(
            [max(polar._ascend(algebra, start[None], n[None])[0][0] for start in starts) for n in directions]
        )
        residual = size * (row_wise - offsets)
        assert abs(report.max_violation - max(float(residual.max()), 0.0)) <= 1e-12 * size


def test_projection_hull_zero_point(sym3):
    # K 0 = {0}: a one-vertex hull, cut out by the six root-data rows of A2
    # at offset 0, which Qhull's hull gives as both signs of both chart
    # directions; every height is 0.
    report = polar.check_projection_matches_weyl_hull(sym3, a=np.zeros(5), seed=7)
    assert report.passed
    assert report.max_violation == 0.0
    assert report.details["hull_vertices"] == report.details["realized_vertices"] == 1
    assert report.details["ascent_steps"] == 0
    directions, offsets = _hull_rows(sym3, np.zeros(5), 7)
    assert len(directions) == 6 and not offsets.any()
    _, facets, facet_offsets = helpers.weyl_hull_rows_reference(
        _weyl_group(sym3, 7).stack, _section(sym3, 7).basis, np.zeros(5)
    )
    assert len(facets) == 4 and not facet_offsets.any()


@pytest.mark.parametrize("seed", [0, 7, 42, 117])
@pytest.mark.parametrize("name", ["so3_standard", "sym3_traceless"])
def test_projection_hull_is_scale_free(name, seed):
    # The check runs on the orbit of a / |a|: scaling a changes neither the
    # verdict nor the steps, and scales max_violation and threshold with it.
    model = polar.get_model(name)
    a = _point(model, seed)
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
    # At the near-double point rows starting near its saddle are still
    # moving when the batch stops at the step cap; the check passes on the
    # rows that reached each maximum.
    report = polar.check_projection_matches_weyl_hull(sym3, a=_point(sym3, seed), seed=seed)
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
    section = _section(sym3, 43)
    for img in polar.group_images(sym3, 41, 500, section.point[None])[0]:
        proj = (img @ section.basis.T) @ section.basis
        assert abs(np.trace(polar.sym_mat(proj))) <= 1e-10


def test_weyl_group_is_coxeter(so3, sym3):
    for seed in (0, 42):
        assert polar.weyl_is_coxeter(so3, seed)
        assert polar.weyl_is_coxeter(sym3, seed)


def test_dimension_obstruction_hopf(hopf):
    report = polar.sp_falsify_nonpolar(hopf, seed=3)
    assert not report.passed
    assert report.n_samples == 0
    assert report.details["sum_affine_dim"] == 4
    assert report.details["orbit_affine_dims"] == [2] * 6
    assert report.details["sp_impossible"]


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-3, 1.0, 1e3, 1e6])
def test_dimension_obstruction_is_scale_free(hopf, c):
    # Each orbit's span starts from p / |p|, so a tiny pair of circles still
    # sums to a 4-dim set; sampled orbits of 1e-12 points fell under the rank cut.
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal((2, 4))
    report = polar.sp_falsify_nonpolar(hopf, u=c * u, v=c * v, seed=3)
    assert report.details["sum_affine_dim"] == 4
    assert not report.passed


def test_dimension_obstruction_absent_for_polar(so3, sym3):
    # A generic SO(3) orbit spans its ambient space affinely, as does every sum.
    for model in (so3, sym3):
        report = polar.sp_falsify_nonpolar(model, seed=3)
        assert report.passed
        assert report.details["orbit_affine_dims"] == [model.ambient_dim] * 6
        assert report.details["sum_affine_dim"] == model.ambient_dim


def test_orbit_span_is_the_span_of_orbit_differences(sym3):
    # aff(K p) - p is spanned by the differences k p - p; a singular point,
    # diag(1, 1, -2), spans the whole irreducible 5-space too.
    for p in (_section(sym3, 3).point, polar.sym_vec(np.diag([1.0, 1.0, -2.0]))):
        span = polar._orbit_span(sym3.algebra, p, DEFAULT_TOL)
        differences = polar.group_images(sym3, 5, 40, p[None])[0] - p
        assert np.linalg.matrix_rank(differences, tol=1e-8) == len(span) == 5
    assert polar._orbit_span(sym3.algebra, np.zeros(5), DEFAULT_TOL).shape == (0, 5)


def test_dimension_obstruction_zero_summand(hopf):
    u = np.zeros(4)
    v = np.array([0.0, 0.0, 1.0, 0.0])
    report = polar.sp_falsify_nonpolar(hopf, u=u, v=v, seed=3)
    assert report.passed  # sum equals one orbit hull, no obstruction
    assert report.details["sum_affine_dim"] == 2


def test_battery_verdicts():
    for name, expected in (("so3_standard", True), ("sym3_traceless", True), ("hopf_circle", False)):
        verdict, _ = polar.run_battery(polar.get_model(name), seed=42)
        assert verdict == expected


def test_battery_memory_is_bounded(sym3):
    # The battery's only draws are the ascent's 4 starts, and the ascent
    # holds a few dozen rows: its traced peak was 0.4 MB (numpy 2.4).  The
    # traced run is on a new model, which no cached section serves.
    polar.run_battery(sym3)  # warm caches untraced
    tracemalloc.start()
    try:
        polar.run_battery(polar.sym3_traceless())
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
