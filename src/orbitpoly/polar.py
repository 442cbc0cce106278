"""Compact connected group models and numeric polar-structure checks.

A model is its Lie algebra: a basis of matrices acting on the ambient
space, with analytic Cartan/Weyl data; there is no general Lie-theory
engine.  A compact connected Lie group is the image of the exponential map
of its Lie algebra (Broecker-tom Dieck, Representations of Compact Lie
Groups, GTM 98), so ``group_images`` draws every group element a check
needs as exp of a seeded algebra element, with no sampler per model.

For a connected group acting orthogonally, a subspace is a section iff the
orbit tangents at its points are orthogonal to it and its dimension is the
codimension of a principal orbit, reached at its points (Dadok, Trans. AMS
288, 1985; Palais-Terng, Trans. AMS 300, 1987).  ``check_cartan_orthogonality``
and ``check_cohomogeneity`` decide the two halves from the Lie algebra, with
no group samples.

``check_projection_matches_weyl_hull`` decides the model's Weyl data: it
compares the projection of K a onto the section with the hull of the Weyl
orbit W a, which Kostant's convexity theorem makes equal for a polar action
(Ann. Sci. ENS 6, 1973).  It needs no sampled containment: for each facet
normal n of the hull it maximises the height <x, n> over K a by an ascent
in the Lie algebra.  Principal orbits of a polar representation are taut
(Hsiang-Palais-Terng, J. Differential Geom. 27, 1988), so a height function
on them has no local maximum that is not global, and the ascent reaches
the support value of the projection.  The other consequences of Kostant's
equality follow from it: K a has norm |a|, and the points of that norm in
hull(W a) are W a, so the orbit meets the section in W a; and the support
of a sum of orbit hulls along a section direction is the sum of two
projection supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Optional

import numpy as np

from . import coxeter
from .errors import NoCartanDataError
from .group import close_generators
from .numerics import DEFAULT_TOL, Tolerance, matrix_rank
from .polytope import hull

# Fixed pass criteria of the checks, each reported as its ``threshold``.
_ORTHOGONALITY_THRESHOLD = 1e-8
_WEYL_HULL_THRESHOLD = 1e-8  # times |a|: the Weyl-hull check is decided on the orbit of a / |a|
_REALIZATION_TOL = 1e-10  # error of the exact Weyl-vertex realizations of a / |a|

# The height ascent of check_projection_matches_weyl_hull, on the orbit of
# a / |a| with unit facet normals, so every cut below is scale-free.
_WEYL_HULL_STARTS = 4  # seeded group elements; the Weyl witnesses start rows too
_ASCENT_GRADIENT_CUT = 1e-10  # a row stops once its gradient norm is at most this
_ASCENT_MAX_STEPS = 100  # the batch stops after this many steps
_ASCENT_MAX_TURN = 1.0  # the largest |xi| of a step, the trust radius a row starts from
_ASCENT_SLACK = 1e-15  # a step is kept unless it lowers the height by more than rounding
_NEWTON_CURVATURE = 1e-8  # Newton steps along Hessian eigenvalues below minus this
_GRADIENT_CURVATURE = 0.1  # gradient steps of 1 / this along the other eigenvectors
_EXP_RADIUS = 0.5  # exp's Taylor series runs on steps scaled below this norm
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def __getattr__(name: str):
    # Nothing here uses scipy.stats, and importing it costs ~0.5 s of every
    # CLI start, more than most theorem2 verdicts.  perfbench/tracing.py
    # still looks this one name up at install, so resolve it on demand.
    # Delete this hook together with that tracer entry point in the next
    # perfbench/ change.
    if name == "special_ortho_group":
        from scipy.stats import special_ortho_group

        return special_ortho_group
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class GroupModel:
    """A compact connected group acting orthogonally, with candidate Cartan data.

    algebra[t] is the matrix X_t of a basis of the Lie algebra acting on the
    ambient space: the rows X_t v of ``algebra @ v`` span the orbit tangent
    space at v, and the group is {exp(sum_t xi_t X_t)} (``group_images``).
    cartan_basis rows are an orthonormal basis of the candidate subspace;
    weyl_elements act on its coordinates and weyl_witnesses are ambient
    group elements realizing them.
    """

    name: str
    ambient_dim: int
    algebra: np.ndarray
    cartan_basis: Optional[np.ndarray]
    weyl_elements: Optional[np.ndarray] = None
    weyl_witnesses: Optional[np.ndarray] = None

    def chart(self, x) -> np.ndarray:
        """Coordinates of (the projection of) an ambient vector in the Cartan chart."""
        return self.cartan_basis @ np.asarray(x, dtype=float)

    def ambient(self, c) -> np.ndarray:
        return np.asarray(c, dtype=float) @ self.cartan_basis

    def cartan_point(self, seed: int) -> np.ndarray:
        """Seeded generic point of the candidate Cartan subspace."""
        if self.cartan_basis is None:
            raise NoCartanDataError(f"model {self.name} has no Cartan data")
        rng = np.random.default_rng(seed)
        return self.ambient(rng.standard_normal(len(self.cartan_basis)))


@dataclass(frozen=True, eq=False)
class PolarCheckReport:
    check: str
    model: str
    passed: bool
    max_violation: float
    threshold: float
    n_samples: int
    seed: int
    details: dict

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "model": self.model,
            "passed": self.passed,
            "max_violation": self.max_violation,
            "threshold": self.threshold,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Symmetric traceless 3x3 matrices as a 5-dim orthogonal representation

def _sym_basis() -> np.ndarray:
    e = np.zeros((5, 3, 3))
    e[0] = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    e[1] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    r2 = 1.0 / np.sqrt(2.0)
    e[2][0, 1] = e[2][1, 0] = r2
    e[3][0, 2] = e[3][2, 0] = r2
    e[4][1, 2] = e[4][2, 1] = r2
    return e


_SYM_BASIS = _sym_basis()


def sym_vec(matrix) -> np.ndarray:
    """Coordinates of a symmetric traceless 3x3 matrix in the orthonormal basis."""
    return np.einsum("iab,ab->i", _SYM_BASIS, np.asarray(matrix, dtype=float))


def sym_mat(coords) -> np.ndarray:
    return np.einsum("i,iab->ab", np.asarray(coords, dtype=float), _SYM_BASIS)


# ---------------------------------------------------------------------------
# Built-in models

_SKEW_BASIS = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)


def so3_standard() -> GroupModel:
    """Rotations of 3-space; candidate subspace is the first coordinate axis.

    The residual Weyl action on the axis is the sign flip, realized by the
    half-turn about the middle axis.
    """
    return GroupModel(
        name="so3_standard",
        ambient_dim=3,
        algebra=_SKEW_BASIS,
        cartan_basis=np.array([[1.0, 0.0, 0.0]]),
        weyl_elements=np.array([[[1.0]], [[-1.0]]]),
        weyl_witnesses=np.array([np.eye(3), np.diag([-1.0, 1.0, -1.0])]),
    )


def _sym3_algebra() -> np.ndarray:
    """X_t[j, i] = coordinate j of the commutator [S_t, E_i], for skew S_t and basis matrix E_i."""
    columns = np.array([[sym_vec(x @ e - e @ x) for x in _SKEW_BASIS] for e in _SYM_BASIS])
    return columns.transpose(1, 2, 0)


def _sym3_weyl() -> tuple[np.ndarray, np.ndarray]:
    """The permutations of the diagonal on chart coordinates, and the signed
    permutation rotations R_w realizing them, each as the 5x5 matrix of A -> R_w A R_w^T."""
    diag_vecs = np.array([np.diag(_SYM_BASIS[0]), np.diag(_SYM_BASIS[1])])  # (2, 3)
    perms = [list(p) for p in permutations((0, 1, 2))]
    # Entry k of row i of diag_vecs[:, p] is diag_vecs[i][p[k]]; w[i, j] = <diag_i, permuted diag_j>.
    elements = np.array([diag_vecs @ diag_vecs[:, p].T for p in perms])
    rotations = np.array([np.eye(3)[p] @ np.diag([np.linalg.det(np.eye(3)[p]), 1.0, 1.0]) for p in perms])
    # witnesses[w, i, j] = <E_i, R_w E_j R_w^T>, the coordinates of the conjugated basis matrix.
    witnesses = np.einsum("iab,wac,jcd,wbd->wij", _SYM_BASIS, rotations, _SYM_BASIS, rotations)
    return elements, witnesses


def sym3_traceless() -> GroupModel:
    """Rotations acting by conjugation on symmetric traceless 3x3 matrices.

    The candidate subspace is the diagonal matrices; the residual Weyl
    action permutes the three diagonal entries and is realized by signed
    permutation rotations.
    """
    elements, witnesses = _sym3_weyl()
    return GroupModel(
        name="sym3_traceless",
        ambient_dim=5,
        algebra=_sym3_algebra(),
        cartan_basis=np.array([sym_vec(_SYM_BASIS[0]), sym_vec(_SYM_BASIS[1])]),
        weyl_elements=elements,
        weyl_witnesses=witnesses,
    )


_HOPF_J = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def hopf_circle() -> GroupModel:
    """Simultaneous plane rotations of R^4 (one circle acting on two planes).

    The documented candidate subspace spans coordinates (x1, x2, y2) with
    coordinate order (x1, y1, x2, y2).  It has the dimension of a section
    (orbits are circles in R^4), but the orbit tangents are not orthogonal
    to it, and no valid Weyl data exists: this is the non-polar negative
    control.
    """
    basis = np.zeros((3, 4))
    basis[0, 0] = 1.0
    basis[1, 2] = 1.0
    basis[2, 3] = 1.0
    return GroupModel(
        name="hopf_circle",
        ambient_dim=4,
        algebra=_HOPF_J[None],
        cartan_basis=basis,
        weyl_elements=None,
        weyl_witnesses=None,
    )


MODEL_BUILDERS = {
    "so3_standard": so3_standard,
    "sym3_traceless": sym3_traceless,
    "hopf_circle": hopf_circle,
}


def get_model(name: str) -> GroupModel:
    try:
        return MODEL_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}"
        ) from None


def with_candidate_basis(model: GroupModel, basis) -> GroupModel:
    """Model with a replacement candidate subspace and no Weyl data.

    The section checks read only the group and the subspace, so they judge
    the new candidate as they would a model's own.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    return replace(model, cartan_basis=basis, weyl_elements=None, weyl_witnesses=None)


# ---------------------------------------------------------------------------
# Checks

def _require_cartan(model: GroupModel):
    if model.cartan_basis is None:
        raise NoCartanDataError(f"model {model.name} has no Cartan data")


def _require_weyl(model: GroupModel):
    _require_cartan(model)
    if model.weyl_elements is None or model.weyl_witnesses is None:
        raise NoCartanDataError(f"model {model.name} has no Weyl data")


def check_cartan_orthogonality(
    model: GroupModel, n_samples: int = 200, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PolarCheckReport:
    """Orbit tangents at candidate-subspace points must be orthogonal to it.

    Reports the worst normalized inner product between a tangent direction
    and a basis direction over seeded subspace points.
    """
    _require_cartan(model)
    basis = model.cartan_basis
    points = np.random.default_rng(seed).standard_normal((n_samples, len(basis))) @ basis
    tangents = np.einsum("si,tji->stj", points, model.algebra)
    norms = np.linalg.norm(tangents, axis=2)
    keep = norms > tol.eps_eq
    overlaps = np.abs(tangents[keep] @ basis.T) / norms[keep][:, None]
    worst = float(overlaps.max()) if overlaps.size else 0.0
    return PolarCheckReport(
        check="cartan_orthogonality",
        model=model.name,
        passed=worst < _ORTHOGONALITY_THRESHOLD,
        max_violation=worst,
        threshold=_ORTHOGONALITY_THRESHOLD,
        n_samples=n_samples,
        seed=seed,
        details={},
    )


def check_cohomogeneity(
    model: GroupModel, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PolarCheckReport:
    """The candidate subspace must have the dimension of a section, reached on it.

    The principal orbit dimension is the rank of the tangents X v at one
    seeded Gaussian v, which is regular with probability one.  A section
    has dimension dim V minus that and meets the principal orbits, so a
    generic point of the candidate subspace has a principal orbit too.
    Nothing is sampled from the group: the dimensions are exact up to the
    rank cut.  ``max_violation`` is the gap in dimensions.
    """
    _require_cartan(model)
    v = np.random.default_rng(seed).standard_normal(model.ambient_dim)
    principal = matrix_rank(model.algebra @ v, tol)
    in_candidate = matrix_rank(model.algebra @ model.cartan_point(seed), tol)
    candidate = len(model.cartan_basis)
    gap = abs(model.ambient_dim - principal - candidate) + abs(principal - in_candidate)
    return PolarCheckReport(
        check="cohomogeneity",
        model=model.name,
        passed=gap == 0,
        max_violation=float(gap),
        threshold=0.0,
        n_samples=1,
        seed=seed,
        details={
            "principal_orbit_dim": principal,
            "candidate_dim": candidate,
            "orbit_dim_in_candidate": in_candidate,
        },
    )


def _taylor_terms(bound: float) -> int:
    """Fewest Taylor terms k of exp with bound^(k+1) / (k+1)! below the unit roundoff."""
    k, rest = 1, bound * bound / 2
    while rest > _UNIT_ROUNDOFF:
        k += 1
        rest *= bound / (k + 1)
    return k


def _expm(a: np.ndarray, bound: float) -> np.ndarray:
    """exp of each matrix of a stack whose norms are at most bound.

    Scaling and squaring: the matrices are halved until the bound is below
    _EXP_RADIUS, their Taylor series is summed to the unit roundoff (by
    Horner's rule), and the result is squared back.  For a stack of
    skew-symmetric matrices of a group's Lie algebra the result lies in the
    group to rounding.
    """
    squarings = max(0, math.ceil(math.log2(bound / _EXP_RADIUS))) if bound > 0 else 0
    scaled = a * 0.5**squarings
    terms = _taylor_terms(bound * 0.5**squarings)
    eye = np.eye(a.shape[-1])
    out = eye + scaled / terms
    for j in range(terms - 1, 0, -1):
        out = scaled @ out
        out /= j
        out += eye
    for _ in range(squarings):
        out = out @ out
    return out


def _exp_algebra(xi: np.ndarray, algebra: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """exp(sum_t xi[s, t] X_t) for each row of xi, X_t = algebra[t] and gram[s, t] = <X_s, X_t>_F."""
    dim = algebra.shape[-1]
    bound = math.sqrt(float(((xi @ gram) * xi).sum(axis=1).max()))  # the largest |sum xi_t X_t|_F
    return _expm((xi @ algebra.reshape(len(algebra), dim * dim)).reshape(-1, dim, dim), bound)


def group_images(model: GroupModel, seed: int, count: int, points) -> np.ndarray:
    """count seeded group elements g_s applied to each row p of points: g_s p at [k, s].

    g_s = exp(sum_t xi_st X_t) on the model's algebra, with xi_s uniform in
    [-pi, pi]^dim_k from ``default_rng(seed)``: the same seed and count give
    the same elements.  The elements act through one matmul, so row k of the
    (len(points), count, ambient_dim) result depends only on points[k], bit
    for bit.  The draw is not Haar measure; its callers need only generic
    elements of a connected group.
    """
    algebra = model.algebra
    xi = np.random.default_rng(seed).uniform(-np.pi, np.pi, (count, len(algebra)))
    elements = _exp_algebra(xi, algebra, np.einsum("sij,tij->st", algebra, algebra))
    points = np.asarray(points, dtype=float)
    return np.matmul(elements, points[:, None, :, None])[..., 0]


def _ascend(algebra: np.ndarray, starts: np.ndarray, directions: np.ndarray):
    """Maximise <x, n> over the orbit of the starts, for each row n of directions.

    algebra[t] is the matrix X_t of a Lie algebra basis (``GroupModel.algebra``)
    and the starts are points of one orbit.  Every (direction, start) pair
    is a row of one array batch.  At x the height h(x) = <x, n> has the
    gradient g_t = <X_t x, n> and the Hessian, symmetrised,
    <X_s X_t x, n> = -<X_s n, X_t x>, in the chart xi -> exp(sum xi_t X_t) x.
    A step is Newton's along the Hessian eigenvectors of curvature below
    -_NEWTON_CURVATURE and a gradient step of 1 / _GRADIENT_CURVATURE along
    the rest, which include the stabiliser of x, where the Hessian is
    singular.  A row's step is cut to its trust radius, and a step that
    lowers the height by more than _ASCENT_SLACK is undone and the radius
    cut to a quarter of it; a kept step doubles the radius, up to
    _ASCENT_MAX_TURN.  A row stops once its gradient norm is at most
    _ASCENT_GRADIENT_CUT, and the batch after _ASCENT_MAX_STEPS steps.

    Returns, per direction, the largest height over its rows and the least
    gradient norm among the rows that reach it to within _ASCENT_SLACK (the
    witnesses of a polar action start at the maxima, where rounding alone
    orders the heights), the number of steps the batch took, and the number
    of rows still moving when it stopped (non-zero only at the step cap).
    """
    dim_k, dim = algebra.shape[:2]
    x = np.tile(starts, (len(directions), 1))
    normals = np.repeat(directions, len(starts), axis=0)
    tangent_map = algebra.reshape(dim_k * dim, dim).T  # x @ tangent_map holds the X_t x
    normal_tangents = (normals @ tangent_map).reshape(-1, dim_k, dim)
    gram = np.einsum("sij,tij->st", algebra, algebra)  # |sum xi_t X_t|_F^2 = xi gram xi
    heights = np.einsum("ri,ri->r", x, normals)
    gradient_norms = np.zeros(len(x))
    radius = np.full(len(x), _ASCENT_MAX_TURN)
    rows = np.arange(len(x))
    steps = 0
    while True:
        points, facing = x[rows], normals[rows]
        tangents = (points @ tangent_map).reshape(-1, dim_k, dim)
        gradient = (tangents @ facing[:, :, None])[..., 0]
        norms = np.sqrt((gradient * gradient).sum(axis=1))
        gradient_norms[rows] = norms
        moving = norms > _ASCENT_GRADIENT_CUT
        if not moving.all():
            rows, points, facing, tangents, gradient = (
                v[moving] for v in (rows, points, facing, tangents, gradient)
            )
        if len(rows) == 0 or steps == _ASCENT_MAX_STEPS:
            break
        steps += 1
        products = normal_tangents[rows] @ tangents.transpose(0, 2, 1)
        concavity, eigenvectors = np.linalg.eigh(0.5 * (products + products.transpose(0, 2, 1)))
        along = (gradient[:, None, :] @ eigenvectors)[:, 0]
        along /= np.where(concavity > _NEWTON_CURVATURE, concavity, _GRADIENT_CURVATURE)
        xi = (eigenvectors @ along[:, :, None])[..., 0]
        size = np.sqrt((xi * xi).sum(axis=1))
        reach = radius[rows]
        xi *= np.minimum(1.0, reach / size)[:, None]
        step = _exp_algebra(xi, algebra, gram)
        moved = (step @ points[:, :, None])[..., 0]
        moved_heights = (moved * facing).sum(axis=1)
        kept = moved_heights >= heights[rows] - _ASCENT_SLACK
        x[rows[kept]] = moved[kept]
        heights[rows[kept]] = moved_heights[kept]
        radius[rows] = np.where(
            kept, np.minimum(2.0 * reach, _ASCENT_MAX_TURN), 0.25 * np.minimum(size, reach)
        )
    heights = heights.reshape(len(directions), len(starts))
    top = heights.max(axis=1)
    at_top = heights >= top[:, None] - _ASCENT_SLACK
    return top, np.where(at_top, gradient_norms.reshape(heights.shape), np.inf).min(axis=1), steps, len(rows)


def _weyl_hull_rows(weyl_hull, cartan_basis: np.ndarray):
    """Ambient directions n and offsets c with hull(W a) = {y in the section : <y, n> <= c}.

    One row per facet, plus, when the hull is not full-dimensional, one for
    each sign of each chart direction orthogonal to its affine span, whose
    offset is the span's height there.
    """
    normals, offsets = weyl_hull.facet_normals, weyl_hull.facet_offsets
    n_affine, dim = weyl_hull.affine_dim, weyl_hull.ambient_dim
    if n_affine < dim:
        # QR of [affine basis | I]: the columns after the first n_affine span the complement.
        frame = np.linalg.qr(np.hstack([weyl_hull.affine_basis.T, np.eye(dim)]))[0]
        across = frame[:, n_affine:].T
        across = np.vstack([across, -across])
        normals = np.vstack([normals, across])
        offsets = np.concatenate([offsets, across @ weyl_hull.affine_origin])
    return normals @ cartan_basis, offsets


def check_projection_matches_weyl_hull(
    model: GroupModel,
    a=None,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PolarCheckReport:
    """The projection of K a onto the section is the hull of the Weyl orbit W a.

    Everything is computed on the orbit of the unit point u = a / |a| (u = 0
    for a = 0), so the verdict is scale-free: the ascent's cuts and
    _REALIZATION_TOL bound values on that orbit, and the reported
    ``threshold`` is _WEYL_HULL_THRESHOLD times |a| (times 1 at a = 0).
    Containment is decided by maximising, over K u, the height <x, N> along
    each facet normal N of hull(W u) lifted to the ambient space (and along
    the directions off the hull's affine span, when it has one), with
    ``_ascend``.  Its starts are _WEYL_HULL_STARTS seeded images of u and
    the Weyl witnesses' images.  A principal orbit of a polar action is
    taut, so an ascent that reaches a critical point has found the maximum.
    ``max_violation`` is |a| times the largest amount max_K <k u, N> - c_N
    by which a height passes its facet's offset, or 0;
    ``max_gradient_norm`` is the largest over the facets of the gradient
    norm at a row reaching the facet's maximum, which must be at most
    _ASCENT_GRADIENT_CUT for a pass; ``rows_at_step_cap`` counts the rows
    still moving when the batch hit _ASCENT_MAX_STEPS.  The reverse
    containment is exact: each Weyl vertex is realized as the projection of
    its own witness image.
    """
    _require_weyl(model)
    if a is None:
        a = model.cartan_point(seed)
    a = np.asarray(a, dtype=float)
    size = float(np.linalg.norm(a))
    norm = size or 1.0  # K 0 = {0}: its heights are 0, and a zero start stops at once.
    unit_chart = model.chart(a / norm)
    vertices = np.array([w @ unit_chart for w in model.weyl_elements])
    weyl_hull = hull(vertices, tol)
    directions, offsets = _weyl_hull_rows(weyl_hull, model.cartan_basis)

    starts = np.concatenate(
        [group_images(model, seed + 1, _WEYL_HULL_STARTS, a[None])[0], model.weyl_witnesses @ a]
    ) / norm
    heights, gradient_norms, steps, at_cap = _ascend(model.algebra, starts, directions)
    violation = size * max(0.0, float(np.max(heights - offsets)))
    threshold = _WEYL_HULL_THRESHOLD * norm
    worst_gradient = float(gradient_norms.max())
    realization = max(
        float(np.max(np.abs(model.chart(image) - vertex)))
        for image, vertex in zip(starts[_WEYL_HULL_STARTS:], vertices)
    )

    return PolarCheckReport(
        check="projection_matches_weyl_hull",
        model=model.name,
        passed=(
            violation <= threshold
            and realization <= _REALIZATION_TOL
            and worst_gradient <= _ASCENT_GRADIENT_CUT
        ),
        max_violation=violation,
        threshold=threshold,
        n_samples=_WEYL_HULL_STARTS,
        seed=seed,
        details={
            "hull_vertices": int(weyl_hull.n_vertices),
            "vertex_realization_error": realization,
            "max_gradient_norm": worst_gradient,
            "ascent_steps": steps,
            "rows_at_step_cap": at_cap,
        },
    )


def sp_falsify_nonpolar(
    model: GroupModel,
    u=None,
    v=None,
    n_group_samples: int = 64,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PolarCheckReport:
    """Dimension obstruction to the semigroup property.

    If the Minkowski sum of two sampled orbit hulls has a strictly larger
    affine dimension than every sampled orbit hull, the sum cannot be an
    orbit hull and the semigroup property fails.
    """
    if u is None or v is None:
        rng = np.random.default_rng(seed + 9)
        u = rng.standard_normal(model.ambient_dim)
        v = rng.standard_normal(model.ambient_dim)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    # u, v and four seeded points, each with its sampled images and itself.
    rng = np.random.default_rng(seed + 10)
    points = np.vstack([u, v, rng.standard_normal((4, model.ambient_dim))])
    orbits = np.concatenate(
        [group_images(model, seed, n_group_samples, points), points[:, None, :]], axis=1
    )
    orbit_u, orbit_v = orbits[0], orbits[1]
    sums = (orbit_u[:, None, :] + orbit_v[None, :, :]).reshape(-1, model.ambient_dim)
    sum_dim = matrix_rank(sums - sums.mean(axis=0), tol)

    orbit_dims = [matrix_rank(o - o.mean(axis=0), tol) for o in orbits]
    max_orbit_dim = max(orbit_dims)
    sp_impossible = sum_dim > max_orbit_dim

    return PolarCheckReport(
        check="minkowski_dimension_obstruction",
        model=model.name,
        passed=not sp_impossible,
        max_violation=float(sum_dim - max_orbit_dim),
        threshold=0.0,
        n_samples=n_group_samples,
        seed=seed,
        details={
            "sum_affine_dim": sum_dim,
            "max_orbit_affine_dim": max_orbit_dim,
            "orbit_affine_dims": orbit_dims,
            "sp_impossible": sp_impossible,
        },
    )


def weyl_is_coxeter(model: GroupModel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Close the Weyl elements into a finite group and test reflection generation."""
    _require_weyl(model)
    weyl_group = close_generators(
        list(model.weyl_elements), tol=tol, name=f"weyl({model.name})"
    )
    return coxeter.is_reflection_generated(weyl_group)


def run_battery(
    model: GroupModel, seed: int = 42, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Full check battery for one model; returns (verdict, reports).

    The verdict is the AND of the five checks: the candidate is a section
    (``cartan_orthogonality``, ``cohomogeneity``), no dimension obstruction
    falsifies SP, and the model's Weyl data is the action's
    (``projection_matches_weyl_hull``) with a reflection-generated Weyl
    group (the hypothesis under which orbit hulls form a Minkowski
    semigroup).  A model without Weyl data is not verified.
    """
    reports: dict[str, object] = {}
    reports["cartan_orthogonality"] = check_cartan_orthogonality(model, 200, seed, tol)
    reports["cohomogeneity"] = check_cohomogeneity(model, seed, tol)
    reports["minkowski_dimension_obstruction"] = sp_falsify_nonpolar(model, seed=seed, tol=tol)

    has_weyl = model.weyl_elements is not None and model.weyl_witnesses is not None
    if has_weyl:
        reports["projection_matches_weyl_hull"] = check_projection_matches_weyl_hull(
            model, seed=seed, tol=tol
        )
        reports["weyl_is_coxeter"] = weyl_is_coxeter(model, tol)
    else:
        reports["projection_matches_weyl_hull"] = {"skipped": "no Weyl data"}
        reports["weyl_is_coxeter"] = None

    verdict = (
        reports["cartan_orthogonality"].passed
        and reports["cohomogeneity"].passed
        and reports["minkowski_dimension_obstruction"].passed
        and has_weyl
        and bool(reports["weyl_is_coxeter"])
        and reports["projection_matches_weyl_hull"].passed
    )
    return verdict, reports
