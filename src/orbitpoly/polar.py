"""Compact connected group models and exact polar-structure checks.

A model is its name and its Lie algebra, a basis of matrices X_t acting on
the ambient space.  A compact connected Lie group is the image of the
exponential map of its Lie algebra (Broecker-tom Dieck, GTM 98), so
``group_images`` draws group elements as exp of seeded algebra elements;
only the Weyl-hull ascent draws any, as its starts.

Everything else is computed from the algebra at a seeded Gaussian point p.
The normal space nu_p of the orbit K p holds p, and every orbit meets it: a
point of K x nearest p is normal there to K x, so it is orthogonal to the
tangents X_t p.  For a regular p, nu_p has the codimension of a principal
orbit.  So nu_p is a section exactly when the orbit tangents at its points
are orthogonal to it (Dadok, Trans. AMS 288, 1985; Palais-Terng, Trans. AMS
300, 1987), which ``check_cartan_orthogonality`` decides from the algebra.

The Weyl group of a polar representation is generated by the reflections
in its restricted roots.  For H in the section, the tangent map M(H): X ->
X H is lambda(H) times one fixed isomorphism on each root space k_lambda
(Helgason, Differential Geometry, Lie Groups, and Symmetric Spaces, 1978,
ch. VII).  So the operators P_i = M(p)^+ M(b_i), for the section's basis
rows b_i, act on k / ker M(p) with the joint eigenvalues lambda(b_i) /
lambda(p): each joint eigenvector gives one root up to scale, and no
invariant metric is needed (``_weyl``).  An eigenvector X_a of the root a
turns the plane of a and X_a a, and fixes the rest of the section, so exp(pi
/ |X_a a| X_a), for a unit a, is a group element acting on the section as
the reflection in a.

``check_projection_matches_weyl_hull`` checks the computed Weyl data: the
projection of K a onto the section is the hull of W a, by Kostant's
convexity theorem (Ann. Sci. ENS 6, 1973), and the root-data rows of W cut
out that hull.  Along each row the check maximises the height over K a by
an ascent in the Lie algebra; principal orbits of a polar representation
are taut (Hsiang-Palais-Terng, J. Differential Geom. 27, 1988), so the
ascent's critical point is the maximum.  The other consequences of
Kostant's equality follow from it: K a has norm |a|, and the points of that
norm in hull(W a) are W a, so the orbit meets the section in W a; and the
support of a sum of orbit hulls along a section direction is the sum of
two projection supports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import coxeter
from .group import FiniteGroup, close_generators
from .numerics import DEFAULT_TOL, Tolerance, distinct_rows, matrix_rank

# Fixed pass criteria of the checks, each reported as its ``threshold``.
_ORTHOGONALITY_THRESHOLD = 1e-8
_WEYL_HULL_THRESHOLD = 1e-8  # times |a|: the Weyl-hull check is decided on the orbit of a / |a|
_REALIZATION_TOL = 1e-10  # error of the realized Weyl vertices of a / |a|

# The height ascent of check_projection_matches_weyl_hull, on the orbit of
# a / |a| with unit facet normals, so every cut below is scale-free.
_WEYL_HULL_STARTS = 4  # seeded group elements; the realized Weyl vertices start rows too
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
    """A compact connected group acting orthogonally, given by its Lie algebra.

    algebra[t] is the matrix X_t of a basis of the Lie algebra acting on the
    ambient space: the rows X_t v of ``algebra @ v`` span the orbit tangent
    space at v, and the group is {exp(sum_t xi_t X_t)} (``group_images``).
    The section, the roots and the Weyl group are computed from it.
    """

    name: str
    algebra: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.algebra.shape[-1]


@dataclass(frozen=True, eq=False)
class PolarCheckReport:
    """One check's outcome at the battery's seed."""

    check: str
    model: str
    passed: bool
    max_violation: float
    threshold: float
    n_samples: int
    details: dict
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Rotations of 3-space: a section is a line through 0, and W its sign flip."""
    return GroupModel(name="so3_standard", algebra=_SKEW_BASIS)


def sym3_traceless() -> GroupModel:
    """Rotations acting by conjugation on symmetric traceless 3x3 matrices.

    X_t[j, i] is coordinate j of the commutator [S_t, E_i], for the skew S_t
    and the basis matrix E_i.  The section through a matrix with distinct
    eigenvalues is the traceless matrices commuting with it, and W permutes
    their eigenvalues.
    """
    columns = np.array([[sym_vec(x @ e - e @ x) for x in _SKEW_BASIS] for e in _SYM_BASIS])
    return GroupModel(name="sym3_traceless", algebra=columns.transpose(1, 2, 0))


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

    The orbits are circles, so the normal space of one through p is the
    3-space orthogonal to J p.  J maps the plane orthogonal to p and J p
    onto itself, so the orbit tangents there are not orthogonal to that
    space: this is the non-polar negative control.
    """
    return GroupModel(name="hopf_circle", algebra=_HOPF_J[None])


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


# ---------------------------------------------------------------------------
# The section, roots and Weyl group, computed once per model, seed and tolerance

@dataclass(frozen=True, eq=False)
class _Section:
    """nu_p, and the SVD of the tangent map M: xi -> sum_t xi_t X_t p / |p|.

    M = tangents^T diag(values) frame^T: frame's columns are an orthonormal
    basis of the algebra coordinates orthogonal to the stabiliser ker M,
    kernel's one of the stabiliser, and the tangents span T_p(K p).
    """

    point: np.ndarray  # p, the seeded Gaussian
    basis: np.ndarray  # orthonormal rows spanning nu_p
    frame: np.ndarray
    kernel: np.ndarray
    values: np.ndarray
    tangents: np.ndarray


@lru_cache(maxsize=8)
def _section(model: GroupModel, seed: int, tol: Tolerance) -> _Section:
    """nu_p, for p = default_rng(seed).standard_normal(dim), from one SVD of its tangents."""
    p = np.random.default_rng(seed).standard_normal(model.ambient_dim)
    frame, values, rows = np.linalg.svd(model.algebra @ (p / np.linalg.norm(p)))
    rank = int(np.sum(values > tol.eps_rank))
    return _Section(p, rows[rank:], frame[:, :rank], frame[:, rank:], values[:rank], rows[:rank])


@lru_cache(maxsize=8)
def _weyl(model: GroupModel, seed: int, tol: Tolerance) -> tuple[FiniteGroup, np.ndarray]:
    """The Weyl group on section coordinates, and the group elements realizing its root reflections.

    The operators P_i = M(p)^+ M(b_i) act on the frame's coordinates, and
    commute.  They are diagonalised together through P(h) = sum_i h_i P_i,
    for a seeded Gaussian h of the section; a joint eigenvector's
    eigenvalues, its Rayleigh quotients x P_i x / x x, are its root's
    section coordinates up to scale.  The roots are kept one per mirror, in
    the order of their reflections' rounded entries.  A root's eigenvector
    X_a is shifted by a stabiliser element so that it maps Y = X_a a back to
    -|Y|^2 a: without an invariant metric the frame need not be orthogonal
    to the stabiliser, which moves Y.
    """
    section, algebra = _section(model, seed, tol), model.algebra
    dim, flat = len(section.basis), algebra.reshape(len(algebra), -1)
    ratios = np.einsum("rn,tni,tq->irq", section.tangents, algebra @ section.basis.T, section.frame)
    ratios /= section.values[:, None]
    h = np.random.default_rng(seed + 2).standard_normal(dim)  # seed + 1 draws the ascent's starts
    # LAPACK returns each eigenvector with its largest entry real, so where
    # rounding splits a double eigenvalue into a complex pair, the real part
    # of each vector still lies in the eigenspace.
    vectors = np.linalg.eig(np.einsum("i,irq->rq", h, ratios))[1].real
    roots = np.einsum("rj,irq,qj->ji", vectors, ratios, vectors)
    roots /= np.linalg.norm(roots, axis=1, keepdims=True)
    mirrors = (np.eye(dim) - 2.0 * roots[:, :, None] * roots[:, None, :]).reshape(len(roots), -1)
    kept = distinct_rows(mirrors, tol)
    kept = kept[np.lexsort(np.round(mirrors[kept], tol.round_digits).T[::-1])]

    stabiliser = section.kernel.T @ flat
    elements = []
    for j in kept:
        x = (section.frame @ vectors[:, j] @ flat).reshape(algebra.shape[1:])
        axis = roots[j] @ section.basis
        image = x @ axis
        size = float(np.linalg.norm(image))
        if len(stabiliser):
            moves = (stabiliser.reshape(-1, *x.shape) @ image).T
            shift = np.linalg.lstsq(moves, -size * size * axis - x @ image, rcond=None)[0]
            x = x + (shift @ stabiliser).reshape(x.shape)
        turn = (math.pi / size) * x
        elements.append(_expm(turn, float(np.linalg.norm(turn))))
    weyl = close_generators(mirrors[kept].reshape(-1, dim, dim), tol=tol, name=f"weyl({model.name})")
    return weyl, np.array(elements)


# ---------------------------------------------------------------------------
# Checks

def check_cartan_orthogonality(
    model: GroupModel, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> PolarCheckReport:
    """Orbit tangents at the points of nu_p must be orthogonal to it.

    With B the orthonormal basis rows of nu_p, the tangent X_t B^T c has
    the coordinates B X_t B^T c along it.  Reports max_t |B X_t B^T|_2 /
    |X_t|_2, which does not depend on the basis chosen and is zero exactly
    when every such tangent is orthogonal.  Then nu_p is a section, as
    every orbit meets it and it has the dimension of one.
    """
    section = _section(model, seed, tol)
    basis, algebra = section.basis, model.algebra
    overlaps = np.linalg.norm(basis @ algebra @ basis.T, ord=2, axis=(1, 2))
    worst = float(np.max(overlaps / np.linalg.norm(algebra, ord=2, axis=(1, 2))))
    return PolarCheckReport(
        check="cartan_orthogonality",
        model=model.name,
        passed=worst < _ORTHOGONALITY_THRESHOLD,
        max_violation=worst,
        threshold=_ORTHOGONALITY_THRESHOLD,
        n_samples=0,
        seed=seed,
        details={"section_dim": len(basis), "principal_orbit_dim": len(section.values)},
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
    realized Weyl vertices of a polar action start at the maxima, where
    rounding alone orders the heights), the number of steps the batch took,
    and the number of rows still moving when it stopped (non-zero only at
    the step cap).
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


def _realized_orbit(elements: np.ndarray, u: np.ndarray, order: int, tol: Tolerance) -> np.ndarray:
    """The distinct points of the orbit of u under the group the elements generate.

    The orbit grows by the elements' images of its newest points, and stops
    once it has no new point or more than order points.
    """
    points = frontier = u[None]
    while len(frontier) and len(points) <= order:
        stacked = np.concatenate([points, (frontier @ elements.transpose(0, 2, 1)).reshape(-1, len(u))])
        kept = distinct_rows(stacked, tol)
        frontier, points = stacked[kept[kept >= len(points)]], stacked[kept]
    return points


def check_projection_matches_weyl_hull(
    model: GroupModel,
    a=None,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PolarCheckReport:
    """The projection of K a onto the section nu_p is the hull of the Weyl orbit W a.

    a defaults to p itself.  Everything is computed on the orbit of the
    unit point u = a / |a| (u = 0 for a = 0), so the verdict is scale-free:
    the ascent's cuts and _REALIZATION_TOL bound values on that orbit, and
    the reported ``threshold`` is _WEYL_HULL_THRESHOLD times |a| (times 1 at
    a = 0).  hull(W u) is {y : <y, n> <= c_n} over the root-data rows n of
    the computed Weyl group, c_n their supports at u.  Containment is
    decided by maximising, over K u, the height along each row lifted to
    the ambient space, N = n B, with ``_ascend``, from _WEYL_HULL_STARTS
    seeded images of u and the realized Weyl vertices.  A principal orbit of
    a polar action is taut, so an ascent that reaches a critical point has
    found the maximum.  ``max_violation`` is |a| times the largest amount
    max_K <k u, N> - c_n, or 0; ``max_gradient_norm`` is the largest over the
    rows of the gradient norm at a batch row reaching the row's maximum, at
    most _ASCENT_GRADIENT_CUT for a pass; ``rows_at_step_cap`` counts the
    batch rows still moving at _ASCENT_MAX_STEPS; ``hull_vertices`` counts
    the distinct points of W u.  The reverse containment is exact: the
    orbit of u under the root reflections' group elements is realized, one
    point per Weyl vertex (``realized_vertices``), each within
    ``vertex_realization_error`` of its vertex.
    """
    section = _section(model, seed, tol)
    weyl, elements = _weyl(model, seed, tol)
    roots = coxeter._required_root_data(weyl)
    a = section.point if a is None else np.asarray(a, dtype=float)
    size = float(np.linalg.norm(a))
    norm = size or 1.0  # K 0 = {0}: its heights are 0, and a zero start stops at once.
    unit_chart = section.basis @ (a / norm)
    images = weyl.stack @ unit_chart
    vertices = images[distinct_rows(images, tol)] @ section.basis
    realized = _realized_orbit(elements, a / norm, weyl.order, tol)
    directions, offsets = roots.rows @ section.basis, roots.support(unit_chart)

    starts = np.concatenate([group_images(model, seed + 1, _WEYL_HULL_STARTS, a[None])[0] / norm, realized])
    heights, gradient_norms, steps, at_cap = _ascend(model.algebra, starts, directions)
    violation = size * max(0.0, float(np.max(heights - offsets)))
    threshold = _WEYL_HULL_THRESHOLD * norm
    worst_gradient = float(gradient_norms.max())
    realization = float(np.abs(realized[:, None] - vertices[None]).max(axis=2).min(axis=1).max())

    return PolarCheckReport(
        check="projection_matches_weyl_hull",
        model=model.name,
        passed=(
            violation <= threshold
            and len(realized) == len(vertices)
            and realization <= _REALIZATION_TOL
            and worst_gradient <= _ASCENT_GRADIENT_CUT
        ),
        max_violation=violation,
        threshold=threshold,
        n_samples=_WEYL_HULL_STARTS,
        seed=seed,
        details={
            "weyl_order": weyl.order,
            "hull_vertices": len(vertices),
            "realized_vertices": len(realized),
            "vertex_realization_error": realization,
            "max_gradient_norm": worst_gradient,
            "ascent_steps": steps,
            "rows_at_step_cap": at_cap,
        },
    )


def _orbit_span(algebra: np.ndarray, p: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal rows spanning aff(K p) - p, for K connected: the words X_t1 ... X_tk p, k >= 1.

    The span starts from the words X_t (p / |p|), and X_t is applied to its
    rows until its rank stops growing.  It is empty at p = 0.
    """
    size = float(np.linalg.norm(p))
    span = np.zeros((0, len(p)))
    words = algebra @ (p / size) if size else span
    while len(words):
        _, values, rows = np.linalg.svd(np.vstack([span, words]), full_matrices=False)
        grown = rows[values > tol.eps_rank]
        if len(grown) == len(span):
            break
        span = grown
        words = (algebra @ span.T).transpose(0, 2, 1).reshape(-1, len(p))
    return span


def sp_falsify_nonpolar(
    model: GroupModel,
    u=None,
    v=None,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> PolarCheckReport:
    """Dimension obstruction to the semigroup property.

    If the Minkowski sum of the orbit hulls of u and v has a strictly
    larger affine dimension than the orbit hulls of u, v and four seeded
    points, the sum cannot be an orbit hull and the semigroup property
    fails.  An orbit's dimension is that of its ``_orbit_span``, and the
    sum's the rank of the two spans stacked: nothing is sampled.
    """
    if u is None or v is None:
        rng = np.random.default_rng(seed + 9)
        u = rng.standard_normal(model.ambient_dim)
        v = rng.standard_normal(model.ambient_dim)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    rng = np.random.default_rng(seed + 10)
    points = np.vstack([u, v, rng.standard_normal((4, model.ambient_dim))])
    spans = [_orbit_span(model.algebra, p, tol) for p in points]
    sum_dim = matrix_rank(np.vstack(spans[:2]), tol)
    orbit_dims = [len(span) for span in spans]
    max_orbit_dim = max(orbit_dims)
    sp_impossible = sum_dim > max_orbit_dim

    return PolarCheckReport(
        check="minkowski_dimension_obstruction",
        model=model.name,
        passed=not sp_impossible,
        max_violation=float(sum_dim - max_orbit_dim),
        threshold=0.0,
        n_samples=0,
        seed=seed,
        details={
            "sum_affine_dim": sum_dim,
            "max_orbit_affine_dim": max_orbit_dim,
            "orbit_affine_dims": orbit_dims,
            "sp_impossible": sp_impossible,
        },
    )


def weyl_is_coxeter(model: GroupModel, seed: int = 0, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Is the group closed from the computed root reflections generated by reflections?"""
    return coxeter.is_reflection_generated(_weyl(model, seed, tol)[0])


def run_battery(
    model: GroupModel, seed: int = 42, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, dict]:
    """Full check battery for one model at one seeded point p; returns (verdict, reports).

    The verdict is the AND of the four checks: nu_p is a section
    (``cartan_orthogonality``), no dimension obstruction falsifies SP, the
    Weyl group computed from the roots is generated by reflections (the
    hypothesis under which orbit hulls form a Minkowski semigroup), and it
    is the action's (``projection_matches_weyl_hull``).  Where nu_p is not a
    section there are no roots to compute, and the Weyl checks are skipped.
    """
    orthogonality = check_cartan_orthogonality(model, seed, tol)
    obstruction = sp_falsify_nonpolar(model, seed=seed, tol=tol)
    reports = {"cartan_orthogonality": orthogonality, "minkowski_dimension_obstruction": obstruction}
    if not orthogonality.passed:
        reports["projection_matches_weyl_hull"] = {"skipped": "no section: cartan_orthogonality failed"}
        reports["weyl_is_coxeter"] = None
        return False, reports
    reports["weyl_is_coxeter"] = weyl_is_coxeter(model, seed, tol)
    hull_check = check_projection_matches_weyl_hull(model, seed=seed, tol=tol)
    reports["projection_matches_weyl_hull"] = hull_check
    return obstruction.passed and reports["weyl_is_coxeter"] and hull_check.passed, reports
