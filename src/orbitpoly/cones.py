"""Polyhedral cone calculus: orbit cones, orbit hulls, duality, and the Voronoi partition.

The central object is the cone attached to an orbit point v, bounded by the
halfspaces ``<u, v - gv> >= 0`` over the orbit of v.  For orbits of a finite
orthogonal group these cones tile the space as the Dirichlet-Voronoi cells
of the orbit points, which is what :func:`voronoi_consistency` checks.

No LP is solved and no subsets are enumerated here: irredundant normals
come from hull incidence at the cone's apex (one Qhull call), extreme rays
from the dual basis of independent normals or from one more Qhull call,
on the first read of a cone's rays.  At a regular vector of a group
generated by reflections, orbit cones and orbit hulls (:func:`orbit_hull`)
are read from root data with no Qhull call.
The library solves no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, GeometryError, ZeroVectorError
from .group import FiniteGroup, orbit, root_data
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    as_vector,
    distinct_rows,
    lazy_import,
)
from .polytope import (
    Polytope,
    _affine_chart,
    _chart_polytope,
    _edge_neighbors,
    _hull_points,
    _merge_facet_rows,
    _qhull,
    hull,
)

# Never called here: perfbench/tracing.py's SCIPY_ENTRY_POINTS looks this name
# up with getattr at install, like polytope.HalfspaceIntersection.
linprog = lazy_import("scipy.optimize", "linprog")

# Each float64 (block x orbit points) work array of voronoi_consistency stays within
# this many bytes (blocks have at least 3 rows, so for orbits of up to 2730 points),
# below glibc's 128 KiB mmap threshold: the walk reuses heap pages, not fresh ones.
_VORONOI_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True, eq=False)
class PolyhedralCone:
    """Closed convex cone ``{u : <u, n> >= 0 for all halfspace normals n}``.

    ``halfspace_normals`` is irredundant and unit;  ``rays`` are the extreme
    rays of the pointed part (empty when the cone is the whole space) and
    ``lineality_basis`` spans the largest subspace contained in the cone.

    A cone is its normals: rays and lineality are computed once, at ``tol``,
    on the first read of any of the three, so a failure of the ray step
    (Qhull on a non-simplicial cone) surfaces there, not where the cone was
    built.  :func:`cone_equal`, :func:`cone_contains` and
    :func:`voronoi_consistency`, and so the local-cone criterion, read the
    normals only and compute no rays.
    """

    halfspace_normals: np.ndarray  # (m, n) unit rows
    ambient_dim: int
    tol: Tolerance

    @cached_property
    def _ray_data(self) -> tuple[np.ndarray, np.ndarray]:
        return _rays_and_lineality(self.halfspace_normals, self.ambient_dim, self.tol)

    @property
    def rays(self) -> np.ndarray:
        """(k, n) unit rows."""
        return self._ray_data[0]

    @property
    def lineality_basis(self) -> np.ndarray:
        """(lineality_dim, n) orthonormal rows."""
        return self._ray_data[1]

    @property
    def lineality_dim(self) -> int:
        return len(self.lineality_basis)

    @property
    def is_whole_space(self) -> bool:
        return len(self.halfspace_normals) == 0

    def __repr__(self) -> str:
        return (
            f"<PolyhedralCone: {len(self.halfspace_normals)} facets, "
            f"{len(self.rays)} rays, lineality {self.lineality_dim} in R^{self.ambient_dim}>"
        )


def _unit_rows(rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > tol.eps_eq
    return rows[keep] / norms[keep, None]


def _distinct_unit_rows(normals: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Nonzero rows scaled to unit length, tolerant duplicates dropped, in order."""
    normals = _unit_rows(normals, tol)
    return normals[distinct_rows(normals, tol)]


def _irredundant(normals: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Drop normals whose halfspace is implied by the rest.

    A normal is essential iff it spans an extreme ray of the cone the
    normals generate.  When that cone is pointed, its apex 0 is a vertex of
    the hull P of 0 and the distinct unit normals, and the essential normals
    are the hull-edge neighbours of 0 in P, in input order.  When Qhull
    gives 0 no incidence (the normals' cone is not pointed, or roundoff),
    the rays and +-lineality of the dual of ``{u : N u >= 0}`` describe the
    same cone irredundantly (two more Qhull calls at most).
    """
    normals = _distinct_unit_rows(normals, tol)
    if len(normals) == 0:
        return normals
    dim = normals.shape[1]
    neighbors = _edge_neighbors(np.vstack([np.zeros(dim), normals]), 0, tol)
    if neighbors is not None:
        return normals[neighbors - 1]
    rays, lineality = _rays_and_lineality(normals, dim, tol)
    rays, lineality = _rays_and_lineality(np.vstack([rays, lineality, -lineality]), dim, tol)
    return np.vstack([rays, lineality, -lineality])


def _rays_and_lineality(normals: np.ndarray, dim: int, tol: Tolerance):
    """Extreme rays and lineality space of ``{u : N u >= 0}``.

    In the chart orthogonal to the lineality space the cone is pointed and
    the normals span.  Independent normals give a simplicial cone whose rays
    are the dual basis.  Otherwise the rays are the inward normals of the
    facets through 0 of the hull of 0 and the normals (one Qhull call).
    They come in lexicographic order of the normals each one is tight on.
    """
    if len(normals) == 0:
        return np.zeros((0, dim)), np.eye(dim)

    _, svals, vt = np.linalg.svd(normals, full_matrices=True)
    d = int(np.sum(svals > tol.eps_rank))
    lineality, chart = vt[d:], vt[:d]
    if d == 0:
        return np.zeros((0, dim)), np.eye(dim)

    N = normals @ chart.T  # (m, d), pointed cone in the chart
    if d == 1:
        rays = np.array([s for s in (1.0, -1.0) if np.min(s * N) >= -tol.eps_eq][:1]).reshape(-1, 1)
    elif len(N) == d:
        rays = np.linalg.inv(N).T
    else:
        # Merge the triangulated copies of each (outward) facet equation.
        rows = _merge_facet_rows(_qhull(np.vstack([np.zeros(d), N])).equations, tol.eps_eq)
        rays = -rows[np.abs(rows[:, -1]) <= tol.eps_eq, :-1]
    rays = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    tight = np.abs(rays @ N.T) <= tol.eps_eq
    order = sorted(range(len(rays)), key=lambda k: tuple(np.flatnonzero(tight[k])))
    return rays[order] @ chart, lineality


def _cone(normals: np.ndarray, dim: int, tol: Tolerance) -> PolyhedralCone:
    """Cone of already irredundant unit normals; its rays wait for their first read."""
    return PolyhedralCone(halfspace_normals=normals, ambient_dim=dim, tol=tol)


def cone_from_halfspaces(
    normals, dim: int | None = None, tol: Tolerance = DEFAULT_TOL
) -> PolyhedralCone:
    """Build a cone from halfspace normals, reducing them to an irredundant set."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    if normals.size == 0:
        if dim is None:
            raise ValueError("dim is required for a cone with no constraints")
        normals = np.zeros((0, dim))
    dim = normals.shape[1] if dim is None else dim
    if normals.shape[1] != dim:
        raise DimensionMismatchError("normal rows do not match the ambient dimension")
    return _cone(_irredundant(normals, tol), dim, tol)


def orbit_cone(G: FiniteGroup, v) -> PolyhedralCone:
    """Cone of directions for which v beats every other point of its orbit.

    This is the normal cone of hull(O_v) at v, whose facets are exactly the
    hull edges at v.  For a regular v of a group generated by reflections,
    the facet normals are the unit rows v - w over the images w of v under
    the reflections in the walls of its chamber, read off the group's root
    data (:meth:`~orbitpoly.group.RootData.walls`).  For any other v they
    are the irredundant rows v - w over the whole orbit
    (:func:`cone_from_halfspaces`).  The cone always contains v.
    """
    v = as_vector(v, G.dim)
    tol = G.tol
    if np.linalg.norm(v) <= tol.eps_eq:
        raise ZeroVectorError("orbit cone is undefined for the zero vector")
    points = orbit(G, v).points
    # A regular orbit lists g v at element index g, so a reflection's element
    # index is also the orbit index of its image of v.
    roots = root_data(G) if len(points) == G.order else None
    if roots is None:
        cone = cone_from_halfspaces(v - points[1:], dim=G.dim, tol=tol)
    else:
        cone = _cone(_distinct_unit_rows(v - points[roots.walls(points)], tol), G.dim, tol)
    if len(cone.halfspace_normals) and np.min(cone.halfspace_normals @ v) < -tol.eps_eq:
        raise GeometryError("orbit cone does not contain its base vector")
    return cone


def orbit_hull(G: FiniteGroup, v) -> Polytope:
    """Convex hull of the orbit of v, as :func:`~orbitpoly.polytope.hull` would build it.

    At a regular v of a group with root data (the test of :func:`orbit_cone`)
    the hull is Wythoff's: every fundamental coweight carries a facet at a
    regular point (Coxeter, *Regular Polytopes*), so the facet normals are
    the root-data rows g ω_k, grouped by k, at their support values, and the
    vertices are the orbit points, rounded and sorted as hull input.  The
    rows do not depend on v, so no facet splits near a mirror, and no Qhull
    call is made.  Any other v or group takes ``hull`` of the orbit points.
    """
    points = orbit(G, v).points
    roots = root_data(G) if len(points) == G.order else None
    if roots is None:
        return hull(points, G.tol)
    pts = _hull_points(points)
    origin, basis, _ = _affine_chart(pts, G.tol)
    return _chart_polytope(pts, roots.rows[: len(roots.row_coweight)], origin, basis, G.tol)


def orbit_cone_normals(G: FiniteGroup, v) -> np.ndarray:
    """Unit normals of the (unreduced) orbit-cone constraints of v.

    Membership tests against this raw set define the same cone as
    :func:`orbit_cone`; skipping the reduction makes bulk property checks
    cheap.
    """
    v = as_vector(v, G.dim)
    return _unit_rows(v[None, :] - orbit(G, v).points, G.tol)


def in_orbit_cone(G: FiniteGroup, v, u) -> bool:
    """Fast membership of u in the orbit cone of v (no reduction)."""
    normals = orbit_cone_normals(G, v)
    if len(normals) == 0:
        return True
    return bool(np.min(normals @ as_vector(u, G.dim)) >= -G.tol.eps_eq)


def cone_contains(C: PolyhedralCone, u, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Closed-cone membership: every halfspace inner product >= -eps."""
    u = as_vector(u, C.ambient_dim)
    if C.is_whole_space:
        return True
    return bool(np.min(C.halfspace_normals @ u) >= -tol.eps_eq)


def dual_cone(C: PolyhedralCone, tol: Tolerance = DEFAULT_TOL) -> PolyhedralCone:
    """Dual cone: halfspace normals and extreme rays swap roles.

    The dual is generated by C's halfspace normals, so its own halfspaces
    are C's rays together with equality constraints pinning it inside the
    orthogonal complement of C's lineality space.
    """
    stacked = np.vstack([C.rays, C.lineality_basis, -C.lineality_basis])
    return cone_from_halfspaces(stacked, dim=C.ambient_dim, tol=tol)


def cone_equal(C: PolyhedralCone, D: PolyhedralCone, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Canonicalized irredundant unit normal sets match as sets.

    Valid for the full-dimensional cones produced here, whose irredundant
    facet normals are unique.
    """
    if C.ambient_dim != D.ambient_dim:
        raise DimensionMismatchError("cannot compare cones of different ambient dimension")
    A, B = C.halfspace_normals, D.halfspace_normals
    if len(A) != len(B):
        return False
    if len(A) == 0:
        return True
    dists = np.max(np.abs(A[:, None, :] - B[None, :, :]), axis=2)
    used = np.zeros(len(B), dtype=bool)
    for i in range(len(A)):
        row = np.where(~used, dists[i], np.inf)
        j = int(np.argmin(row))
        if row[j] > tol.eps_eq:
            return False
        used[j] = True
    return True


@dataclass(frozen=True, eq=False)
class VoronoiReport:
    """Outcome of the nearest-point vs cone-membership cross-check.

    ``min_wall_distance`` is how close any sample came to a cell wall: the
    smallest |min_m <s, g n_m>| over samples s and cells g C, where both
    decisions turn.  It is None when the base cone has no facets.
    """

    group: str
    base: np.ndarray
    n_points: int
    n_samples: int
    seed: int
    violations: tuple[dict, ...]
    min_wall_distance: float | None

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def voronoi_consistency(
    G: FiniteGroup,
    v,
    n_samples: int,
    seed: int,
    extra_points=None,
) -> VoronoiReport:
    """Check that orbit cones are the Voronoi cells of the orbit points.

    For each sampled u, the set of nearest orbit points (ties included) must
    coincide with the set of orbit cones containing u.  ``extra_points``
    lets callers inject deliberate tie samples such as wall points.

    The cell of the orbit point g v is g C, for C the orbit cone of v, so
    its walls are the images g n of C's facet normals n.  The samples are
    walked in blocks, and each work array has the shape (block, orbit
    points), within _VORONOI_BLOCK_BYTES.  Every decision reads one sample's
    row alone, so the blocks give the same bits, and the violations come in
    (sample, point) order:

    - distances are accumulated one coordinate at a time and then rooted,
      the same additions in the same order as ``np.linalg.norm`` along the
      coordinates, so they carry its bits;
    - membership is a running minimum of one (block x dim) @ (dim x
      points) product per facet of C.
    """
    v = as_vector(v, G.dim)
    tol = G.tol
    orb = orbit(G, v)
    base_normals = orbit_cone(G, v).halfspace_normals

    # cones[k, m] = g_k n_m: the walls of the cell of orbit point k.
    cones = base_normals @ G.stack[orb.point_to_element].transpose(0, 2, 1)

    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, G.dim)) * max(1.0, float(np.linalg.norm(v)))
    if extra_points is not None and len(extra_points):
        samples = np.vstack([samples, np.atleast_2d(np.asarray(extra_points, dtype=float))])

    points = orb.points
    # A one-row product takes BLAS's matrix-vector kernel, whose bits differ
    # from the matrix product's, so a lone last sample joins the block before.
    block = max(2, _VORONOI_BLOCK_BYTES // (8 * len(points)) - 1)
    bounds = [0, *range(block, len(samples) - 1, block), len(samples)]
    violations, wall_distances = [], []
    for start, stop in zip(bounds, bounds[1:]):
        chunk = samples[start:stop]
        dist = np.zeros((len(chunk), len(points)))
        work = np.empty_like(dist)
        for j in range(G.dim):
            np.subtract(chunk[:, j, None], points[None, :, j], out=work)
            np.multiply(work, work, out=work)
            dist += work
        np.sqrt(dist, out=dist)
        nearest = dist <= dist.min(axis=1, keepdims=True) + tol.eps_eq

        if cones.shape[1] == 0:
            member = np.ones_like(nearest)
        else:
            low = np.matmul(chunk, cones[:, 0, :].T, out=dist)  # the distances are spent
            for m in range(1, cones.shape[1]):
                np.matmul(chunk, cones[:, m, :].T, out=work)
                np.minimum(low, work, out=low)
            member = low >= -tol.eps_eq
            wall_distances.append(float(np.abs(low, out=low).min()))

        for s, k in np.argwhere(nearest != member):
            violations.append(
                {
                    "sample_index": start + int(s),
                    "point_index": int(k),
                    "nearest": bool(nearest[s, k]),
                    "in_cone": bool(member[s, k]),
                    "sample": chunk[s].tolist(),
                }
            )
    return VoronoiReport(
        group=G.name,
        base=v,
        n_points=len(orb),
        n_samples=len(samples),
        seed=seed,
        violations=tuple(violations),
        min_wall_distance=min(wall_distances, default=None),
    )

