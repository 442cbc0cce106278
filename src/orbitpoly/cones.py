"""Polyhedral cone calculus: orbit cones, duality, and the Voronoi partition.

The central object is the cone attached to an orbit point v, bounded by the
halfspaces ``<u, v - gv> >= 0`` over the orbit of v.  For orbits of a finite
orthogonal group these cones tile the space as the Dirichlet-Voronoi cells
of the orbit points, which is what :func:`voronoi_consistency` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError, GeometryError, ZeroVectorError
from .group import FiniteGroup, orbit, root_data
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    ToleranceBuckets,
    as_vector,
    distinct_rows,
    lazy_import,
)
from .polytope import _edge_neighbors

linprog = lazy_import("scipy.optimize", "linprog")

# An essential halfspace admits a point that violates it while satisfying the
# others; inside the unit box that violation is O(0.1) for the geometry
# handled here, so this LP threshold separates it cleanly from noise.
_LP_ESSENTIAL_EPS = 1e-7


@dataclass(frozen=True, eq=False)
class PolyhedralCone:
    """Closed convex cone ``{u : <u, n> >= 0 for all halfspace normals n}``.

    ``halfspace_normals`` is irredundant and unit;  ``rays`` are the extreme
    rays of the pointed part (empty when the cone is the whole space) and
    ``lineality_basis`` spans the largest subspace contained in the cone.
    """

    halfspace_normals: np.ndarray  # (m, n) unit rows
    rays: np.ndarray               # (k, n) unit rows
    ambient_dim: int
    lineality_dim: int
    lineality_basis: np.ndarray    # (lineality_dim, n) orthonormal rows

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

    A normal n is essential iff the cone of the other constraints meets
    ``<., n> < 0``; that feasibility question is decided by a small LP over
    the unit box.  Removing a redundant constraint never changes the cone,
    so constraints are dropped as they are found.
    """
    normals = _distinct_unit_rows(normals, tol)
    if len(normals) == 0:
        return normals
    current = list(normals)
    i = 0
    while i < len(current):
        others = current[:i] + current[i + 1:]
        if not others:
            break
        res = linprog(
            c=current[i],
            A_ub=-np.array(others),
            b_ub=np.zeros(len(others)),
            bounds=[(-1, 1)] * len(current[i]),
            method="highs",
        )
        if res.status != 0:
            raise GeometryError(f"feasibility LP failed during cone reduction: {res.message}")
        if res.fun < -_LP_ESSENTIAL_EPS:
            i += 1
        else:
            current.pop(i)
    return np.array(current) if current else np.zeros((0, normals.shape[1]))


def _rays_and_lineality(normals: np.ndarray, dim: int, tol: Tolerance):
    """Extreme rays and lineality space of ``{u : N u >= 0}``.

    Works in the chart orthogonal to the lineality space, where the cone is
    pointed, and enumerates (d-1)-subsets of normals whose common kernel
    carries an extreme ray.
    """
    if len(normals) == 0:
        return np.zeros((0, dim)), np.eye(dim)

    _, svals, vt = np.linalg.svd(normals, full_matrices=True)
    rank = int(np.sum(svals > tol.eps_rank))
    lineality = vt[rank:]
    chart = vt[:rank]
    d = rank
    if d == 0:
        return np.zeros((0, dim)), np.eye(dim)

    N = normals @ chart.T  # (m, d), pointed cone in the chart
    ray_buckets = ToleranceBuckets(tol)

    def consider(z):
        if np.min(N @ z) >= -tol.eps_eq:
            ray_buckets.insert(z)
        elif np.min(N @ -z) >= -tol.eps_eq:
            ray_buckets.insert(-z)

    if d == 1:
        consider(np.array([1.0]))
    else:
        m = len(N)
        for subset in combinations(range(m), d - 1):
            M = N[list(subset)]
            _, s, v = np.linalg.svd(M, full_matrices=True)
            if int(np.sum(s > tol.eps_rank)) != d - 1:
                continue
            consider(v[d - 1])

    rays = np.array(ray_buckets.items) if ray_buckets.items else np.zeros((0, d))
    return rays @ chart, lineality


def _cone(normals: np.ndarray, dim: int, tol: Tolerance) -> PolyhedralCone:
    """Cone of already irredundant unit normals, with its rays and lineality."""
    rays, lineality = _rays_and_lineality(normals, dim, tol)
    return PolyhedralCone(
        halfspace_normals=normals,
        rays=rays,
        ambient_dim=dim,
        lineality_dim=len(lineality),
        lineality_basis=lineality,
    )


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


def orbit_cone(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> PolyhedralCone:
    """Cone of directions for which v beats every other point of its orbit.

    This is the normal cone of hull(O_v) at v, whose facets are exactly the
    hull edges at v: the irredundant normals are the unit rows v - w over
    the hull-edge neighbors w of v, in orbit order, and no LP is needed.
    For a regular v of a group generated by reflections, the neighbors are
    the images of v under the reflections in the walls of its chamber, read
    off the group's root data (:meth:`~orbitpoly.group.RootData.walls`);
    for any other v they come from Qhull
    (:func:`~orbitpoly.polytope.hull_neighbors`).  Only when Qhull leaves v
    out of every simplex (roundoff) does the LP reduction pick the facets
    from all rows v - w.  The cone always contains v.
    """
    v = as_vector(v, G.dim)
    if np.linalg.norm(v) <= tol.eps_eq:
        raise ZeroVectorError("orbit cone is undefined for the zero vector")
    points = orbit(G, v, tol).points
    # A regular orbit lists g v at element index g, so a reflection's element
    # index is also the orbit index of its image of v.
    roots = root_data(G, tol) if len(points) == G.order else None
    neighbors = _edge_neighbors(points, 0, tol) if roots is None else roots.walls(points)
    if neighbors is None:
        cone = cone_from_halfspaces(v - points[1:], dim=G.dim, tol=tol)
    else:
        cone = _cone(_distinct_unit_rows(v - points[neighbors], tol), G.dim, tol)
    if len(cone.halfspace_normals) and np.min(cone.halfspace_normals @ v) < -tol.eps_eq:
        raise GeometryError("orbit cone does not contain its base vector")
    return cone


def orbit_cone_normals(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unit normals of the (unreduced) orbit-cone constraints of v.

    Membership tests against this raw set define the same cone as
    :func:`orbit_cone`; skipping the reduction makes bulk property checks
    cheap.
    """
    v = as_vector(v, G.dim)
    orb = orbit(G, v, tol)
    return _unit_rows(v[None, :] - orb.points, tol)


def in_orbit_cone(G: FiniteGroup, v, u, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Fast membership of u in the orbit cone of v (no reduction)."""
    normals = orbit_cone_normals(G, v, tol)
    if len(normals) == 0:
        return True
    return bool(np.min(normals @ as_vector(u, G.dim)) >= -tol.eps_eq)


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
    rows = [C.rays]
    if C.lineality_dim:
        rows.append(C.lineality_basis)
        rows.append(-C.lineality_basis)
    stacked = np.vstack([r for r in rows if len(r)]) if any(len(r) for r in rows) else np.zeros((0, C.ambient_dim))
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
    """Outcome of the nearest-point vs cone-membership cross-check."""

    group: str
    base: np.ndarray
    n_points: int
    n_samples: int
    seed: int
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def voronoi_consistency(
    G: FiniteGroup,
    v,
    n_samples: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
    extra_points=None,
) -> VoronoiReport:
    """Check that orbit cones are the Voronoi cells of the orbit points.

    For each sampled u, the set of nearest orbit points (ties included) must
    coincide with the set of orbit cones containing u.  ``extra_points``
    lets callers inject deliberate tie samples such as wall points.
    """
    v = as_vector(v, G.dim)
    orb = orbit(G, v, tol)
    base_cone = orbit_cone(G, v, tol)
    base_normals = base_cone.halfspace_normals

    # The cone of the orbit point g v is the image of the base cone under g.
    cones = base_normals @ G.stack[list(orb.point_to_element)].transpose(0, 2, 1)

    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, G.dim)) * max(1.0, float(np.linalg.norm(v)))
    if extra_points is not None and len(extra_points):
        samples = np.vstack([samples, np.atleast_2d(np.asarray(extra_points, dtype=float))])

    dists = np.linalg.norm(samples[:, None, :] - orb.points[None, :, :], axis=2)
    nearest = dists <= dists.min(axis=1, keepdims=True) + tol.eps_eq
    if cones.shape[1] == 0:
        member = np.ones((len(samples), len(orb)), dtype=bool)
    else:
        margins = np.einsum("sn,kmn->skm", samples, cones)
        member = margins.min(axis=2) >= -tol.eps_eq

    violations = []
    bad = np.argwhere(nearest != member)
    for s, k in bad:
        violations.append(
            {
                "sample_index": int(s),
                "point_index": int(k),
                "nearest": bool(nearest[s, k]),
                "in_cone": bool(member[s, k]),
                "sample": samples[s].tolist(),
            }
        )
    return VoronoiReport(
        group=G.name,
        base=v,
        n_points=len(orb),
        n_samples=len(samples),
        seed=seed,
        violations=tuple(violations),
    )


def local_peak_failures(
    G: FiniteGroup,
    v,
    radius_factor: float = 0.1,
    n_samples: int = 50,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[dict]:
    """Directions near v for which v is not the unique orbit maximizer.

    Samples w with |w - v| < radius_factor * |v| and records every failure
    instead of asserting; the radius is a concrete stand-in for an
    existence-only neighborhood.
    """
    v = as_vector(v, G.dim)
    orb = orbit(G, v, tol)
    rng = np.random.default_rng(seed)
    vnorm = float(np.linalg.norm(v))
    failures = []
    for s in range(n_samples):
        x = rng.standard_normal(G.dim)
        x /= np.linalg.norm(x)
        w = v + x * radius_factor * vnorm * rng.uniform() ** (1.0 / G.dim)
        values = orb.points @ w
        top = float(values.max())
        tied = np.where(values >= top - tol.eps_eq)[0]
        if len(tied) != 1 or not np.allclose(orb.points[tied[0]], v, atol=tol.eps_eq):
            failures.append({"sample_index": s, "direction": w.tolist(), "tied": len(tied)})
    return failures
