"""Convex-hull geometry with dual V-rep/H-rep bodies.

Hulls are computed with Qhull (scipy) inside an orthonormal chart of the
affine hull, so lower-dimensional bodies (segments, polygons floating in a
bigger space) carry exact facet data within their own affine hull.  The
facet convention is ``{x : <normal, x> <= offset}`` with outward unit
normals expressed in ambient coordinates.

The scipy entry points (``ConvexHull``, ``HalfspaceIntersection``,
``cKDTree``, ``linprog``) are module attributes made by
:func:`~orbitpoly.numerics.lazy_import`: each imports ``scipy.spatial`` or
``scipy.optimize`` on its first call.  Reflection-group verdicts read their
geometry from root data and never call them, so their processes never load
either module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooHighError,
    GeometryError,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    ToleranceBuckets,
    as_vector,
    lazy_import,
    matrix_rank,
)

linprog = lazy_import("scipy.optimize", "linprog")
ConvexHull = lazy_import("scipy.spatial", "ConvexHull")
HalfspaceIntersection = lazy_import("scipy.spatial", "HalfspaceIntersection")
cKDTree = lazy_import("scipy.spatial", "cKDTree")

MAX_AMBIENT_DIM = 6

# Qhull equation noise is ~1e-12 for O(1) inputs, while genuinely distinct
# facets can sit as close as ~1e-8 apart (Minkowski sums of orbits of
# near-wall points produce near-parallel facet pairs); the merge width must
# separate the two regimes.
_FACET_MERGE_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex body given by extreme points and supporting facets.

    For ``affine_dim < ambient_dim`` the facets cut the body out of its
    affine hull, which is recorded as ``affine_origin`` plus the orthonormal
    rows of ``affine_basis``.
    """

    vertices: np.ndarray       # (k, n) extreme points
    facet_normals: np.ndarray  # (m, n) outward unit normals, ambient coords
    facet_offsets: np.ndarray  # (m,)
    ambient_dim: int
    affine_dim: int
    affine_origin: np.ndarray  # (n,)
    affine_basis: np.ndarray   # (affine_dim, n) orthonormal rows

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def affine_residual(self, x) -> float:
        """Max-abs distance of x from the affine hull."""
        d = np.asarray(x, dtype=float) - self.affine_origin
        if self.affine_dim == 0:
            return float(np.max(np.abs(d), initial=0.0))
        proj = self.affine_basis.T @ (self.affine_basis @ d)
        return float(np.max(np.abs(d - proj), initial=0.0))

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        x = as_vector(x, self.ambient_dim)
        if self.affine_residual(x) > tol.eps_eq:
            return False
        if len(self.facet_normals) == 0:
            return True
        slack = self.facet_normals @ x - self.facet_offsets
        return bool(np.max(slack) <= tol.eps_eq)

    def __repr__(self) -> str:
        return (
            f"<Polytope: {self.n_vertices} vertices, {len(self.facet_normals)} facets, "
            f"affine dim {self.affine_dim} in R^{self.ambient_dim}>"
        )


class SupportResult(NamedTuple):
    mu: float
    peak: "Polytope"


_HIGHS_MIN_FEASIBILITY_TOL = 1e-10


def _within_hull(point: np.ndarray, others: np.ndarray, eps: float) -> bool:
    """Is ``point`` within eps (max-norm) of the convex hull of ``others``?

    Feasibility LP over convex-combination weights.  Only the roundoff guard
    of :func:`_non_extreme` calls it, when the certified vertex candidates
    do not span the hull's affine chart.  HiGHS's own feasibility tolerance
    (1e-7 by default) would widen eps by up to that much, so it is set to a
    tenth of eps, but no lower than the smallest value HiGHS accepts.
    """
    k, n = others.shape
    A_ub = np.vstack([others.T, -others.T])
    b_ub = np.concatenate([point + eps, -(point - eps)])
    # presolve mishandles feasibility boxes this tight (declares feasible
    # problems infeasible), so it is disabled here.
    res = linprog(
        c=np.zeros(k),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, k)),
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * k,
        method="highs",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": max(_HIGHS_MIN_FEASIBILITY_TOL, eps / 10),
        },
    )
    return res.status == 0


def _merge_facet_rows(rows: np.ndarray, eps: float) -> np.ndarray:
    """Merge near-identical (normal, offset) rows into their means.

    Rows closer than eps in max-norm are linked, and linked rows merge
    transitively (single linkage).  A k-d tree finds the linked pairs;
    minimum-label propagation over those pairs, with pointer jumping,
    labels each group by its smallest member.  Groups come in that order
    and average their members in index order.
    """
    # query_pairs keeps distances <= r; the float below eps keeps the test strict.
    pairs = cKDTree(rows).query_pairs(np.nextafter(eps, 0), p=np.inf, output_type="ndarray")
    if len(pairs) == 0:
        return rows
    i, j = pairs.T
    labels = np.arange(len(rows))
    while np.any(labels[i] != labels[j]):
        low = np.minimum(labels[i], labels[j])
        np.minimum.at(labels, i, low)
        np.minimum.at(labels, j, low)
        labels = labels[labels]
    order = np.argsort(labels, kind="stable")
    group = np.cumsum(np.r_[False, np.diff(labels[order]) != 0])
    # Summed from zero in index order, as np.mean sums, so the means match
    # it bit for bit (np.add.reduceat does not).
    sums = np.zeros((group[-1] + 1, rows.shape[1]))
    np.add.at(sums, group, rows[order])
    return sums / np.bincount(group)[:, None]


def _validate(poly: Polytope, tol: Tolerance) -> Polytope:
    """Cross-validate the V-rep against the H-rep at construction time."""
    V, N, b = poly.vertices, poly.facet_normals, poly.facet_offsets
    d = poly.affine_dim
    if len(N) == 0:
        return poly
    slack = V @ N.T - b[None, :]
    if np.max(slack) > tol.eps_eq:
        raise GeometryError(
            f"hull construction inconsistent: vertex violates a facet by {np.max(slack):.3e}"
        )
    on_facet = np.abs(slack) <= max(tol.eps_eq, 1e-10)
    per_facet = on_facet.sum(axis=0)
    if np.any(per_facet < d):
        raise GeometryError("hull construction inconsistent: facet supports too few vertices")
    per_vertex = on_facet.sum(axis=1)
    if np.any(per_vertex < d):
        raise GeometryError("hull construction inconsistent: vertex lies on too few facets")
    return poly


def _affine_chart(pts: np.ndarray, tol: Tolerance):
    """Orthonormal chart of the affine hull of the rows of ``pts``.

    Returns the centroid, the orthonormal basis rows (as many as singular
    values above ``tol.eps_rank``) and the points' chart coordinates.
    """
    origin = pts.mean(axis=0)
    centered = pts - origin
    if len(pts) == 1:
        basis = np.zeros((0, pts.shape[1]))
    else:
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        basis = vt[: int(np.sum(svals > tol.eps_rank))]
    return origin, basis, centered @ basis.T


def _qhull(chart: np.ndarray):
    from scipy.spatial import QhullError

    try:
        return ConvexHull(chart)
    except QhullError as exc:
        raise GeometryError(
            f"Qhull failed on {len(chart)} points in chart dim {chart.shape[1]}: {exc}"
        ) from exc


def _edge_neighbors(pts: np.ndarray, index: int, tol: Tolerance) -> np.ndarray | None:
    """Hull-edge neighbours of ``pts[index]``, or None if Qhull gives no incidence.

    See :func:`hull_neighbors`.  None means Qhull left the point out of every
    simplex of a hull of affine dimension >= 2.
    """
    _, basis, chart = _affine_chart(pts, tol)
    d = len(basis)
    mask = np.ones(len(pts), dtype=bool)
    if d >= 2:
        qh = _qhull(chart)
        at = np.any(qh.simplices == index, axis=1)
        simplices, normals = qh.simplices[at], qh.equations[at, :d]
        if not len(simplices):
            return None
        mask[:] = False
        for w in np.unique(simplices):
            around = normals[np.any(simplices == w, axis=1)]
            mask[w] = matrix_rank(around, tol) == d - 1
    mask[index] = False
    return np.flatnonzero(mask)


def hull_neighbors(points, index: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Indices of the points joined to ``points[index]`` by a hull edge.

    Qhull triangulates the hull of the points in their affine chart, of
    dimension d.  A triangulation edge at the point is a hull edge iff the
    normals of the simplices around it have rank d - 1; a diagonal of a
    larger face lies only in simplices of the facets through that face,
    whose normals have lower rank.  So the result does not depend on how
    Qhull splits the faces.  It is ascending and excludes ``index``.  Below
    affine dimension 2, and when Qhull leaves the point out of every simplex
    (roundoff on nearly coincident points), every other index is returned.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    found = _edge_neighbors(pts, index, tol)
    return np.delete(np.arange(len(pts)), index) if found is None else found


def _hull_points(points) -> np.ndarray:
    """Validated hull input with exact duplicates (to 12 decimals) removed."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("hull needs at least one point")
    n = pts.shape[1]
    if n > MAX_AMBIENT_DIM:
        raise DimensionTooHighError(f"ambient dimension {n} exceeds {MAX_AMBIENT_DIM}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull input has non-finite coordinates")
    # Cheap exact-duplicate removal keeps Qhull input small; interior points
    # are harmless beyond that.
    return np.unique(np.round(pts, 12), axis=0) if len(pts) > 1 else pts


def _chart_polytope(verts, normals, origin, basis, tol: Tolerance) -> Polytope:
    """Validated polytope whose facet offsets are the vertices' support values."""
    poly = Polytope(
        vertices=verts,
        facet_normals=normals,
        facet_offsets=(verts @ normals.T).max(axis=0),
        ambient_dim=verts.shape[1],
        affine_dim=len(basis),
        affine_origin=origin,
        affine_basis=basis,
    )
    return _validate(poly, tol)


def _probe_facets(pts: np.ndarray, chart: np.ndarray, basis: np.ndarray, tol: Tolerance):
    """Qhull of the chart, its merged facet normals, and probe-certified candidates.

    Returns the Qhull object (the candidates are ``pts[qh.vertices]``), the
    outward unit normals in ambient coordinates, and a mask of the
    candidates certified extreme because each strictly maximizes, by at
    least eps_eq, the sum of its incident facet normals or its direction
    from the candidates' centroid.
    """
    qh = _qhull(chart)
    candidates = pts[qh.vertices]
    # Qhull emits one (triangulated) equation per simplex; coplanar simplices
    # produce near-identical rows that merge into true facets here.
    merged = _merge_facet_rows(qh.equations, _FACET_MERGE_EPS)
    chart_normals = merged[:, :-1]
    chart_normals = chart_normals / np.linalg.norm(chart_normals, axis=1, keepdims=True)
    normals = chart_normals @ basis
    offsets = (candidates @ normals.T).max(axis=0)

    eps = max(tol.eps_eq, 1e-10)
    on_facet = np.abs(candidates @ normals.T - offsets[None, :]) <= eps
    probes = [on_facet.astype(float) @ normals, candidates - candidates.mean(axis=0)]
    gap_by_probe = []
    for probe in probes:
        lengths = np.linalg.norm(probe, axis=1)
        lengths[lengths < 1e-12] = 1.0
        vals = candidates @ (probe / lengths[:, None]).T  # [i, j] = <cand_i, dir_j>
        gaps = vals[np.arange(len(candidates)), np.arange(len(candidates))] - vals
        gaps[np.arange(len(candidates)), np.arange(len(candidates))] = np.inf
        gap_by_probe.append(gaps.min(axis=0))
    return qh, normals, np.maximum(*gap_by_probe) >= tol.eps_eq


def _lp_non_extreme(candidates: np.ndarray, certified: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the uncertified candidates within eps_eq of the hull of the rest.

    One :func:`_within_hull` LP per uncertified candidate, in candidate
    order, against the candidates not removed so far.
    """
    removed = np.zeros(len(candidates), dtype=bool)
    for j in np.flatnonzero(~certified):
        others = candidates[~removed & (np.arange(len(candidates)) != j)]
        if len(others) and _within_hull(candidates[j], others, tol.eps_eq):
            removed[j] = True
    return removed


def _non_extreme(
    candidates: np.ndarray, chart: np.ndarray, certified: np.ndarray, tol: Tolerance
) -> np.ndarray:
    """Mask of the uncertified candidates that are not extreme.

    ``chart`` holds the candidates' chart coordinates.  The certified
    candidates K are extreme.  One Qhull call gives the facets of hull(K),
    and an uncertified candidate whose largest slack over them is at most
    eps_eq is not extreme.  The candidate farthest beyond a facet maximizes
    the facet's normal over all candidates, so it is extreme up to ties: it
    joins K and the test repeats, and K grows until nothing sticks out.
    Only when K does not span the chart does :func:`_lp_non_extreme` decide
    instead, as a roundoff guard.
    """
    d = chart.shape[1]
    keep = certified.copy()
    while not keep.all():
        known = chart[keep]
        if len(known) <= d or matrix_rank(known - known.mean(axis=0), tol) < d:
            return _lp_non_extreme(candidates, certified, tol)
        equations = _qhull(known).equations
        rest = np.flatnonzero(~keep)
        slack = chart[rest] @ equations[:, :-1].T + equations[:, -1]  # [candidate, facet]
        beyond = slack > tol.eps_eq
        if not beyond.any():
            break
        farthest = np.argmax(np.where(beyond, slack, -np.inf), axis=0)
        keep[rest[farthest[beyond.any(axis=0)]]] = True
    return ~keep


def hull(points, tol: Tolerance = DEFAULT_TOL) -> Polytope:
    """Convex hull: minimal vertex set plus supporting facets.

    Works for any affine dimension up to an ambient dimension of 6.  For
    degenerate inputs the body is computed inside an orthonormal chart of
    its affine hull and the facet normals are mapped back to ambient
    coordinates, lying in the affine hull's linear span.
    """
    pts = _hull_points(points)
    origin, basis, chart = _affine_chart(pts, tol)
    d = len(basis)
    if d == 0:
        no_facets = np.zeros((0, pts.shape[1]))
        return _chart_polytope(pts[:1].copy(), no_facets, pts[0].copy(), basis, tol)
    if d == 1:
        proj = chart[:, 0]
        verts = pts[[int(np.argmin(proj)), int(np.argmax(proj))]]
        return _chart_polytope(verts, np.array([basis[0], -basis[0]]), origin, basis, tol)

    # Points that lie on the boundary without being extreme (e.g. collinear
    # Minkowski vertex sums) can survive Qhull by roundoff and also spawn
    # degenerate sliver facets.  A candidate is kept only when it is
    # genuinely extreme at the working tolerance: certified by a probe
    # direction, or sticking out of the hull of the certified candidates by
    # more than eps_eq (one more Qhull call, no LP unless the certified
    # candidates do not span the chart).  Removing candidates moves the
    # chart's centroid, so the survivors are hulled afresh.
    qh, normals, certified = _probe_facets(pts, chart, basis, tol)
    candidates = pts[qh.vertices]
    removed = _non_extreme(candidates, chart[qh.vertices], certified, tol)
    if removed.all():
        raise GeometryError("hull construction inconsistent: no vertex survived filtering")
    if removed.any():
        return hull(candidates[~removed], tol)
    return _chart_polytope(candidates, normals, origin, basis, tol)


def support(P: Polytope, v, tol: Tolerance = DEFAULT_TOL) -> SupportResult:
    """Support value of P in direction v and the peak set attaining it.

    The peak set is the hull of the vertices within tol.eps_eq of the
    maximum (absolute threshold; the data handled here is O(1)-scaled).
    """
    v = as_vector(v, P.ambient_dim)
    values = P.vertices @ v
    mu = float(values.max())
    tied = P.vertices[values >= mu - tol.eps_eq]
    return SupportResult(mu=mu, peak=hull(tied, tol))


def minkowski_sum(P: Polytope, Q: Polytope, tol: Tolerance = DEFAULT_TOL) -> Polytope:
    """Hull of all pairwise vertex sums (valid because P and Q are polytopes)."""
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatchError(
            f"Minkowski sum of bodies in R^{P.ambient_dim} and R^{Q.ambient_dim}"
        )
    sums = (P.vertices[:, None, :] + Q.vertices[None, :, :]).reshape(-1, P.ambient_dim)
    return hull(sums, tol)


def polytope_equal(P: Polytope, Q: Polytope, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Vertex sets match as sets within tol.eps_eq (sufficient for polytopes)."""
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatchError("cannot compare polytopes of different ambient dimension")
    if P.n_vertices != Q.n_vertices:
        return False
    dists = np.linalg.norm(P.vertices[:, None, :] - Q.vertices[None, :, :], axis=2)
    used = np.zeros(Q.n_vertices, dtype=bool)
    for i in range(P.n_vertices):
        row = np.where(~used, dists[i], np.inf)
        j = int(np.argmin(row))
        if row[j] > tol.eps_eq:
            return False
        used[j] = True
    return bool(used.all())


def _chebyshev_center(A: np.ndarray, b: np.ndarray, box: float):
    """Largest inscribed-ball center of {x : A x <= b}; A rows are unit."""
    m, n = A.shape
    res = linprog(
        c=np.r_[np.zeros(n), -1.0],
        A_ub=np.c_[A, np.ones(m)],
        b_ub=b,
        bounds=[(-box, box)] * n + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        return None, -np.inf
    return res.x[:n], float(res.x[n])


def _hrep_vertices(A: np.ndarray, b: np.ndarray, tol: Tolerance, box: float) -> np.ndarray:
    """Vertices of the bounded region {x : A x <= b}, any affine dimension."""
    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    trivial = norms <= tol.eps_eq
    if np.any(b[trivial] < -tol.eps_eq):
        raise GeometryError("halfspace system is infeasible (0 <= negative)")
    A, b, norms = A[~trivial], b[~trivial], norms[~trivial]
    A = A / norms[:, None]
    b = b / norms
    if A.shape[0] == 0:
        raise GeometryError("halfspace system is unbounded (no constraints)")

    if n == 1:
        hi = np.min(b[A[:, 0] > 0] / A[A[:, 0] > 0, 0]) if np.any(A[:, 0] > 0) else box
        lo = np.max(b[A[:, 0] < 0] / A[A[:, 0] < 0, 0]) if np.any(A[:, 0] < 0) else -box
        if lo > hi + tol.eps_eq:
            raise GeometryError("halfspace system is infeasible")
        if abs(hi - lo) <= tol.eps_eq:
            return np.array([[0.5 * (lo + hi)]])
        return np.array([[lo], [hi]])

    center, radius = _chebyshev_center(A, b, box)
    if center is None:
        raise GeometryError("halfspace system is infeasible")

    if radius > 1e-7:
        from scipy.spatial import QhullError

        try:
            points = HalfspaceIntersection(np.c_[A, -b], center).intersections
        except QhullError as exc:
            raise GeometryError(
                f"Qhull failed on {len(A)} halfspaces in dim {n}: {exc}"
            ) from exc
        buckets = ToleranceBuckets(tol)
        for p in points:
            if np.all(np.isfinite(p)):
                buckets.insert(p)
        return np.array(buckets.items)

    # Degenerate body: find implicit equalities by minimizing each constraint.
    eq_mask = np.zeros(len(A), dtype=bool)
    for i in range(len(A)):
        res = linprog(
            c=A[i], A_ub=A, b_ub=b, bounds=[(-box, box)] * n, method="highs"
        )
        if res.status != 0:
            raise GeometryError("halfspace system is infeasible")
        if res.fun >= b[i] - 1e-8:
            eq_mask[i] = True
    if not np.any(eq_mask):
        raise GeometryError("degenerate halfspace system without detectable equalities")

    A_eq, b_eq = A[eq_mask], b[eq_mask]
    x0, *_ = np.linalg.lstsq(A_eq, b_eq, rcond=None)
    if np.max(np.abs(A_eq @ x0 - b_eq)) > 1e-7:
        raise GeometryError("halfspace system is infeasible on its equality set")
    _, svals, vt = np.linalg.svd(A_eq, full_matrices=True)
    rank = int(np.sum(svals > tol.eps_rank))
    Z = vt[rank:]
    if Z.shape[0] == 0:
        return x0[None, :]
    A_sub = A[~eq_mask] @ Z.T
    b_sub = b[~eq_mask] - A[~eq_mask] @ x0
    if A_sub.shape[0] == 0:
        raise GeometryError("halfspace system is unbounded inside its equality set")
    t_verts = _hrep_vertices(A_sub, b_sub, tol, box)
    return x0[None, :] + t_verts @ Z


def polytope_from_halfspaces(
    normals,
    offsets,
    tol: Tolerance = DEFAULT_TOL,
    box: float = 1e6,
) -> Polytope:
    """Vertex-enumerate the bounded region {x : <normal_i, x> <= offset_i}.

    Handles bodies of any affine dimension by peeling off implicit equality
    constraints before handing the full-dimensional core to Qhull.  ``box``
    bounds the LP search region and must exceed the body's radius.
    """
    A = np.atleast_2d(np.asarray(normals, dtype=float))
    b = np.asarray(offsets, dtype=float).reshape(-1)
    if A.shape[0] != b.shape[0]:
        raise ValueError("normals and offsets must have matching lengths")
    verts = _hrep_vertices(A, b, tol, box)
    return hull(verts, tol)


def export_off(P: Polytope, tol: Tolerance = DEFAULT_TOL) -> str:
    """OFF-format text for a full-dimensional 3-d polytope.

    Facet vertex cycles are ordered counterclockwise as seen from outside.
    """
    if P.ambient_dim != 3 or P.affine_dim != 3:
        raise ValueError("OFF export requires a full-dimensional polytope in R^3")
    lines = ["OFF", f"{P.n_vertices} {len(P.facet_normals)} 0"]
    for v in P.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    eps = max(tol.eps_eq, 1e-10)
    for normal, offset in zip(P.facet_normals, P.facet_offsets):
        on = np.where(np.abs(P.vertices @ normal - offset) <= eps)[0]
        face_pts = P.vertices[on]
        center = face_pts.mean(axis=0)
        t1 = face_pts[0] - center
        t1 = t1 / np.linalg.norm(t1)
        t2 = np.cross(normal, t1)
        angles = np.arctan2((face_pts - center) @ t2, (face_pts - center) @ t1)
        ordered = on[np.argsort(angles)]
        lines.append(str(len(ordered)) + " " + " ".join(str(i) for i in ordered))
    return "\n".join(lines) + "\n"
