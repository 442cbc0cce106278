"""Convex-hull geometry with dual V-rep/H-rep bodies.

Hulls are computed with Qhull (scipy) inside an orthonormal chart of the
affine hull, so lower-dimensional bodies (segments, polygons floating in a
bigger space) carry exact facet data within their own affine hull.  The
facet convention is ``{x : <normal, x> <= offset}`` with outward unit
normals expressed in ambient coordinates.

No LP is solved here.  A hull's vertices are the Qhull vertices that a
probe direction certifies extreme, grown by the ones that complete their
span and by those that stick out of their hull; its facets are read from
the last Qhull call.

Hull input is rounded to 12 decimals and sorted lexicographically (first
coordinate first) before Qhull sees it; of rows equal after rounding (0.0
equals -0.0), the first in input order is kept.  A Minkowski sum is one
hull, of the pairwise sums of its summands' vertices; on a reflection group
the ``minkowski`` command builds none, as the sum of two orbit hulls is
itself one (:func:`~orbitpoly.cones.orbit_hull`).

Cuts read the given :class:`~orbitpoly.numerics.Tolerance`: equality at eps_eq, ranks
at eps_rank, facet merges and incidence at eps_eq but no finer than ``_QHULL_SPREAD``.

The scipy entry points (``ConvexHull``, ``cKDTree``) are module attributes
made by :func:`~orbitpoly.numerics.lazy_import`: each imports
``scipy.spatial`` on its first call.  Reflection-group verdicts, and the
hulls of regular orbits of reflection groups, read their geometry from root
data and never call them, so their processes never load it.
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
    MAX_AMBIENT_DIM,
    Tolerance,
    as_vector,
    lazy_import,
    matrix_rank,
)

ConvexHull = lazy_import("scipy.spatial", "ConvexHull")
# Never called here: perfbench/tracing.py's SCIPY_ENTRY_POINTS looks these
# names up with getattr at install.  They go in the next perfbench/-only change.
linprog = lazy_import("scipy.optimize", "linprog")
HalfspaceIntersection = lazy_import("scipy.spatial", "HalfspaceIntersection")
cKDTree = lazy_import("scipy.spatial", "cKDTree")

# Qhull's noise: one facet's simplices carry equations up to ~1e-9 apart near mirrors
# (distinct facets of sums near walls ~1e-8).  Facet merges and incidence cut no finer.
_QHULL_SPREAD = 1e-9


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


def _merge_facet_rows(rows: np.ndarray, eps: float) -> np.ndarray:
    """Merge near-identical (normal, offset) rows into their means.

    Rows closer than max(eps, _QHULL_SPREAD) in max-norm are linked, and
    linked rows merge transitively (single linkage).  A k-d tree finds the
    linked pairs; minimum-label propagation over them, with pointer jumping,
    labels each group by its smallest member.  Groups come in that order
    and average their members in index order.
    """
    # query_pairs keeps distances <= r; the float below the width keeps the test strict.
    r = np.nextafter(max(eps, _QHULL_SPREAD), 0)
    pairs = cKDTree(rows).query_pairs(r, p=np.inf, output_type="ndarray")
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
    on_facet = np.abs(slack) <= max(tol.eps_eq, _QHULL_SPREAD)
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
    """Qhull of the chart, with scipy's default options (``Qx`` above 4-d) and ``Q12``.

    ``Q12`` lets Qhull finish on the wide merges of nearly cospherical orbits
    (A5 in chart dimension 5), where it otherwise stops with QH6271.
    """
    from scipy.spatial import QhullError

    try:
        return ConvexHull(chart, qhull_options="Qx Q12" if chart.shape[1] > 4 else "Q12")
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
    """Validated hull input: rounded, sorted and deduped as the module docstring says."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("hull needs at least one point")
    n = pts.shape[1]
    if n > MAX_AMBIENT_DIM:
        raise DimensionTooHighError(f"ambient dimension {n} exceeds {MAX_AMBIENT_DIM}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull input has non-finite coordinates")
    # Cheap exact-duplicate removal keeps Qhull input small; interior points
    # are harmless beyond that.  lexsort is stable and its last key sorts first.
    pts = np.round(pts, 12)
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = np.ones(len(pts), dtype=bool)
    np.any(pts[1:] != pts[:-1], axis=1, out=keep[1:])
    return pts[keep]


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


def _facet_normals(qh, chart: np.ndarray, basis: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Merged outward unit facet normals, in ambient coordinates, of ``qh = _qhull(chart)``.

    Qhull emits one (triangulated) equation per simplex; coplanar simplices
    produce near-identical rows that merge into true facets here.  A simplex
    whose edges have rank below d - 1 at eps_rank is flat, and its equation
    is arbitrary (Qhull's triangulation leaves such simplices on hulls in a
    rotated basis), so it is dropped before the merge.
    """
    corners = chart[qh.simplices]
    edges = corners[:, 1:] - corners[:, :1]
    # |det [edges; unit normal]| is at most the product of the edges'
    # singular values, so a simplex whose determinant clears eps_rank times
    # the edges' norm to the power d - 2 (twice over, for roundoff) is not
    # flat.  Only the rest need their singular values.
    volume = np.abs(np.linalg.det(np.concatenate([edges, qh.equations[:, None, :-1]], axis=1)))
    flat = volume <= 2 * tol.eps_rank * np.linalg.norm(edges, axis=(1, 2)) ** (chart.shape[1] - 2)
    if flat.any():
        flat[flat] = np.linalg.svd(edges[flat], compute_uv=False)[:, -1] <= tol.eps_rank
    merged = _merge_facet_rows(qh.equations[~flat], tol.eps_eq)
    chart_normals = merged[:, :-1]
    return (chart_normals / np.linalg.norm(chart_normals, axis=1, keepdims=True)) @ basis


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
    normals = _facet_normals(qh, chart, basis, tol)
    offsets = (candidates @ normals.T).max(axis=0)

    on_facet = np.abs(candidates @ normals.T - offsets[None, :]) <= max(tol.eps_eq, _QHULL_SPREAD)
    probes = [on_facet.astype(float) @ normals, candidates - candidates.mean(axis=0)]
    gap_by_probe = []
    for probe in probes:
        lengths = np.linalg.norm(probe, axis=1)
        lengths[lengths < tol.eps_eq] = 1.0
        vals = candidates @ (probe / lengths[:, None]).T  # [i, j] = <cand_i, dir_j>
        gaps = vals[np.arange(len(candidates)), np.arange(len(candidates))] - vals
        gaps[np.arange(len(candidates)), np.arange(len(candidates))] = np.inf
        gap_by_probe.append(gaps.min(axis=0))
    return qh, normals, np.maximum(*gap_by_probe) >= tol.eps_eq


def _spanning(at: np.ndarray, certified: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the certified candidates, grown until they span the chart.

    ``at`` holds the candidates' chart coordinates, which span the chart's
    dimension d.  While the kept candidates lie in a proper affine subspace,
    the candidates that minimize and maximize a direction normal to it join
    them: each is extreme up to ties, and one of them lies off the subspace.
    So every round raises the rank, and at most d rounds run.
    """
    d = at.shape[1]
    keep, rank = certified.copy(), -1
    while rank < d:
        known = at[keep]
        centered = known - known.mean(axis=0) if len(known) else np.zeros((1, d))
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        last, rank = rank, int(np.sum(svals > tol.eps_rank))
        if rank <= last:
            raise GeometryError("hull construction inconsistent: extreme candidates do not span")
        if rank < d:
            values = at @ vt[rank]
            keep[[np.argmin(values), np.argmax(values)]] = True
    return keep


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
    # direction, extreme along a direction that completes the certified
    # candidates' span, or sticking out of the hull of those by more than
    # eps_eq.  The candidate farthest beyond a facet maximizes the facet's
    # normal over all candidates, so it is extreme up to ties: it joins
    # them, and the kept set grows until nothing sticks out.  The facets
    # come from the last Qhull call, of all candidates or of the kept ones.
    qh, normals, certified = _probe_facets(pts, chart, basis, tol)
    candidates, at = pts[qh.vertices], chart[qh.vertices]
    keep = certified if certified.all() else _spanning(at, certified, tol)
    while not keep.all():
        qh = _qhull(at[keep])
        rest = np.flatnonzero(~keep)
        slack = at[rest] @ qh.equations[:, :-1].T + qh.equations[:, -1]  # [candidate, facet]
        beyond = slack > tol.eps_eq
        if not beyond.any():
            normals = _facet_normals(qh, at[keep], basis, tol)
            break
        farthest = np.argmax(np.where(beyond, slack, -np.inf), axis=0)
        keep[rest[farthest[beyond.any(axis=0)]]] = True
    return _chart_polytope(candidates[keep], normals, origin, basis, tol)


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


def minkowski_sum(P, Q, tol: Tolerance = DEFAULT_TOL) -> Polytope:
    """hull(A) + hull(B) as one hull, of the pairwise sums A + B.

    A and B are the ``vertices`` of ``P`` and ``Q``, polytopes or orbits
    (:class:`~orbitpoly.group.Orbit`), rounded and deduped as hull input.
    Any finite generating sets will do, so the summands' hulls are never
    built: a convex combination of A plus one of B is the convex
    combination of the sums a_i + b_j weighted by products of the weights.
    """
    A, B = _hull_points(P.vertices), _hull_points(Q.vertices)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError(
            f"Minkowski sum of bodies in R^{A.shape[1]} and R^{B.shape[1]}"
        )
    return hull((A[:, None, :] + B[None, :, :]).reshape(-1, A.shape[1]), tol)


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


def export_off(P: Polytope, tol: Tolerance = DEFAULT_TOL) -> str:
    """OFF-format text for a full-dimensional 3-d polytope.

    Facet vertex cycles are ordered counterclockwise as seen from outside.
    """
    if P.ambient_dim != 3 or P.affine_dim != 3:
        raise ValueError("OFF export requires a full-dimensional polytope in R^3")
    lines = ["OFF", f"{P.n_vertices} {len(P.facet_normals)} 0"]
    for v in P.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for normal, offset in zip(P.facet_normals, P.facet_offsets):
        on = np.where(np.abs(P.vertices @ normal - offset) <= max(tol.eps_eq, _QHULL_SPREAD))[0]
        face_pts = P.vertices[on]
        center = face_pts.mean(axis=0)
        t1 = face_pts[0] - center
        t1 = t1 / np.linalg.norm(t1)
        t2 = np.cross(normal, t1)
        angles = np.arctan2((face_pts - center) @ t2, (face_pts - center) @ t1)
        ordered = on[np.argsort(angles)]
        lines.append(str(len(ordered)) + " " + " ".join(str(i) for i in ordered))
    return "\n".join(lines) + "\n"
