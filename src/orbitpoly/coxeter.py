"""Chambers, reflection generation, and the semigroup-property verdict.

A finite orthogonal group satisfies the semigroup property (SP: Minkowski
sums of orbit hulls are again orbit hulls) exactly when it is generated by
reflections.  This module implements that verdict four ways - direct SP
sampling, the peak criterion, reflection generation, and local cone
stability - and cross-checks that they agree.  The SP sample stops at its
first failing pair, which is the witness of a false verdict.

The peak criterion checks all of its probes in one pass over stacked
arrays on every group: one product with the stacked elements gives every
probe's orbit.  On a group with root data the other two sampled criteria
do too: the SP pairs are tested together at their first candidates, and
the local samples read their chamber walls from one sign product.  A
probe such a pass does not settle takes the per-probe path, in order, so
the witnesses are still the first ones.  Any other group checks its SP
pairs and local samples one at a time and stops at its first witness.

None of the four solves an LP or builds a Minkowski sum or orbit hull: an
SP pair is checked by support inequalities along rows of root data or of
one orbit cone, reflection generation by counting the orbit points of a
regular vector in its chamber, and orbit cones are read from hull edges.

Which geometry comes from where:

- A group generated by its reflections has root data
  (:func:`~orbitpoly.group.root_data`).  The SP check reads each orbit
  hull's halfspaces from it (the orbits of the fundamental coweights,
  pinned along the fixed subspace), and orbit cones at regular vectors
  read their hull edges from it (the reflections in the walls of the
  vector's chamber), as do :func:`chamber` and
  :func:`hull_from_dual_cones`.  ``theorem2`` then makes no Qhull call,
  and neither do ``hull`` and ``minkowski`` at regular vectors
  (:func:`~orbitpoly.cones.orbit_hull`).
- Any other group reads the SP rows from orbit cones.  They, orbit cones
  and hulls at non-regular vectors, and the ``hull`` and ``minkowski``
  commands on such groups keep Qhull (:mod:`orbitpoly.cones`,
  :mod:`orbitpoly.polytope`).  No LP is solved anywhere.

The root data is read off once reflection generation (criterion ii) holds,
so the SP criterion could inherit an error of that decision.  It stays
independent in two ways.  The peak test that every SP candidate must pass
first reads only orbit points: it is exact and makes no use of root data.
And at ambient dimension up to 4, tests compare the root-data hull edges
and halfspaces with Qhull's on every reflection group there, at 50 seeds
and near mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

import numpy as np

from .cones import PolyhedralCone, cone_contains, cone_equal, orbit_cone, orbit_hull
from .errors import (
    GeometryError,
    InconsistentCriteriaError,
    NotCoxeterError,
    NotInChamberError,
    NotRegularError,
)
from .group import (  # Reflection, detect_reflection, group_reflections: also imported from here
    FiniteGroup,
    Reflection,
    detect_reflection,
    find_regular,
    group_reflections,
    is_regular,
    orbit,
    root_data,
)
from .numerics import (
    Tolerance,
    as_vector,
    distinct_rows,
    row_keys,
    unit,
)
from .polytope import Polytope

# Seeded random SP pairs (and as many extra peak test points) per report,
# and the samples of the local cone criterion.
_N_RANDOM_PAIRS = 25
_N_LOCAL_SAMPLES = 25
# Orbit points per batch in the array passes below; bounds their memory on
# large groups (a batch holds at least one orbit).
_BATCH_POINTS = 1 << 16


@dataclass(frozen=True, eq=False)
class ChamberData:
    """Simple inward facet normals and the dual fundamental rays of a chamber.

    In the reflection-generated, full-rank case the chamber is simplicial:
    ``<ray_j, normal_k>`` is zero for j != k and positive for j == k.
    """

    simple_normals: np.ndarray    # (m, n) unit inward facet normals
    fundamental_rays: np.ndarray  # (m, n) unit rays, ordered dual to the normals
    base_regular: np.ndarray


@dataclass(frozen=True, eq=False)
class SPReport:
    """Verdict plus the four criterion outcomes and failure witnesses.

    The four verdicts must agree; a disagreement raises during construction
    and is never silently resolved.
    """

    group: str
    verdict: bool
    criterion_results: dict[str, tuple[bool, Any]]
    witnesses: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    sp_pairs_checked: int = 0  # pairs checked, up to the first failure

    def to_dict(self) -> dict:
        return {
            "group": self.group,
            "verdict": self.verdict,
            "criteria": {
                key: {"passed": passed, "witness": _jsonable(witness)}
                for key, (passed, witness) in self.criterion_results.items()
            },
            "witnesses": {k: _jsonable(v) for k, v in self.witnesses.items()},
            "timings": {"sp_pairs_checked": self.sp_pairs_checked},
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def is_reflection_generated(G: FiniteGroup) -> bool:
    """True iff the subgroup generated by the group's reflections is the whole group.

    Decided by counting chambers: the reflection subgroup W acts simply
    transitively on the chambers cut out by the mirrors, and G permutes
    them, so each chamber holds |G| / |W| points of a regular orbit.  G = W
    exactly when a regular v is the only point of its orbit whose sign
    against every mirror normal equals v's.  The trivial group, with no
    mirrors, counts as generated.  This is the decision
    :func:`~orbitpoly.group.root_data` makes once per group, with the
    regular vector of seed 0: a group has root data exactly when it is
    generated by its reflections.
    """
    return root_data(G) is not None


def _required_root_data(G: FiniteGroup):
    roots = root_data(G)
    if roots is None:
        raise NotCoxeterError(f"group {G.name or ''} is not generated by reflections")
    return roots


def chamber(G: FiniteGroup, v_reg) -> ChamberData:
    """Chamber of a reflection-generated group, anchored at a regular vector.

    Read off the group's root data: the simple normals are the unit normals
    of the mirrors that are walls of ``v_reg``'s chamber, in element order
    and pointing into it, and fundamental ray k is the unit ray of the dual
    basis that pairs positively with normal k and annihilates the others.
    The chamber equals the orbit cone of ``v_reg``.
    """
    v_reg = as_vector(v_reg, G.dim)
    roots = _required_root_data(G)
    if not is_regular(G, v_reg):
        raise NotRegularError("chamber base vector must have a trivial stabilizer")
    normals, rays = roots.chamber(orbit(G, v_reg).points)
    return ChamberData(simple_normals=normals, fundamental_rays=rays, base_regular=v_reg)


def hull_from_dual_cones(G: FiniteGroup, v, ch: ChamberData) -> Polytope:
    """Reconstruct the orbit hull of a chamber point from halfspaces alone.

    The hull is the intersection over all group elements g of the shifted
    dual chamber cone ``g(v - C*)``, i.e. the region
    ``<y, g ray_k> <= <v, ray_k>`` for every g and every fundamental ray,
    pinned to v's coordinates along the lineality space.  The rows g ray_k
    and their offsets come from the group's root data
    (:meth:`~orbitpoly.group.RootData.support`), as in the SP check.

    The vertex x0 in the chamber of the root-data coweights is where the
    coweight rows and the pins are tight: one d x d solve.  x0 is checked
    against every row, and since the halfspaces are G-invariant, the vertex
    of chamber gC is g x0; the hull is that of the distinct images
    (:func:`~orbitpoly.cones.orbit_hull`, whose facets at a regular x0 are
    the coweight rows themselves).  So the vertices come from the
    halfspaces, not from the orbit of v, and can be cross-checked against
    the direct orbit hull.
    """
    v = as_vector(v, G.dim)
    tol = G.tol
    margins = ch.simple_normals @ v
    if len(margins) and np.min(margins) < -tol.eps_eq:
        raise NotInChamberError("vector lies outside the closed chamber")
    roots = _required_root_data(G)
    offsets = roots.support(v)
    m = len(roots.row_coweight)
    # Every row g ω_k has the offset of ω_k, so read it at the first row of block k.
    top = offsets[roots.starts]
    x0 = np.linalg.solve(
        np.vstack([roots.coweights, roots.fixed]), np.r_[top, offsets[m : m + len(roots.fixed)]]
    )
    if np.any(roots.rows @ x0 > offsets + tol.eps_eq):
        raise GeometryError("the chamber vertex of the dual-cone halfspaces violates one of them")
    return orbit_hull(G, x0)


def criterion_peak(G: FiniteGroup, v_reg, test_points) -> tuple[bool, np.ndarray | None]:
    """Peak criterion: the functional of a regular vector peaks on each sampled orbit.

    A peak means a unique maximizing orbit point; the hull's peak set is a
    single point exactly when the orbit's maximizer set is.  Returns the
    first orbit base with a tied maximum as witness.  This is a
    falsification-only sample of a statement about all orbits.

    It reads orbit points only: every test point is checked in one pass
    over their orbits (:func:`_orbits`).
    """
    v_reg = as_vector(v_reg, G.dim)
    if not is_regular(G, v_reg):
        raise NotRegularError("the peak criterion requires a regular base vector")
    eps = G.tol.eps_eq
    points = np.array([as_vector(u, G.dim) for u in test_points]).reshape(-1, G.dim)
    images, kept = _orbits(G, points)
    values = np.where(kept, np.matmul(images, v_reg), -np.inf)
    tied = np.sum(values >= values.max(axis=1, keepdims=True) - eps, axis=1)
    bad = np.flatnonzero(tied > 1)
    return (False, points[bad[0]]) if len(bad) else (True, None)


def criterion_local_cone(G: FiniteGroup, v_reg, seed: int = 0) -> tuple[bool, np.ndarray | None]:
    """Local cone stability: orbit cones are constant near a regular vector.

    The seeded samples lie within a quarter of the distance from ``v_reg``
    to the nearest wall of its own cone (a quarter of |v_reg| when the cone
    is the whole space), which keeps the probe scale-free.
    """
    v_reg = as_vector(v_reg, G.dim)
    if not is_regular(G, v_reg):
        raise NotRegularError("local cone criterion requires a regular base vector")
    base = orbit_cone(G, v_reg)
    walls = base.halfspace_normals @ v_reg
    radius = 0.25 * float(np.min(walls) if len(walls) else np.linalg.norm(v_reg))
    rng = np.random.default_rng(seed)

    def draws():
        for _ in range(_N_LOCAL_SAMPLES):
            x = rng.standard_normal(G.dim)
            x /= np.linalg.norm(x)
            yield v_reg + x * radius * rng.uniform() ** (1.0 / G.dim)

    roots = root_data(G)
    if roots is None:
        checks = zip(draws(), repeat(False))  # drawn as the scan goes, which may stop early
    else:
        samples = np.array(list(draws()))
        checks = zip(samples, _chamber_cones_match(G, roots, samples, base.halfspace_normals))
    for u, settled in checks:
        if not settled and not cone_equal(orbit_cone(G, u), base, G.tol):
            return False, u
    return True, None


def _chamber_cones_match(G: FiniteGroup, roots, samples: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Mask of the samples whose orbit cone clearly has the normals ``base``.

    Built without an orbit cone, with the bits :func:`~orbitpoly.cones.orbit_cone`
    would give.  A sample u farther than dim * eps_eq from every mirror is
    regular: two of its orbit points lie at least twice that far apart,
    since the segment between them crosses a mirror, so no dedup drops one.
    Its walls are read by one sign product against the mirror normals, as
    :meth:`~orbitpoly.group.RootData.walls` reads them, and its normals are
    the unit rows u - s u over them.  The mask holds where they are farther
    than eps_eq apart, contain u, and pair one to one with ``base`` within
    eps_eq (the pairing :func:`~orbitpoly.cones.cone_equal` finds).  The
    other samples are left to the orbit cone.
    """
    eps = G.tol.eps_eq
    m = len(base)
    images = np.matmul(G.stack[roots.mirror_elements], samples[:, None, :, None])[..., 0]  # s u
    here = samples @ roots.normals.T
    walls = np.sum((np.matmul(images, roots.normals.T) > 0) != (here > 0)[:, None, :], axis=2) == 1
    match = (np.min(np.abs(here), axis=1, initial=np.inf) > G.dim * eps) & (walls.sum(axis=1) == m)
    if m == 0 or not match.any():
        return match
    rows = samples[match, None, :] - images[match][walls[match]].reshape(-1, m, G.dim)
    normals = rows / np.linalg.norm(rows, axis=2, keepdims=True)
    i, j = np.triu_indices(m, 1)
    apart = np.max(np.abs(normals[:, i] - normals[:, j]), axis=2)
    gaps = np.max(np.abs(normals[:, :, None] - base[None, None]), axis=3)
    nearest = np.argmin(gaps, axis=2)
    match[match] = (
        np.all(apart > eps, axis=1)
        & (np.min(np.matmul(normals, samples[match, :, None]), axis=(1, 2)) >= -eps)
        & np.all(np.sort(nearest, axis=1) == np.arange(m), axis=1)
        & np.all(np.min(gaps, axis=2) <= eps, axis=1)
    )
    return match


def sp_check_pair(G: FiniteGroup, u, v) -> tuple[bool, np.ndarray | None]:
    """Is hull(O_u) + hull(O_v) itself an orbit hull?

    Scans orbit representatives v' of v for one with
    ``hull(O_u) + hull(O_v) = hull(O_(u+v'))``.  Scanning v' with u fixed
    suffices: every vertex of the sum is a sum of orbit points and the sum
    is group-invariant, so if it equals an orbit hull the base is u + v' up
    to the action.  Candidates are ordered by decreasing ``<u, v'>`` since a
    successful representative maximizes that pairing; first hit wins.

    The sum is never built.  It always contains hull(O_w), w = u + v', so
    equality holds iff its support stays within eps of the offset of every
    halfspace of hull(O_w): support functions add under Minkowski sums, so
    that asks ``max(O_u . n) + max(O_v . n) <= offset + eps``.  A cheap
    exact test comes first: orbit points lie on a sphere, so along
    n = w / |w| the orbit hull of w reaches only ``|w| = <u, n> + <v', n>``,
    and equality needs u and v' each to peak on its orbit at n (u and v' in
    one chamber).  A candidate failing that by more than eps is skipped.

    A group generated by reflections reads the halfspaces of hull(O_w)
    from root data, with no Qhull call: the rows are the same for every w,
    and so are the supports of O_u and O_v along them
    (:meth:`~orbitpoly.group.RootData.support`).  Any other group tests the
    rays and +-lineality of the orbit cone of w, at offsets ``<row, w>``
    (+-unit vectors when w = 0, as hull(O_0) = {0}).  That is exact: each
    facet of hull(O_w) passes through some g w, so its normal is g r for a
    ray r of that cone, whose lineality is normal to hull(O_w); and both
    supports are G-invariant.
    """
    u = as_vector(u, G.dim)
    v = as_vector(v, G.dim)
    eps = G.tol.eps_eq
    O_u = orbit(G, u).points
    O_v = orbit(G, v).points
    roots = root_data(G)
    candidates = O_v[np.argsort(-(O_v @ u), kind="stable")]
    # The first candidate decides almost every pair, so it goes alone.
    step = max(1, _BATCH_POINTS // max(len(O_u), len(O_v)))
    bounds = [0, *range(1, len(candidates), step), len(candidates)]
    for start, stop in zip(bounds, bounds[1:]):
        block = candidates[start:stop]
        if roots is not None:
            hits = block[_sp_holds(roots, u, O_u[None], v, O_v[None], block, eps)]
            if len(hits):
                return True, hits[0]
            continue
        for v_prime in block[_peaks_at_sum(u, O_u[None], O_v[None], block, eps)]:
            w = u + v_prime
            if np.linalg.norm(w) <= eps:
                rows = np.vstack([np.eye(G.dim), -np.eye(G.dim)])
            else:
                C = orbit_cone(G, w)
                rows = np.vstack([C.rays, C.lineality_basis, -C.lineality_basis])
            reach = (O_u @ rows.T).max(axis=0) + (O_v @ rows.T).max(axis=0)
            if np.all(reach <= rows @ w + eps):
                return True, v_prime
    return False, None


def _peaks_at_sum(U, O_U, O_V, V_prime, eps: float) -> np.ndarray:
    """The SP precheck of stacked candidates: do u and v' peak at n = w / |w|?

    Row i reads u = ``U[i]`` with orbit ``O_U[i]`` (rows may repeat a
    point), the orbit ``O_V[i]`` of v and its point v' = ``V_prime[i]``;
    a row of U, O_U or O_V broadcasts over the candidates.  The leads
    ``max(O_u . w) - <u, w>`` are compared with eps_eq |w|, which is the
    test along n scaled by |w|, so w = u + v' = 0 passes.
    """
    W = U + V_prime
    lead_u = np.matmul(O_U, W[:, :, None]).max(axis=(1, 2)) - np.sum(U * W, axis=-1)
    lead_v = np.matmul(O_V, W[:, :, None]).max(axis=(1, 2)) - np.sum(V_prime * W, axis=-1)
    slack = eps * np.linalg.norm(W, axis=-1)
    return (lead_u <= slack) & (lead_v <= slack)


def _sp_holds(roots, U, O_U, V, O_V, V_prime, eps: float) -> np.ndarray:
    """The SP pair test on root data, for stacked ``(u, v, v')``; see :func:`sp_check_pair`.

    Arguments as for :func:`_peaks_at_sum`, with v = ``V[i]``.  Row i holds
    when u and v' peak at w = u + v' and the supports of O_u and O_v add to
    at most the offsets of hull(O_w) + eps_eq along every root-data row.
    """
    reach = roots.support(U) + roots.support(V)
    fits = np.all(reach <= roots.support(U + V_prime) + eps, axis=-1)
    return fits & _peaks_at_sum(U, O_U, O_V, V_prime, eps)


def _orbits(G: FiniteGroup, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of stacked vectors: ``images[i]`` is ``G.stack @ vectors[i]``, to the bit.

    ``kept[i]`` masks the images :func:`~orbitpoly.group.orbit` keeps: all
    of them when their rounding keys are distinct, else those that
    ``distinct_rows`` keeps on that vector's images alone.  The keys come
    from one :func:`~orbitpoly.numerics.row_keys` call per batch of
    vectors.
    """
    images = np.matmul(G.stack, vectors[:, None, :, None])[..., 0]
    kept = np.ones(images.shape[:2], dtype=bool)
    step = max(1, _BATCH_POINTS // G.order)
    for start in range(0, len(vectors), step):
        keys = row_keys(images[start : start + step].reshape(-1, G.dim), G.tol)
        for i in range(start, min(start + step, len(vectors))):
            if len(set(keys[(i - start) * G.order : (i - start + 1) * G.order])) < G.order:
                kept[i] = False
                kept[i, distinct_rows(images[i], G.tol)] = True
    return images, kept


def _first_candidates_hold(G: FiniteGroup, roots, vectors: np.ndarray, pair_u, pair_v) -> np.ndarray:
    """Do the pairs ``(vectors[pair_u[i]], vectors[pair_v[i]])`` hold at their first SP candidate?

    The first candidate is the one :func:`sp_check_pair` tries first: the
    point v' of the orbit of v with the largest ``<u, v'>``, lowest index on
    ties.  It lies in u's closed chamber, so on a reflection group it
    decides the pair; a pair that fails here goes to ``sp_check_pair``.
    One orbit per vector, one pair test per batch of pairs.
    """
    images, kept = _orbits(G, vectors)
    # A dropped image stands in as the base, which leaves every maximum as it is.
    points = np.where(kept[..., None], images, images[:, :1])
    holds = np.empty(len(pair_u), dtype=bool)
    step = max(1, _BATCH_POINTS // G.order)
    for start in range(0, len(pair_u), step):
        iu, iv = pair_u[start : start + step], pair_v[start : start + step]
        U, O_U, O_V = vectors[iu], points[iu], points[iv]
        first = np.argmax(np.matmul(O_V, U[:, :, None])[..., 0], axis=1)
        V_prime = O_V[np.arange(len(iv)), first]
        holds[start : start + step] = _sp_holds(roots, U, O_U, vectors[iv], O_V, V_prime, G.tol.eps_eq)
    return holds


def chamber_representative(G: FiniteGroup, cone: PolyhedralCone, x) -> np.ndarray:
    """Orbit point of x lying in the given closed cone (first found)."""
    for p in orbit(G, x).points:
        if cone_contains(cone, p, G.tol):
            return p
    raise NotInChamberError("no orbit representative found in the cone")


def _wall_midpoints(cone: PolyhedralCone, tol: Tolerance) -> np.ndarray:
    """One relative-interior point per facet of the cone, tolerant duplicates dropped.

    The sum of the extreme rays lying on a facet sits in its relative
    interior; facets carried entirely by the lineality space fall back to a
    lineality direction.
    """
    points = []
    for normal in cone.halfspace_normals:
        on_wall = [r for r in cone.rays if abs(float(r @ normal)) <= tol.eps_eq]
        if on_wall:
            points.append(unit(np.sum(on_wall, axis=0)))
        elif cone.lineality_dim:
            points.append(cone.lineality_basis[0])
    points = np.array(points).reshape(-1, cone.ambient_dim)
    return points[distinct_rows(points, tol)]


def sp_equivalence_report(G: FiniteGroup, seed: int = 42) -> SPReport:
    """Run the SP check and its three equivalent criteria; demand agreement.

    The SP sample is structured around the places where the property can
    break: wall midpoints of the regular base's cone, its extreme rays, the
    base itself, plus seeded random pairs.  One pair whose summed hull is
    not an orbit hull settles a false verdict, so the pair scan stops at the
    first failing pair, which is the ``sp`` witness; a true verdict checks
    every pair.  ``sp_pairs_checked`` counts the pairs checked.  The other
    three criteria report their first witness too, and all four always
    run: a disagreement among their verdicts raises
    InconsistentCriteriaError.

    On a group with root data every pair is first tested at its first
    candidate in one array pass (:func:`_first_candidates_hold`); a pair
    failing there goes through :func:`sp_check_pair`, in pair order.
    """
    tol = G.tol
    rng = np.random.default_rng(seed)
    v_reg = find_regular(G, seed)
    base_cone = orbit_cone(G, v_reg)

    # The midpoints are deduped among themselves first, so chains of
    # near-duplicates resolve in that order.
    structured = np.vstack(
        [unit(v_reg), base_cone.rays.reshape(-1, G.dim), _wall_midpoints(base_cone, tol)]
    )
    probes = structured[distinct_rows(structured, tol)]

    # The pairs (probes[i], probes[j]) for i <= j, then the random pairs
    # (vectors[k], vectors[k + 1]), drawn u first.  Every random pair is
    # drawn before the scan, which may stop early, so the peak points below
    # get the same draws whatever the verdict.
    vectors = np.vstack([probes, rng.standard_normal((2 * _N_RANDOM_PAIRS, G.dim))])
    pair_u, pair_v = np.triu_indices(len(probes))
    randoms = len(probes) + 2 * np.arange(_N_RANDOM_PAIRS)
    pair_u, pair_v = np.r_[pair_u, randoms], np.r_[pair_v, randoms + 1]

    roots = root_data(G)
    if roots is None:
        settled = np.zeros(len(pair_u), dtype=bool)
    else:
        settled = _first_candidates_hold(G, roots, vectors, pair_u, pair_v)
    sp_ok, sp_witness = True, f"no counterexample found ({len(pair_u)} pairs)"
    sp_pairs_checked = len(pair_u)
    for i, (a, b) in enumerate(zip(vectors[pair_u], vectors[pair_v])):
        if not settled[i] and not sp_check_pair(G, a, b)[0]:
            sp_ok, sp_pairs_checked = False, i + 1
            sp_witness = {"u": a.tolist(), "v": b.tolist()}
            break

    peak_points = np.vstack([probes, rng.standard_normal((_N_RANDOM_PAIRS, G.dim))])
    peak_ok, peak_witness = criterion_peak(G, v_reg, peak_points)

    coxeter_ok = is_reflection_generated(G)

    local_ok, local_witness = criterion_local_cone(G, v_reg, seed=seed + 1)

    results = {
        "sp": (sp_ok, sp_witness),
        "peak_i": (
            peak_ok,
            peak_witness if peak_witness is not None else f"no counterexample found ({len(peak_points)} test points)",
        ),
        "coxeter_ii": (coxeter_ok, None),
        "local_cone_iii": (
            local_ok,
            local_witness if local_witness is not None else f"no counterexample found ({_N_LOCAL_SAMPLES} local samples)",
        ),
    }
    verdicts = {key: passed for key, (passed, _) in results.items()}
    if len(set(verdicts.values())) != 1:
        raise InconsistentCriteriaError(
            f"criteria disagree for {G.name or 'group'}: {verdicts}"
        )
    witnesses = {
        key: witness for key, (passed, witness) in results.items() if not passed and witness is not None
    }
    return SPReport(
        group=G.name,
        verdict=verdicts["sp"],
        criterion_results=results,
        witnesses=witnesses,
        seed=seed,
        sp_pairs_checked=sp_pairs_checked,
    )
