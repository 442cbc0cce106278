"""Independent oracles used to derive expected values.

Extreme points come from support sweeps, dihedral groups from the
closed-form matrices, reflection groups of rank 1 to 5 from their simple
roots and H4 from its 120 roots (the unit icosians), permutohedron
membership from partial-sum majorization, and facet-row merging from the
plain pairwise union-find; none of these touch
the production hull/cone code paths.  Six references replay slower
production algorithms on top of the library: the SP pair scan that builds
the Minkowski sum, reflection generation by closing the reflections, the
hull whose uncertified vertex candidates each cost an LP, the cone
reduction that decides each halfspace by an LP, the cone rays found
by one SVD per (d - 1)-subset of normals, and the Voronoi check on
(samples x points x dim) arrays with one einsum for the cell margins.
The polar group elements have a reference too, scipy's expm of the same
seeded algebra elements; so does the Cartan orthogonality check, as its
per-point loop.  The group layer's references
are its per-element loops: the stack closure that inserts one product at a
time, and orbits, stabilizers and reflections one element at a time.  The
tolerant dedup's reference inserts one row at a time (ToleranceBuckets), and
the root-data supports' reference takes each row's block maximum by
``np.maximum.at``.  The ``theorem2`` report's reference checks one probe
at a time: its SP scan tries one pair and one candidate at a time, and its
peak and local-cone criteria take one orbit and one orbit cone per probe.
"""

import itertools
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog

from orbitpoly import cones, coxeter, polytope
from orbitpoly.catalog import CATALOG_NAMES
from orbitpoly.coxeter import detect_reflection
from orbitpoly.errors import GeometryError, InconsistentCriteriaError, NotRegularError, OrderExceededError
from orbitpoly.group import (
    MAX_ORDER_DEFAULT,
    FiniteGroup,
    Orbit,
    close_generators,
    find_regular,
    is_regular,
    orbit,
    root_data,
)
from orbitpoly.numerics import DEFAULT_TOL, close, distinct_rows, round_key, unit
from orbitpoly.polar import _SKEW_BASIS, _SYM_BASIS, sym_mat, sym_vec
from orbitpoly.polytope import hull, minkowski_sum, polytope_equal


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def refl2(theta):
    """Reflection across the line at angle theta/2."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def dihedral_matrices(k):
    """All 2k elements of the dihedral group of the regular k-gon."""
    mats = [rot2(2 * math.pi * j / k) for j in range(k)]
    mats += [refl2(2 * math.pi * j / k) for j in range(k)]
    return mats


def cyclic_matrices(k):
    return [rot2(2 * math.pi * j / k) for j in range(k)]


GOLDEN = (1 + math.sqrt(5)) / 2

# Simple roots of reflection groups outside the built-in catalog.
SIMPLE_ROOTS = {
    "a1": ([1],),  # order 2
    "h3": ([1, 0, 0], [-GOLDEN, 1 / GOLDEN, -1], [0, 0, 1]),  # order 120
    "d4": ([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]),  # order 192
    "b4": ([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]),  # order 384
    "f4": ([0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [1, -1, -1, -1]),  # order 1152
    "d5": ([1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1], [0, 0, 0, 1, 1]),  # order 1920
    "b5": ([1, -1, 0, 0, 0], [0, 1, -1, 0, 0], [0, 0, 1, -1, 0], [0, 0, 0, 1, -1], [0, 0, 0, 0, 1]),  # order 3840
    # S5 permuting the coordinates of R^5, fixing (1, ..., 1).  Order 120.
    "a4": tuple(np.eye(5)[i] - np.eye(5)[i + 1] for i in range(4)),
    # S6 permuting the coordinates of R^6: it fixes (1, ..., 1), so it is
    # not essential.  Order 720.
    "a5": tuple(np.eye(6)[i] - np.eye(6)[i + 1] for i in range(5)),
}


def reflection(normal):
    """Orthogonal reflection across the hyperplane with the given normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return np.eye(len(n)) - 2.0 * np.outer(n, n)


def reflection_generators(name):
    """Simple reflections generating the named group of SIMPLE_ROOTS."""
    return [reflection(r) for r in SIMPLE_ROOTS[name]]


def icosians():
    """The 120 unit icosians, the roots of H4: the 24 Hurwitz units and the
    96 even permutations of (0, +-1, +-1/phi, +-phi) / 2."""
    units = [s * np.eye(4)[i] for i in range(4) for s in (1, -1)]
    units += [0.5 * np.array(signs) for signs in itertools.product((1, -1), repeat=4)]
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        if inversions % 2 == 0:
            for signs in itertools.product((1, -1), repeat=3):
                root = np.empty(4)
                root[list(perm)] = np.array([0.0, signs[0], signs[1] / GOLDEN, signs[2] * GOLDEN]) / 2
                units.append(root)
    return np.array(units)


def h4_group():
    """H4 (order 14400), closed from the reflections in its 60 mirrors."""
    mirrors = [r for r in icosians() if r[np.flatnonzero(np.abs(r) > 1e-9)[0]] > 0]
    return close_generators([reflection(r) for r in mirrors], name="h4")


def rot3z(theta):
    """Rotation of 3-space about the z axis."""
    return np.block([[rot2(theta), np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])


def turned_generators(generators, angle=1e-7):
    """Generator k turned by ``angle`` in the plane of axes (k, k + 1) mod n."""
    turned = []
    for k, g in enumerate(generators):
        n = len(g)
        i, j = k % n, (k + 1) % n
        turn = np.eye(n)
        turn[[i, j], [i, j]] = math.cos(angle)
        turn[i, j], turn[j, i] = -math.sin(angle), math.sin(angle)
        turned.append((turn @ np.array(g, dtype=float)).tolist())
    return turned


_CYCLE3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
_MIRROR_Z = np.diag([1.0, 1.0, -1.0])
_B4 = reflection_generators("b4")

# Finite groups that are not generated by reflections.  c3h and c4_x_mirror
# contain a reflection (z -> -z), so reflections alone do not decide it.
NON_REFLECTION_GENERATORS = {
    "chiral_t": [_CYCLE3, np.diag([1.0, -1.0, -1.0])],  # rotations of the tetrahedron, order 12
    "chiral_o": [_CYCLE3, rot3z(math.pi / 2)],  # rotations of the cube, order 24
    "minus_i3": [-np.eye(3)],  # order 2
    "c3h": [rot3z(2 * math.pi / 3), _MIRROR_Z],  # order 6
    "c4_x_mirror": [rot3z(math.pi / 2), _MIRROR_Z],  # order 8
    # The rotations in B4, generated by s1 s2, s1 s3, s1 s4; order 192.
    "b4_rotations": [_B4[0] @ s for s in _B4[1:]],
}


# Reflection groups and controls whose cone rays are checked by enumeration.
RAY_GROUPS = (
    *CATALOG_NAMES, "h3", "d4", "f4", "chiral_t", "chiral_o", "c3h", "c4_x_mirror", "b4_rotations", "a4", "a5",
)


def named_group(groups, name):
    """A catalog group from ``groups``, or one closed from the generators above."""
    if name in groups:
        return groups[name]
    if name in SIMPLE_ROOTS:
        return close_generators(reflection_generators(name), name=name)
    return close_generators(NON_REFLECTION_GENERATORS[name], name=name)


def support_reference(roots, w):
    """``RootData.support`` with the block maxima taken by ``np.maximum.at`` into a -inf array."""
    values = roots.rows @ np.asarray(w, dtype=float)
    m = len(roots.row_coweight)
    top = np.full(roots.rank, -np.inf)
    np.maximum.at(top, roots.row_coweight, values[:m])
    values[:m] = top[roots.row_coweight]
    return values


class ToleranceBuckets:
    """Append-only container that dedups arrays under the tolerance policy.

    Lookup is by rounding key; same-key candidates are re-checked by exact
    max-abs distance, so two stored items are never within eps_eq of each
    other along the same key.  One insert at a time, the reference for
    :func:`orbitpoly.numerics.distinct_rows`.
    """

    def __init__(self, tol=DEFAULT_TOL):
        self.tol = tol
        self.items = []
        self._buckets = {}

    def __len__(self):
        return len(self.items)

    def find(self, arr):
        key = round_key(arr, self.tol)
        for idx in self._buckets.get(key, ()):
            if close(self.items[idx], arr, self.tol):
                return idx
        return None

    def insert(self, arr):
        """Return (index, inserted). ``inserted`` is False on a tolerant match."""
        found = self.find(arr)
        if found is not None:
            return found, False
        arr = np.asarray(arr, dtype=float).copy()
        arr.setflags(write=False)
        idx = len(self.items)
        self.items.append(arr)
        self._buckets.setdefault(round_key(arr, self.tol), []).append(idx)
        return idx, True


def close_generators_reference(gens, tol=DEFAULT_TOL, max_order=MAX_ORDER_DEFAULT, name=""):
    """Stack closure one product at a time: pop the newest element, multiply
    it by each generator, insert every product that matches no stored one."""
    mats = [np.asarray(g, dtype=float) for g in gens]
    dim = mats[0].shape[0]
    buckets = ToleranceBuckets(tol)
    buckets.insert(np.eye(dim))
    queue = [0]
    while queue:
        current = buckets.items[queue.pop()]
        for g in mats:
            idx, inserted = buckets.insert(current @ g)
            if inserted:
                if len(buckets) > max_order:
                    raise OrderExceededError(f"closure exceeded max_order={max_order}")
                queue.append(idx)
    elements = tuple(buckets.items)
    gen_indices = tuple(
        next(j for j, e in enumerate(elements) if close(e, g, tol)) for g in mats
    )
    return FiniteGroup(dim=dim, elements=elements, generator_indices=gen_indices, name=name, tol=tol)


def orbit_reference(G, v, tol=DEFAULT_TOL):
    """Orbit by inserting g v for each element in turn."""
    v = np.asarray(v, dtype=float)
    buckets = ToleranceBuckets(tol)
    witnesses = []
    for i, g in enumerate(G.elements):
        _, inserted = buckets.insert(g @ v)
        if inserted:
            witnesses.append(i)
    return Orbit(base=v, points=np.array(buckets.items), point_to_element=np.array(witnesses, dtype=np.intp))


def stabilizer_order_reference(G, v, tol=DEFAULT_TOL):
    """Number of elements fixing v, one element at a time."""
    v = np.asarray(v, dtype=float)
    return sum(close(g @ v, v, tol) for g in G.elements)


def group_reflections_reference(G, tol=DEFAULT_TOL):
    """Reflections found by one rank test per element."""
    found = [detect_reflection(g, tol, element_index=i) for i, g in enumerate(G.elements)]
    return [r for r in found if r is not None]


def sp_check_pair_reference(G, u, v):
    """SP pair scan that builds hull(O_u) + hull(O_v) from the orbits and compares vertex sets.

    Same candidate order as the production scan: decreasing ``<u, v'>``,
    stable, first hit wins.  Decided at the group's tolerance.
    """
    tol = G.tol
    u = np.asarray(u, dtype=float)
    orbit_v = orbit(G, v)
    total = minkowski_sum(orbit(G, u), orbit_v, tol)
    candidates = orbit_v.points
    for idx in np.argsort(-(candidates @ u), kind="stable"):
        if polytope_equal(total, hull(orbit(G, u + candidates[idx]).points, tol), tol):
            return True, candidates[idx]
    return False, None


def sp_check_pair_loop_reference(G, u, v):
    """The SP pair scan one candidate at a time, first hit wins.

    Peak precheck, then the support inequalities along the root-data rows,
    or along the rays and +-lineality of the orbit cone of w = u + v' on a
    group without root data; :func:`orbitpoly.coxeter.sp_check_pair` tests
    the root-data candidates in one array pass.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    eps = G.tol.eps_eq
    O_u = orbit(G, u).points
    O_v = orbit(G, v).points
    roots = root_data(G)
    if roots is not None:
        reach = roots.support(u) + roots.support(v)
    for idx in np.argsort(-(O_v @ u), kind="stable"):
        v_prime = O_v[idx]
        w = u + v_prime
        norm_w = np.linalg.norm(w)
        if norm_w > 0.0:
            n = w / norm_w
            if np.max(O_u @ n) - u @ n > eps or np.max(O_v @ n) - v_prime @ n > eps:
                continue
        if roots is None:
            if norm_w <= eps:
                rows = np.vstack([np.eye(G.dim), -np.eye(G.dim)])
            else:
                C = cones.orbit_cone(G, w)
                rows = np.vstack([C.rays, C.lineality_basis, -C.lineality_basis])
            offsets = rows @ w
            reach = (O_u @ rows.T).max(axis=0) + (O_v @ rows.T).max(axis=0)
        else:
            offsets = roots.support(w)
        if np.all(reach <= offsets + eps):
            return True, v_prime
    return False, None


def criterion_peak_reference(G, v_reg, test_points):
    """The peak criterion one orbit at a time, stopping at the first tied point."""
    v_reg = np.asarray(v_reg, dtype=float)
    if not is_regular(G, v_reg):
        raise NotRegularError("the peak criterion requires a regular base vector")
    for u in test_points:
        u = np.asarray(u, dtype=float)
        values = orbit(G, u).points @ v_reg
        if int(np.sum(values >= values.max() - G.tol.eps_eq)) > 1:
            return False, u
    return True, None


def local_peak_failures(G, v, radius_factor=0.1, n_samples=50, seed=0):
    """Directions near v for which v is not the unique orbit maximizer.

    Samples w with |w - v| < radius_factor * |v| and records every failure
    instead of asserting; the radius is a concrete stand-in for an
    existence-only neighborhood.
    """
    v = np.asarray(v, dtype=float)
    orb = orbit(G, v)
    rng = np.random.default_rng(seed)
    vnorm = float(np.linalg.norm(v))
    failures = []
    for s in range(n_samples):
        x = rng.standard_normal(G.dim)
        x /= np.linalg.norm(x)
        w = v + x * radius_factor * vnorm * rng.uniform() ** (1.0 / G.dim)
        values = orb.points @ w
        top = float(values.max())
        tied = np.where(values >= top - G.tol.eps_eq)[0]
        if len(tied) != 1 or not close(orb.points[tied[0]], v, G.tol):
            failures.append({"sample_index": s, "direction": w.tolist(), "tied": len(tied)})
    return failures


def criterion_local_cone_reference(G, v_reg, seed=0):
    """Local cone stability by one orbit cone and one cone_equal per sample, drawn as it goes."""
    v_reg = np.asarray(v_reg, dtype=float)
    if not is_regular(G, v_reg):
        raise NotRegularError("local cone criterion requires a regular base vector")
    base = cones.orbit_cone(G, v_reg)
    walls = base.halfspace_normals @ v_reg
    radius = 0.25 * float(np.min(walls) if len(walls) else np.linalg.norm(v_reg))
    rng = np.random.default_rng(seed)
    for _ in range(coxeter._N_LOCAL_SAMPLES):
        x = rng.standard_normal(G.dim)
        x /= np.linalg.norm(x)
        u = v_reg + x * radius * rng.uniform() ** (1.0 / G.dim)
        if not cones.cone_equal(cones.orbit_cone(G, u), base, G.tol):
            return False, u
    return True, None


def sp_equivalence_report_reference(G, seed=42):
    """``sp_equivalence_report`` with one call per probe: the pair scan calls
    :func:`sp_check_pair_loop_reference` on each pair in turn, and the peak
    and local-cone criteria are the loops above.  Same probes, draws, report
    and errors."""
    tol = G.tol
    rng = np.random.default_rng(seed)
    v_reg = find_regular(G, seed)
    base_cone = cones.orbit_cone(G, v_reg)
    structured = np.vstack(
        [unit(v_reg), base_cone.rays.reshape(-1, G.dim), coxeter._wall_midpoints(base_cone, tol)]
    )
    probes = list(structured[distinct_rows(structured, tol)])
    pairs = [(a, b) for i, a in enumerate(probes) for b in probes[i:]]
    for _ in range(coxeter._N_RANDOM_PAIRS):
        pairs.append((rng.standard_normal(G.dim), rng.standard_normal(G.dim)))

    sp_ok, sp_witness = True, f"no counterexample found ({len(pairs)} pairs)"
    sp_pairs_checked = len(pairs)
    for i, (a, b) in enumerate(pairs):
        if not sp_check_pair_loop_reference(G, a, b)[0]:
            sp_ok, sp_pairs_checked = False, i + 1
            sp_witness = {"u": np.asarray(a).tolist(), "v": np.asarray(b).tolist()}
            break

    peak_points = probes + [rng.standard_normal(G.dim) for _ in range(coxeter._N_RANDOM_PAIRS)]
    peak_ok, peak_witness = criterion_peak_reference(G, v_reg, peak_points)
    local_ok, local_witness = criterion_local_cone_reference(G, v_reg, seed=seed + 1)
    results = {
        "sp": (sp_ok, sp_witness),
        "peak_i": (
            peak_ok,
            peak_witness if peak_witness is not None else f"no counterexample found ({len(peak_points)} test points)",
        ),
        "coxeter_ii": (root_data(G) is not None, None),
        "local_cone_iii": (
            local_ok,
            local_witness
            if local_witness is not None
            else f"no counterexample found ({coxeter._N_LOCAL_SAMPLES} local samples)",
        ),
    }
    verdicts = {key: passed for key, (passed, _) in results.items()}
    if len(set(verdicts.values())) != 1:
        raise InconsistentCriteriaError(f"criteria disagree for {G.name or 'group'}: {verdicts}")
    return coxeter.SPReport(
        group=G.name,
        verdict=verdicts["sp"],
        criterion_results=results,
        witnesses={key: w for key, (passed, w) in results.items() if not passed and w is not None},
        seed=seed,
        sp_pairs_checked=sp_pairs_checked,
    )


def voronoi_reference(G, v, n_samples, seed, extra_points=None):
    """The Voronoi check on (samples x points x dim) arrays and one einsum.

    Same samples, cones and decisions as :func:`orbitpoly.cones.voronoi_consistency`,
    with the distances taken by ``np.linalg.norm`` along the coordinates and
    each cell's margin as the minimum over all its walls of one einsum.
    """
    v = np.asarray(v, dtype=float)
    tol = G.tol
    orb = orbit(G, v)
    base_normals = cones.orbit_cone(G, v).halfspace_normals
    cell_walls = base_normals @ G.stack[orb.point_to_element].transpose(0, 2, 1)

    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, G.dim)) * max(1.0, float(np.linalg.norm(v)))
    if extra_points is not None and len(extra_points):
        samples = np.vstack([samples, np.atleast_2d(np.asarray(extra_points, dtype=float))])

    dists = np.linalg.norm(samples[:, None, :] - orb.points[None, :, :], axis=2)
    nearest = dists <= dists.min(axis=1, keepdims=True) + tol.eps_eq
    if cell_walls.shape[1] == 0:
        member = np.ones((len(samples), len(orb)), dtype=bool)
        min_wall_distance = None
    else:
        low = np.einsum("sn,kmn->skm", samples, cell_walls).min(axis=2)
        member = low >= -tol.eps_eq
        min_wall_distance = float(np.abs(low).min())

    violations = tuple(
        {
            "sample_index": int(s),
            "point_index": int(k),
            "nearest": bool(nearest[s, k]),
            "in_cone": bool(member[s, k]),
            "sample": samples[s].tolist(),
        }
        for s, k in np.argwhere(nearest != member)
    )
    return cones.VoronoiReport(
        group=G.name,
        base=v,
        n_points=len(orb),
        n_samples=len(samples),
        seed=seed,
        violations=violations,
        min_wall_distance=min_wall_distance,
    )

_HIGHS_MIN_FEASIBILITY_TOL = 1e-10


def within_hull(point, others, eps):
    """Is ``point`` within eps (max-norm) of the convex hull of ``others``?

    Feasibility LP over convex-combination weights.  HiGHS's own feasibility
    tolerance (1e-7 by default) would widen eps by up to that much, so it is
    set to a tenth of eps, but no lower than the smallest value HiGHS accepts.
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


def hull_reference(points, tol=DEFAULT_TOL):
    """Hull that tests every uncertified vertex candidate by its own LP.

    Same Qhull, facet merge and probe certification as the production hull;
    each candidate no probe certifies is then removed when :func:`within_hull`
    finds it within eps_eq of the hull of the candidates not removed so far,
    in candidate order.  When one is removed, the survivors' facets come
    from one Qhull of their chart coordinates, as in production.
    """
    pts = polytope._hull_points(points)
    origin, basis, chart = polytope._affine_chart(pts, tol)
    if len(basis) <= 1:
        return hull(pts, tol)  # no candidate to certify
    qh, normals, certified = polytope._probe_facets(pts, chart, basis, tol)
    candidates, at = pts[qh.vertices], chart[qh.vertices]
    removed = np.zeros(len(candidates), dtype=bool)
    for j in np.flatnonzero(~certified):
        others = candidates[~removed & (np.arange(len(candidates)) != j)]
        if len(others) and within_hull(candidates[j], others, tol.eps_eq):
            removed[j] = True
    if removed.any():
        kept = at[~removed]
        normals = polytope._facet_normals(polytope._qhull(kept), kept, basis, tol)
    return polytope._chart_polytope(candidates[~removed], normals, origin, basis, tol)


def irredundant_reference(normals, tol=DEFAULT_TOL):
    """Greedy LP reduction of cone normals to an irredundant set, in input order.

    A normal n is essential iff the cone of the other constraints meets
    ``<., n> < 0``; a HiGHS LP over the unit box decides it at a 1e-7 cut.
    Removing a redundant constraint never changes the cone, so constraints
    are dropped as they are found.
    """
    normals = cones._distinct_unit_rows(np.atleast_2d(np.asarray(normals, dtype=float)), tol)
    current = list(normals)
    i = 0
    while i < len(current) and len(current) > 1:
        others = np.array(current[:i] + current[i + 1:])
        res = linprog(
            c=current[i],
            A_ub=-others,
            b_ub=np.zeros(len(others)),
            bounds=[(-1, 1)] * len(current[i]),
            method="highs",
        )
        if res.status != 0:
            raise GeometryError(f"feasibility LP failed during cone reduction: {res.message}")
        if res.fun < -1e-7:
            i += 1
        else:
            current.pop(i)
    return np.array(current) if current else np.zeros((0, normals.shape[1]))


def rays_reference(normals, dim, tol=DEFAULT_TOL):
    """Extreme rays and lineality of ``{u : N u >= 0}`` by subset enumeration.

    Same SVD chart as the production rays.  In the chart the cone is
    pointed, and each (d - 1)-subset of normals of rank d - 1 has a kernel
    line; a direction on it that satisfies every normal is an extreme ray.
    Subsets come in lexicographic order and the first copy of each ray is
    kept: a ray within eps_eq of any kept one is dropped (compared with
    every kept ray, not by rounding key, which can keep two copies 2e-10
    apart).  One SVD per subset, C(m, d - 1) of them.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float)).reshape(-1, dim)
    if len(normals) == 0:
        return np.zeros((0, dim)), np.eye(dim)
    _, svals, vt = np.linalg.svd(normals, full_matrices=True)
    d = int(np.sum(svals > tol.eps_rank))
    lineality, chart = vt[d:], vt[:d]
    if d == 0:
        return np.zeros((0, dim)), np.eye(dim)
    N = normals @ chart.T
    found = []

    def consider(z):
        for ray in (z, -z):
            if np.min(N @ ray) >= -tol.eps_eq:
                if not any(close(ray, r, tol) for r in found):
                    found.append(ray)
                return

    if d == 1:
        consider(np.array([1.0]))
    else:
        for subset in itertools.combinations(range(len(N)), d - 1):
            _, s, v = np.linalg.svd(N[list(subset)], full_matrices=True)
            if int(np.sum(s > tol.eps_rank)) == d - 1:
                consider(v[d - 1])
    return np.array(found).reshape(-1, d) @ chart, lineality


def is_reflection_generated_reference(G, tol=DEFAULT_TOL):
    """Close the group's reflections and compare orders."""
    mirrors = [g for g in G.elements if detect_reflection(g, tol) is not None]
    if not mirrors:
        return G.order == 1
    return close_generators(mirrors, tol=tol, max_order=G.order).order == G.order


def group_elements_reference(model, seed, count):
    """The seeded elements of ``polar.group_images`` as matrices, by scipy's expm.

    The same draw, xi uniform in [-pi, pi]^dim_k from ``default_rng(seed)``,
    exponentiated one element at a time by Pade approximation.
    """
    xi = np.random.default_rng(seed).uniform(-np.pi, np.pi, (count, len(model.algebra)))
    return np.array([expm(np.tensordot(x, model.algebra, axes=1)) for x in xi])


def check_cartan_orthogonality_reference(model, n_samples=200, seed=0):
    """Worst normalized tangent/subspace overlap, one sampled point at a time.

    Forms the tangents X_t u at every sampled point: for sym3 as the
    coordinates of the commutators [S_t, U] of the skew generators with the
    matrix of u, for the other models as the products of the algebra with
    u.  Returns the ``max_violation`` value only.
    """
    rng = np.random.default_rng(seed)
    basis = model.cartan_basis
    worst = 0.0
    for _ in range(n_samples):
        u = model.ambient(rng.standard_normal(len(basis)))
        if model.name == "sym3_traceless":
            a = sym_mat(u)
            tangents = np.array([sym_vec(x @ a - a @ x) for x in _SKEW_BASIS])
        else:
            tangents = model.algebra @ u
        norms = np.linalg.norm(tangents, axis=1)
        keep = norms > 1e-12
        if not np.any(keep):
            continue
        overlaps = np.abs(tangents[keep] @ basis.T) / norms[keep, None]
        worst = max(worst, float(overlaps.max()))
    return worst


def merge_facet_rows_reference(rows, eps):
    """Pairwise union-find merge of rows closer than eps in max-norm.

    Quadratic reference for the production merge: groups come in the order
    of their smallest member and average their members in index order.
    """
    k = len(rows)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(rows[i] - rows[j])) < eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return np.array([rows[members].mean(axis=0) for members in groups.values()])


def extreme_points_2d(points, n_dirs=3600):
    """Extreme points of a planar point set by support sweep.

    A point is recorded when it is the unique maximizer in some swept
    direction; for the small generic polygons used in tests a fine sweep
    recovers exactly the vertex set.
    """
    points = np.asarray(points, dtype=float)
    found = {}
    for j in range(n_dirs):
        theta = 2 * math.pi * j / n_dirs
        d = np.array([math.cos(theta), math.sin(theta)])
        vals = points @ d
        top = vals.max()
        winners = np.where(vals >= top - 1e-12)[0]
        if len(winners) == 1:
            found[int(winners[0])] = True
    return points[sorted(found)]


def match_point_sets(A, B, eps=1e-8):
    """Do two point stacks coincide as sets within eps?"""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if len(A) != len(B):
        return False
    used = np.zeros(len(B), dtype=bool)
    for a in A:
        dists = np.where(used, np.inf, np.linalg.norm(B - a, axis=1))
        j = int(np.argmin(dists))
        if dists[j] > eps:
            return False
        used[j] = True
    return bool(used.all())


def in_permutohedron(point, base, eps=1e-8):
    """Majorization test: point lies in the hull of all permutations of base.

    Requires equal coordinate sums and every descending partial sum of the
    point bounded by the corresponding partial sum of the sorted base.
    """
    point = np.sort(np.asarray(point, dtype=float))[::-1]
    base = np.sort(np.asarray(base, dtype=float))[::-1]
    if abs(point.sum() - base.sum()) > eps:
        return False
    return bool(np.all(np.cumsum(point) <= np.cumsum(base) + eps))


def sorted_pairing(a, d):
    """Largest inner product between coordinate rearrangements of a and d."""
    return float(np.sort(np.asarray(a)) @ np.sort(np.asarray(d)))
