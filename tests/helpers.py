"""Independent oracles used to derive expected values.

Extreme points come from support sweeps, dihedral groups from the
closed-form matrices, reflection groups of rank 1 to 5 from their simple
roots and H4 from its 120 roots (the unit icosians), permutohedron
membership from partial-sum majorization, and facet-row merging from the
plain pairwise union-find; none of these touch
the production hull/cone code paths.  Two references replay slower
production algorithms on top of the library: the SP pair scan that builds
the Minkowski sum, reflection generation by closing the reflections, and
the hull whose uncertified vertex candidates each cost an LP.
The polar sampler primitives have references too: scipy's QR-based Haar
sampler and the three-operand conjugation einsum; so does the Cartan
orthogonality check, as its per-point loop.  The group layer's references
are its per-element loops: the stack closure that inserts one product at a
time, and orbits, stabilizers and reflections one element at a time.
"""

import itertools
import math

import numpy as np
from scipy.stats import special_ortho_group

from orbitpoly import polytope
from orbitpoly.coxeter import detect_reflection
from orbitpoly.errors import GeometryError, OrderExceededError
from orbitpoly.group import MAX_ORDER_DEFAULT, FiniteGroup, Orbit, close_generators, orbit
from orbitpoly.numerics import DEFAULT_TOL, ToleranceBuckets, close
from orbitpoly.polar import _SYM_BASIS
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


def named_group(groups, name):
    """A catalog group from ``groups``, or one closed from the generators above."""
    if name in groups:
        return groups[name]
    if name in SIMPLE_ROOTS:
        return close_generators(reflection_generators(name), name=name)
    return close_generators(NON_REFLECTION_GENERATORS[name], name=name)


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
    return Orbit(base=v, points=np.array(buckets.items), point_to_element=tuple(witnesses))


def stabilizer_order_reference(G, v, tol=DEFAULT_TOL):
    """Number of elements fixing v, one element at a time."""
    v = np.asarray(v, dtype=float)
    return sum(close(g @ v, v, tol) for g in G.elements)


def group_reflections_reference(G, tol=DEFAULT_TOL):
    """Reflections found by one rank test per element."""
    found = [detect_reflection(g, tol, element_index=i) for i, g in enumerate(G.elements)]
    return [r for r in found if r is not None]


def sp_check_pair_reference(G, u, v, tol=DEFAULT_TOL):
    """SP pair scan that builds hull(O_u) + hull(O_v) and compares vertex sets.

    Same candidate order as the production scan: decreasing ``<u, v'>``,
    stable, first hit wins.
    """
    u = np.asarray(u, dtype=float)
    total = minkowski_sum(hull(orbit(G, u, tol).points, tol), hull(orbit(G, v, tol).points, tol), tol)
    candidates = orbit(G, v, tol).points
    for idx in np.argsort(-(candidates @ u), kind="stable"):
        if polytope_equal(total, hull(orbit(G, u + candidates[idx], tol).points, tol), tol):
            return True, candidates[idx]
    return False, None


def hull_reference(points, tol=DEFAULT_TOL):
    """Hull that tests every uncertified vertex candidate by its own LP.

    Same Qhull, facet merge and probe certification as the production hull;
    each candidate no probe certifies is then removed when an LP finds it
    within eps_eq of the hull of the candidates not removed so far, in
    candidate order, and the survivors are hulled afresh.
    """
    pts = polytope._hull_points(points)
    origin, basis, chart = polytope._affine_chart(pts, tol)
    if len(basis) <= 1:
        return hull(pts, tol)  # no candidate to certify
    qh, normals, certified = polytope._probe_facets(pts, chart, basis, tol)
    candidates = pts[qh.vertices]
    removed = polytope._lp_non_extreme(candidates, certified, tol)
    if removed.all():
        raise GeometryError("hull construction inconsistent: no vertex survived filtering")
    if removed.any():
        return hull_reference(candidates[~removed], tol)
    return polytope._chart_polytope(candidates, normals, origin, basis, tol)


def is_reflection_generated_reference(G, tol=DEFAULT_TOL):
    """Close the group's reflections and compare orders."""
    mirrors = [g for g in G.elements if detect_reflection(g, tol) is not None]
    if not mirrors:
        return G.order == 1
    return close_generators(mirrors, tol=tol, max_order=G.order).order == G.order


def sample_rotations_reference(seed, count):
    """Haar rotations from scipy: batched LAPACK QR of seeded Gaussians, sign-fixed."""
    rng = np.random.default_rng(seed)
    mats = special_ortho_group.rvs(3, size=count, random_state=rng)
    return np.asarray(mats).reshape(count, 3, 3)


def conjugation_action_reference(rotations):
    """5x5 matrices of A -> R A R^T in the symmetric traceless basis, by one einsum chain."""
    rotations = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    transformed = np.einsum("sac,jcd,sbd->sjab", rotations, _SYM_BASIS, rotations)
    return np.einsum("iab,sjab->sij", _SYM_BASIS, transformed)


def check_cartan_orthogonality_reference(model, n_samples=200, seed=0):
    """Worst normalized tangent/subspace overlap, one sampled point at a time.

    Calls the model's tangent map at every sampled point instead of reading
    it off at the unit vectors; returns the ``max_violation`` value only.
    """
    rng = np.random.default_rng(seed)
    basis = model.cartan_basis
    worst = 0.0
    for _ in range(n_samples):
        u = model.ambient(rng.standard_normal(len(basis)))
        tangents = np.atleast_2d(model.tangent_basis_at(u))
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
