"""Independent oracles used to derive expected values.

Nothing here touches the production hull/cone code paths: extreme points
come from support sweeps, dihedral groups from the closed-form matrices,
reflection groups of rank 3 and 4 from their simple roots, permutohedron
membership from partial-sum majorization, and facet-row merging from the
plain pairwise union-find.
"""

import math

import numpy as np


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
    "h3": ([1, 0, 0], [-GOLDEN, 1 / GOLDEN, -1], [0, 0, 1]),  # order 120
    "d4": ([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]),  # order 192
    "b4": ([1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]),  # order 384
    "f4": ([0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [1, -1, -1, -1]),  # order 1152
}


def reflection(normal):
    """Orthogonal reflection across the hyperplane with the given normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return np.eye(len(n)) - 2.0 * np.outer(n, n)


def reflection_generators(name):
    """Simple reflections generating the named group of SIMPLE_ROOTS."""
    return [reflection(r) for r in SIMPLE_ROOTS[name]]


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
