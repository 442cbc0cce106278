"""Finite matrix groups from generators: closure, orbits, stabilizers, regularity.

Groups are stored as explicit element lists (orthogonal matrices, identity
first), also stacked in one read-only array that orbits, stabilizers and
reflection detection multiply in a single batched product.  Closure is
multiplication by the generators with tolerant dedup, batched; its element
order is that of a stack closure (newest element expanded first), see
:func:`close_generators`.  No permutation-group machinery is needed at
catalog scale.

A group generated by its reflections also gets its root data
(:func:`root_data`): the mirrors, and the halfspace rows that all of its
orbit hulls share.  Orbit cones and SP checks read these instead of
calling Qhull.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import (
    DimensionMismatchError,
    GeometryError,
    InputFormatError,
    OrderExceededError,
    RegularNotFoundError,
)
from .numerics import (
    DEFAULT_TOL,
    MAX_AMBIENT_DIM,
    Tolerance,
    as_vector,
    close,
    distinct_rows,
    is_orthogonal,
    matrix_rank,
    round_key,
    row_keys,
)

MAX_ORDER_DEFAULT = 100000

# Elements expanded per batched product while closing; bounds the memory of
# one step when an input that is not finite grows towards max_order.
_CLOSURE_CHUNK = 1024
# Highest generator power multiplied in while closing (see _closure_table).
_POWERS = 16
# Gaussian draws find_regular tries before it gives up.
_REGULAR_TRIES = 64


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A closed set of orthogonal matrices with generator provenance.

    ``elements[0]`` is always the identity.  Elements are unique under
    ``tol``, the tolerance the group was closed with.  Every function that
    takes the group (orbits, stabilizers, cones, the SP criteria) decides at
    this tolerance, so a group and its verdicts cannot disagree on it.
    """

    dim: int
    elements: tuple[np.ndarray, ...]
    generator_indices: tuple[int, ...]
    name: str = ""
    tol: Tolerance = DEFAULT_TOL

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        return tuple(self.elements[i] for i in self.generator_indices)

    @cached_property
    def stack(self) -> np.ndarray:
        """The elements as one read-only ``(order, dim, dim)`` array."""
        stack = np.array(self.elements, dtype=float).reshape(self.order, self.dim, self.dim)
        stack.setflags(write=False)
        return stack

    @cached_property
    def _reflections(self) -> tuple[Reflection, ...]:
        """Read through :func:`group_reflections`."""
        return tuple(_find_reflections(self, self.tol))

    @cached_property
    def _root_data(self) -> RootData | None:
        """Read through :func:`root_data`."""
        return _build_root_data(self)

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label}: order {self.order} in dim {self.dim}>"


@dataclass(frozen=True, eq=False)
class Orbit:
    """The distinct images of a base vector, with witnessing element indices.

    ``points[i] == elements[point_to_element[i]] @ base`` within tolerance,
    and ``points[0]`` is the base itself.  ``point_to_element`` is a
    read-only intp array.

    The group acts orthogonally, so every point lies on the sphere of radius
    |base|, and a point of a sphere is no convex combination of others on it:
    the points are exactly the vertices of the orbit's hull.  ``vertices``
    and ``n_vertices`` read them as such, so an orbit can stand for its hull
    in :func:`~orbitpoly.polytope.minkowski_sum`.
    """

    base: np.ndarray
    points: np.ndarray
    point_to_element: np.ndarray  # (len(points),) intp, read-only

    def __len__(self) -> int:
        return len(self.points)

    @property
    def vertices(self) -> np.ndarray:
        return self.points

    @property
    def n_vertices(self) -> int:
        return len(self.points)


def _powers(gens: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Powers g^2 .. g^_POWERS of each generator, stopping at the identity."""
    eye = np.eye(gens.shape[1])
    out = []
    for g in gens:
        power = g @ g
        for _ in range(_POWERS - 1):
            if close(power, eye, tol):
                break
            out.append(power)
            power = power @ g
    return np.array(out).reshape(-1, *gens.shape[1:])


def _closure_table(gens: np.ndarray, tol: Tolerance, max_order: int) -> np.ndarray:
    """Right-multiplication table of the closure, found a batch at a time.

    Representatives are numbered as found, the identity first, and expanded
    in that order; ``table[r, j]`` is the representative of ``rep_r @
    gens[j]``.  The products are deduped in order by the rule of
    :func:`~orbitpoly.numerics.distinct_rows`: matched to the first
    representative with their rounding key when within eps_eq of it, else
    to the first key-mate within eps_eq, else new.  Representatives are also multiplied by the
    generators' powers (:func:`_powers`), which only finds elements sooner:
    a cyclic group then takes order / _POWERS batches instead of order.
    """
    k, dim = len(gens), gens.shape[1]
    words = np.concatenate([gens, _powers(gens, tol)])
    reps = np.empty((_CLOSURE_CHUNK, dim, dim))
    reps[0] = np.eye(dim)
    count = 1
    first = {round_key(reps[0], tol): 0}  # rounding key -> first representative
    later: dict[bytes, list[int]] = {}  # rounding key -> its other representatives
    table = []
    done = 0
    while done < count:
        stop = min(count, done + _CLOSURE_CHUNK)
        products = (reps[done:stop, None] @ words[None]).reshape(-1, dim, dim)
        if len(reps) < count + len(products):
            reps = np.concatenate([reps, np.empty((len(reps) + len(products), dim, dim))])
        keys = row_keys(products.reshape(len(products), -1), tol)
        found = np.fromiter(map(first.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
        for q in np.flatnonzero(found < 0).tolist():
            found[q] = first.setdefault(keys[q], count)
            if found[q] == count:
                reps[count] = products[q]
                count += 1
        gap = np.abs(products - reps[found]).reshape(len(products), -1)
        if gap.max() > tol.eps_eq:
            for q in np.flatnonzero(gap.max(axis=1) > tol.eps_eq):
                mates = later.setdefault(keys[q], [])
                found[q] = next((r for r in mates if close(reps[r], products[q], tol)), count)
                if found[q] == count:
                    reps[count] = products[q]
                    mates.append(count)
                    count += 1
        if count > max_order:
            raise OrderExceededError(
                f"closure exceeded max_order={max_order}; input may not be finite"
            )
        table.append(found.reshape(stop - done, -1)[:, :k])
        done = stop
    return np.concatenate(table)


def _stack_order(table: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """Replay the stack closure on the table: element order and parentage.

    The closure pushes each new element and pops the newest first; element
    m (m > 0) is ``element[parent[m]] @ gens[via[m]]``.  Returns the position
    of every representative in that order along with ``parent`` and ``via``.
    """
    rows = table.tolist()
    position = [-1] * len(rows)
    position[0] = 0
    parent, via = [-1], [-1]
    stack = [0]
    while stack:
        r = stack.pop()
        here = position[r]
        for j, t in enumerate(rows[r]):
            if position[t] < 0:
                position[t] = len(parent)
                parent.append(here)
                via.append(j)
                stack.append(t)
    return np.array(position, dtype=np.intp), parent, via


def _check_replay(
    elements: np.ndarray, gens: np.ndarray, target: np.ndarray, tol: Tolerance
) -> None:
    """Raise unless the stack closure would dedup every product as ``target`` says.

    The table was found on products of other roundings than the elements
    the replay builds.  Each product ``elements[i] @ gens[j]`` must share
    its rounding key with ``elements[target[i, j]]``, lie within eps_eq of
    it, and lie farther than eps_eq from every earlier key-mate of it; then
    the stack closure, run on these exact elements, makes the same choices.
    """
    n, dim = len(elements), elements.shape[1]
    products = (elements[:, None] @ gens[None]).reshape(-1, dim * dim)
    flat = elements.reshape(n, dim * dim)
    hit = flat[target.ravel()]
    digits = tol.round_digits
    ok = np.array_equal(np.round(products, digits), np.round(hit, digits))
    ok &= bool(np.abs(products - hit).max() <= tol.eps_eq)
    mates: dict[bytes, list[int]] = {}
    for i, key in enumerate(row_keys(flat, tol)):
        mates.setdefault(key, []).append(i)
    for group in (g for g in mates.values() if len(g) > 1):
        for q in np.flatnonzero(np.isin(target.ravel(), group[1:])):
            t = target.flat[q]
            ok &= not any(close(flat[s], products[q], tol) for s in group if s < t)
    if not ok:
        raise GeometryError(
            "closure depends on the order of multiplication: a product lies within "
            "roundoff of the tolerance's rounding grid; try another tolerance"
        )


def close_generators(
    gens,
    tol: Tolerance = DEFAULT_TOL,
    max_order: int = MAX_ORDER_DEFAULT,
    name: str = "",
) -> FiniteGroup:
    """Generate the group spanned by orthogonal matrices.

    Element order: the identity, then the order in which a closure keeps a
    stack of new elements, pops the newest, and multiplies it on the right
    by each generator in turn, storing each product that matches no stored
    element (tolerant dedup).  Each element is stored with the bits of its
    parent times the generator.  Reports depend on this order:
    ``coxeter-check`` lists reflections in it and ``orbit`` reports witness
    element indices.  The closure itself is batched: the multiplication
    table is found a batch of elements at a time, the stack order is
    replayed on it, and the elements are rebuilt along the replay and
    checked against the table.

    Raises OrderExceededError when the closure passes ``max_order``, which
    signals a non-finite or badly conditioned input (for example a rotation
    by an irrational fraction of a turn).
    """
    mats = [np.asarray(g, dtype=float) for g in gens]
    if not mats:
        raise ValueError("need at least one generator")
    dim = mats[0].shape[0]
    for i, g in enumerate(mats):
        if g.shape != (dim, dim):
            raise DimensionMismatchError(
                f"generator {i} has shape {g.shape}, expected ({dim}, {dim})"
            )
        if not is_orthogonal(g, tol):
            raise ValueError(f"generator {i} is not orthogonal within {tol.eps_eq:.1e}")

    gens_stack = np.stack(mats)
    table = _closure_table(gens_stack, tol, max_order)
    position, parent, via = _stack_order(table)
    elements = np.empty((len(table), dim, dim))
    elements[0] = np.eye(dim)
    for m in range(1, len(elements)):
        elements[m] = elements[parent[m]] @ mats[via[m]]
    target = np.empty_like(table)
    target[position] = position[table]
    _check_replay(elements, gens_stack, target, tol)
    elements.setflags(write=False)
    return FiniteGroup(
        dim=dim,
        elements=tuple(elements),
        generator_indices=tuple(target[0].tolist()),
        name=name,
        tol=tol,
    )


def _fixed(G: FiniteGroup, v: np.ndarray) -> np.ndarray:
    """Mask of the elements g with g v within eps_eq of v."""
    return np.max(np.abs(G.stack @ v - v), axis=1, initial=0.0) <= G.tol.eps_eq


def orbit(G: FiniteGroup, v) -> Orbit:
    """All distinct images g v, deduped under the tolerance, in element order.

    The first element to reach a point witnesses it.
    """
    v = as_vector(v, G.dim)
    images = G.stack @ v
    kept = distinct_rows(images, G.tol)
    kept.setflags(write=False)
    return Orbit(base=v, points=images[kept], point_to_element=kept)


def stabilizer(G: FiniteGroup, v) -> FiniteGroup:
    """The subgroup fixing v within the group's tolerance."""
    v = as_vector(v, G.dim)
    fixed = tuple(G.elements[i] for i in np.flatnonzero(_fixed(G, v)))
    return FiniteGroup(
        dim=G.dim,
        elements=fixed,
        generator_indices=tuple(range(len(fixed))),
        name=f"{G.name or 'G'}_stab",
        tol=G.tol,
    )


def is_regular(G: FiniteGroup, v) -> bool:
    """True iff the stabilizer of v is trivial (faithful actions assumed)."""
    return int(np.count_nonzero(_fixed(G, as_vector(v, G.dim)))) == 1


def find_regular(G: FiniteGroup, seed: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector with trivial stabilizer.

    Draws are seeded so reports that embed this vector are reproducible.
    Raises RegularNotFoundError after _REGULAR_TRIES draws, which signals a
    non-faithful or otherwise degenerate action.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_REGULAR_TRIES):
        x = rng.standard_normal(G.dim)
        n = np.linalg.norm(x)
        if n == 0.0:
            continue
        x = x / n
        if is_regular(G, x):
            return x
    raise RegularNotFoundError(
        f"no regular vector found in {_REGULAR_TRIES} draws; is the action faithful?"
    )


@dataclass(frozen=True, eq=False)
class Reflection:
    """An orthogonal involution fixing a hyperplane pointwise.

    ``element_index`` points into the owning group's element list and is -1
    when the reflection was detected from a bare matrix.
    """

    element_index: int
    normal: np.ndarray


def _mirror_normals_of(defects: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Unit normals of reflections from their rank-one ``I - g``, one SVD each.

    The normal is the first left singular vector, its sign fixed so that
    its first coordinate above tolerance is positive.
    """
    normals = np.linalg.svd(defects)[0][:, :, 0]
    big = np.abs(normals) > tol.eps_eq
    first = normals[np.arange(len(normals)), np.argmax(big, axis=1)]
    return np.where((first < 0)[:, None], -normals, normals)


def detect_reflection(g, tol: Tolerance = DEFAULT_TOL, element_index: int = -1) -> Reflection | None:
    """Detect whether an orthogonal matrix is a hyperplane reflection.

    Returns the unit normal of the fixed hyperplane (sign fixed so the first
    coordinate above tolerance is positive) when ``I - g`` has rank one and
    ``g @ g`` equals I at eps_eq, else None.
    """
    g = np.asarray(g, dtype=float)
    defect = np.eye(len(g)) - g
    if matrix_rank(defect, tol) != 1 or not close(g @ g, np.eye(len(g)), tol):
        return None
    return Reflection(element_index=element_index, normal=_mirror_normals_of(defect[None], tol)[0])


def group_reflections(G: FiniteGroup, tol: Tolerance | None = None) -> list[Reflection]:
    """All reflections in the group, in element order, indexed into its element list.

    ``tol`` defaults to the group's own tolerance; at that tolerance they are
    found once per group, which keeps them, as it keeps its root data.
    """
    if tol is None or tol == G.tol:
        return list(G._reflections)
    return _find_reflections(G, tol)


def _find_reflections(G: FiniteGroup, tol: Tolerance) -> list[Reflection]:
    """The search behind :func:`group_reflections`.

    One batched SVD finds the elements whose ``I - g`` has rank one, and one
    more gives their normals as :func:`detect_reflection` would.  The rank
    test runs only on the elements with ``trace(I - g)`` near 2: for an
    orthogonal g that is the sum of ``1 - Re(lambda)`` over its eigenvalues,
    which is about 2 when one eigenvalue is -1 and the rest are 1.  They must
    square to I at eps_eq too: a rotoreflection by an angle below eps_rank does not.
    """
    defects = np.eye(G.dim) - G.stack
    near_two = np.flatnonzero(np.abs(np.trace(defects, axis1=1, axis2=2) - 2.0) < 0.5)
    svals = np.linalg.svd(defects[near_two], compute_uv=False)
    rank_one = near_two[np.sum(svals > tol.eps_rank, axis=1) == 1]
    squares = G.stack[rank_one] @ G.stack[rank_one]
    rank_one = rank_one[np.all(np.abs(squares - np.eye(G.dim)) <= tol.eps_eq, axis=(1, 2))]
    normals = _mirror_normals_of(defects[rank_one], tol)
    return [Reflection(element_index=int(i), normal=n) for i, n in zip(rank_one, normals)]


def _one_point_per_chamber(G: FiniteGroup, normals: np.ndarray, v: np.ndarray) -> bool:
    """Is v the only point of its orbit on its own side of every mirror?

    See :func:`~orbitpoly.coxeter.is_reflection_generated`; v must lie off
    every mirror.
    """
    margins = v @ normals.T
    if np.min(np.abs(margins), initial=np.inf) <= G.tol.eps_eq:
        raise GeometryError("regular vector lies on a mirror; chambers cannot be counted")
    sides = (G.stack @ v) @ normals.T > 0
    return int(np.sum(np.all(sides == (margins > 0), axis=1))) == 1


def _walls(mirror_elements: np.ndarray, normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the mirrors that are walls of the chamber of ``points[0]``.

    ``points`` is a regular orbit in element order, so the reflection with
    element index e maps ``points[0]`` to ``points[e]``.  Two chambers
    share a wall exactly when one mirror separates them, so the mirror of s
    is a wall iff s v lies on v's side of every other mirror.  Only signs
    are read.
    """
    here = normals @ points[0] > 0
    there = points[mirror_elements] @ normals.T > 0
    return np.sum(there != here, axis=1) == 1


def _chamber(mirror_elements: np.ndarray, normals: np.ndarray, points: np.ndarray):
    """Inward unit wall normals of the chamber of ``points[0]``, and its unit rays.

    The walls come in element order; ray j lies in their span and pairs to
    zero with every wall but wall j (the dual basis, normalised).
    """
    walls = normals[_walls(mirror_elements, normals, points)]
    walls = walls * np.where(walls @ points[0] > 0, 1.0, -1.0)[:, None]
    rays = np.linalg.pinv(walls).T
    return walls, rays / np.linalg.norm(rays, axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class RootData:
    """The mirrors of a reflection-generated group and the halfspace rows of its orbit hulls.

    Mirror i has unit normal ``normals[i]`` and is fixed by the reflection
    with element index ``mirror_elements[i]``, in element order.
    ``coweights`` are the unit fundamental coweights ω_k of one chamber and
    ``fixed`` an orthonormal basis of the subspace that every element fixes
    (the orthogonal complement of the mirror normals).  The halfspace rows
    are built on first use, from the group's stacked elements.
    """

    mirror_elements: np.ndarray  # (N,) element indices, ascending
    normals: np.ndarray          # (N, dim) unit mirror normals
    coweights: np.ndarray        # (rank, dim) unit rows
    fixed: np.ndarray            # (dim - rank, dim) orthonormal rows
    stack: np.ndarray            # the group's elements, (order, dim, dim)
    tol: Tolerance

    @property
    def rank(self) -> int:
        return len(self.coweights)

    @cached_property
    def _coweight_orbits(self) -> list[np.ndarray]:
        images = self.stack @ self.coweights.T  # [g, :, k] = g ω_k
        return [images[:, :, k][distinct_rows(images[:, :, k], self.tol)] for k in range(self.rank)]

    @cached_property
    def rows(self) -> np.ndarray:
        """The distinct unit rows g ω_k grouped by k, then ``fixed`` and ``-fixed``."""
        return np.vstack([*self._coweight_orbits, self.fixed, -self.fixed])

    @cached_property
    def row_coweight(self) -> np.ndarray:
        """The k of each row g ω_k."""
        return np.repeat(np.arange(self.rank), [len(o) for o in self._coweight_orbits])

    @cached_property
    def starts(self) -> np.ndarray:
        """The index of the first row g ω_k of each k."""
        return np.searchsorted(self.row_coweight, np.arange(self.rank))

    def walls(self, points: np.ndarray) -> np.ndarray:
        """Element indices of the reflections in the walls of the chamber of ``points[0]``.

        ``points`` is a regular orbit in element order (see :func:`_walls`);
        the result is ascending.
        """
        return self.mirror_elements[_walls(self.mirror_elements, self.normals, points)]

    def chamber(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walls and rays of the chamber of ``points[0]``; see :func:`_chamber`."""
        return _chamber(self.mirror_elements, self.normals, points)

    def support(self, w) -> np.ndarray:
        """The largest ``<x, row>`` over the orbit of w, for every row.

        w is one vector, or an ``(n, dim)`` stack whose rows give the rows
        of an ``(n, len(rows))`` result; each row has the bits of w's own.

        These are the offsets b of the orbit hull ``{x : rows x <= b}``: for
        w in the closed chamber of the coweights, hull(O_w) is the
        intersection over g of ``<x, g ω_k> <= <w, ω_k>``, pinned to w's
        coordinates along the fixed subspace.  By symmetry the support of
        O_w along g ω_k is the largest ``<w, h ω_k>`` over the group, so it
        is read off the rows, and w may lie in any chamber.  The rows of
        each k are one contiguous block, so the maxima are one
        ``np.maximum.reduceat`` at the block :attr:`starts`, along the last
        axis.
        """
        values = np.matmul(self.rows, np.asarray(w, dtype=float)[..., None])[..., 0]
        m = len(self.row_coweight)
        values[..., :m] = np.maximum.reduceat(values[..., :m], self.starts, axis=-1)[..., self.row_coweight]
        return values


def root_data(G: FiniteGroup) -> RootData | None:
    """Root data of a group generated by its reflections, None for any other group.

    This is the one decision of reflection generation: a regular v is the
    only point of its orbit in its own chamber exactly when the reflections
    generate G (see :func:`~orbitpoly.coxeter.is_reflection_generated`).  It
    is made with the regular vector of seed 0 at the group's tolerance,
    once per group; the group keeps the result.  The coweights are the unit
    rays dual to that vector's chamber walls.
    """
    return G._root_data


def _build_root_data(G: FiniteGroup) -> RootData | None:
    reflections = G._reflections
    normals = np.array([r.normal for r in reflections]).reshape(-1, G.dim)
    rho = find_regular(G, 0)
    if not _one_point_per_chamber(G, normals, rho):
        return None
    mirror_elements = np.array([r.element_index for r in reflections], dtype=np.intp)
    walls, coweights = _chamber(mirror_elements, normals, G.stack @ rho)
    # The walls are a basis of the mirror normals' span; the rest is fixed.
    fixed = np.linalg.svd(walls, full_matrices=True)[2][len(walls):]
    return RootData(
        mirror_elements=mirror_elements,
        normals=normals,
        coweights=coweights,
        fixed=fixed,
        stack=G.stack,
        tol=G.tol,
    )


def group_from_json_dict(data: dict, tol: Tolerance | None = None) -> tuple[FiniteGroup, Tolerance]:
    """Build a group from the definition-file schema.

    Schema: ``{"name": str, "dim": n, "generators": [[row...] x n, ...],
    "tolerance": optional real}`` with an integer (not boolean) ``1 <= n <=
    MAX_AMBIENT_DIM``.  Matrix entries may be reals or decimal strings.  An
    explicit ``tol`` argument overrides the file tolerance.  Any malformed
    field raises :class:`InputFormatError`.
    """
    if not isinstance(data, dict):
        raise InputFormatError("group definition must be a JSON object")
    try:
        name = str(data.get("name", ""))
        dim = data["dim"]
        raw_gens = data["generators"]
    except KeyError as exc:
        raise InputFormatError(f"group definition missing/invalid field: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise InputFormatError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise InputFormatError(f"dim must be >= 1, got {dim}")
    if dim > MAX_AMBIENT_DIM:
        raise InputFormatError(
            f"dimension {dim} exceeds the supported maximum of {MAX_AMBIENT_DIM}"
        )
    if not isinstance(raw_gens, list):
        raise InputFormatError("generators must be a list of matrices")

    if tol is None:
        file_tol = data.get("tolerance")
        try:
            if isinstance(file_tol, bool):
                raise TypeError("a boolean is not a tolerance")
            tol = Tolerance(eps_eq=float(file_tol)) if file_tol is not None else DEFAULT_TOL
        except (TypeError, ValueError) as exc:
            raise InputFormatError(
                f"tolerance must be a finite positive number, got {file_tol!r}"
            ) from exc

    mats = []
    for k, raw in enumerate(raw_gens):
        if not isinstance(raw, list) or len(raw) != dim:
            raise InputFormatError(f"generator {k}: expected a list of {dim} rows")
        rows = []
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != dim:
                raise InputFormatError(f"generator {k} row {r}: expected a list of {dim} entries")
            try:
                rows.append([float(x) for x in row])
            except (TypeError, ValueError) as exc:
                raise InputFormatError(f"generator {k} row {r}: non-numeric entry") from exc
        m = np.array(rows)
        if not is_orthogonal(m, tol):
            raise InputFormatError(
                f"generator {k} is not orthogonal within {tol.eps_eq:.1e}"
            )
        mats.append(m)
    if not mats:
        raise InputFormatError("group definition has no generators")
    return close_generators(mats, tol=tol, name=name), tol
