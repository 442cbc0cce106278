"""Finite matrix groups from generators: closure, orbits, stabilizers, regularity.

Groups are stored as explicit element lists (orthogonal matrices, identity
first), also stacked in one read-only array that orbits, stabilizers and
reflection detection multiply in a single batched product.  Closure is
multiplication by the generators with tolerant dedup, batched; its element
order is that of a stack closure (newest element expanded first), see
:func:`close_generators`.  No permutation-group machinery is needed at
catalog scale.
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
    Tolerance,
    as_vector,
    close,
    distinct_rows,
    is_orthogonal,
    round_key,
    row_keys,
)
from .polytope import MAX_AMBIENT_DIM

MAX_ORDER_DEFAULT = 100000

# Elements expanded per batched product while closing; bounds the memory of
# one step when an input that is not finite grows towards max_order.
_CLOSURE_CHUNK = 1024
# Highest generator power multiplied in while closing (see _closure_table).
_POWERS = 16


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A closed set of orthogonal matrices with generator provenance.

    ``elements[0]`` is always the identity.  Elements are unique under the
    tolerance used to build the group.
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

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label}: order {self.order} in dim {self.dim}>"


@dataclass(frozen=True, eq=False)
class Orbit:
    """The distinct images of a base vector, with witnessing element indices.

    ``points[i] == elements[point_to_element[i]] @ base`` within tolerance,
    and ``points[0]`` is the base itself.
    """

    base: np.ndarray
    points: np.ndarray
    point_to_element: tuple[int, ...]

    def __len__(self) -> int:
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
    gens[j]``.  The products are deduped as a :class:`ToleranceBuckets` fed
    them in order would: matched to the first representative with their
    rounding key when within eps_eq of it, else to the first key-mate
    within eps_eq, else new.  Representatives are also multiplied by the
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


def _fixed(G: FiniteGroup, v: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the elements g with g v within eps_eq of v."""
    return np.max(np.abs(G.stack @ v - v), axis=1, initial=0.0) <= tol.eps_eq


def orbit(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> Orbit:
    """All distinct images g v, deduped under the tolerance, in element order.

    The first element to reach a point witnesses it.
    """
    v = as_vector(v, G.dim)
    images = G.stack @ v
    kept = distinct_rows(images, tol)
    return Orbit(base=v, points=images[kept], point_to_element=tuple(kept.tolist()))


def stabilizer(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> FiniteGroup:
    """The subgroup fixing v within the tolerance."""
    v = as_vector(v, G.dim)
    fixed = tuple(G.elements[i] for i in np.flatnonzero(_fixed(G, v, tol)))
    return FiniteGroup(
        dim=G.dim,
        elements=fixed,
        generator_indices=tuple(range(len(fixed))),
        name=f"{G.name or 'G'}_stab",
        tol=tol,
    )


def is_regular(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the stabilizer of v is trivial (faithful actions assumed)."""
    return int(np.count_nonzero(_fixed(G, as_vector(v, G.dim), tol))) == 1


def find_regular(
    G: FiniteGroup,
    seed: int,
    tol: Tolerance = DEFAULT_TOL,
    max_tries: int = 64,
) -> np.ndarray:
    """Deterministic pseudo-random unit vector with trivial stabilizer.

    Draws are seeded so reports that embed this vector are reproducible.
    Raises RegularNotFoundError after the retry budget, which signals a
    non-faithful or otherwise degenerate action.
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        x = rng.standard_normal(G.dim)
        n = np.linalg.norm(x)
        if n < 1e-12:
            continue
        x = x / n
        if is_regular(G, x, tol):
            return x
    raise RegularNotFoundError(
        f"no regular vector found in {max_tries} draws; is the action faithful?"
    )


def group_from_json_dict(data: dict, tol: Tolerance | None = None) -> tuple[FiniteGroup, Tolerance]:
    """Build a group from the definition-file schema.

    Schema: ``{"name": str, "dim": n, "generators": [[row...] x n, ...],
    "tolerance": optional real}`` with ``1 <= n <= MAX_AMBIENT_DIM``.  Matrix
    entries may be reals or decimal strings.  An explicit ``tol`` argument
    overrides the file tolerance.  Any malformed field raises
    :class:`InputFormatError`.
    """
    if not isinstance(data, dict):
        raise InputFormatError("group definition must be a JSON object")
    try:
        name = str(data.get("name", ""))
        dim = int(data["dim"])
        raw_gens = data["generators"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"group definition missing/invalid field: {exc}") from exc
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
