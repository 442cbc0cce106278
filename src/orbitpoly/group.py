"""Finite matrix groups from generators: closure, orbits, stabilizers, regularity.

Groups are stored as explicit element lists (orthogonal matrices, identity
first).  Closure is plain breadth-first multiplication with tolerant dedup;
no permutation-group machinery is needed at catalog scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InputFormatError,
    OrderExceededError,
    RegularNotFoundError,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    ToleranceBuckets,
    as_vector,
    close,
    is_orthogonal,
    round_key,
)

MAX_ORDER_DEFAULT = 100000


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
    def _index(self) -> dict[bytes, list[int]]:
        table: dict[bytes, list[int]] = {}
        for i, g in enumerate(self.elements):
            table.setdefault(round_key(g, self.tol), []).append(i)
        return table

    def element_index(self, matrix) -> int | None:
        """Index of a matrix in the element list, matched under the tolerance."""
        for idx in self._index.get(round_key(matrix, self.tol), ()):
            if close(self.elements[idx], matrix, self.tol):
                return idx
        return None

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


def close_generators(
    gens,
    tol: Tolerance = DEFAULT_TOL,
    max_order: int = MAX_ORDER_DEFAULT,
    name: str = "",
) -> FiniteGroup:
    """Generate the group spanned by orthogonal matrices, breadth first.

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

    buckets = ToleranceBuckets(tol)
    buckets.insert(np.eye(dim))
    queue = [0]
    while queue:
        current = buckets.items[queue.pop()]
        for g in mats:
            product = current @ g
            idx, inserted = buckets.insert(product)
            if inserted:
                if len(buckets) > max_order:
                    raise OrderExceededError(
                        f"closure exceeded max_order={max_order}; input may not be finite"
                    )
                queue.append(idx)

    elements = tuple(buckets.items)
    gen_indices = []
    for g in mats:
        idx = None
        for j, e in enumerate(elements):
            if close(e, g, tol):
                idx = j
                break
        gen_indices.append(idx)
    return FiniteGroup(
        dim=dim,
        elements=elements,
        generator_indices=tuple(gen_indices),
        name=name,
        tol=tol,
    )


def orbit(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> Orbit:
    """All distinct images g v, deduped under the tolerance."""
    v = as_vector(v, G.dim)
    buckets = ToleranceBuckets(tol)
    witnesses: list[int] = []
    for i, g in enumerate(G.elements):
        _, inserted = buckets.insert(g @ v)
        if inserted:
            witnesses.append(i)
    points = np.array(buckets.items)
    return Orbit(base=v, points=points, point_to_element=tuple(witnesses))


def stabilizer(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> FiniteGroup:
    """The subgroup fixing v within the tolerance."""
    v = as_vector(v, G.dim)
    fixed = [g for g in G.elements if close(g @ v, v, tol)]
    return FiniteGroup(
        dim=G.dim,
        elements=tuple(fixed),
        generator_indices=tuple(range(len(fixed))),
        name=f"{G.name or 'G'}_stab",
        tol=tol,
    )


def is_regular(G: FiniteGroup, v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the stabilizer of v is trivial (faithful actions assumed)."""
    return stabilizer(G, v, tol).order == 1


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
    "tolerance": optional real}``.  Matrix entries may be reals or decimal
    strings.  An explicit ``tol`` argument overrides the file tolerance.
    """
    if not isinstance(data, dict):
        raise InputFormatError("group definition must be a JSON object")
    try:
        name = str(data.get("name", ""))
        dim = int(data["dim"])
        raw_gens = data["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"group definition missing/invalid field: {exc}") from exc
    if dim < 1:
        raise InputFormatError(f"dim must be >= 1, got {dim}")

    if tol is None:
        file_tol = data.get("tolerance")
        tol = Tolerance(eps_eq=float(file_tol)) if file_tol is not None else DEFAULT_TOL

    mats = []
    for k, raw in enumerate(raw_gens):
        if len(raw) != dim:
            raise InputFormatError(f"generator {k}: expected {dim} rows, got {len(raw)}")
        rows = []
        for r, row in enumerate(raw):
            if len(row) != dim:
                raise InputFormatError(
                    f"generator {k} row {r}: expected {dim} entries, got {len(row)}"
                )
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
