"""Scalar/vector/matrix layer with a single explicit tolerance policy.

Every float comparison made by the geometric predicates in this package is
funnelled through a :class:`Tolerance`, which makes all downstream verdicts
deterministic and testable.  Vectors and matrices are plain ``numpy`` arrays;
this module owns validation, tolerant equality, and the rounding-based
dedup keys used for hashing noisy coordinates.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

# Largest ambient dimension of a group, and of a hull's input points.
MAX_AMBIENT_DIM = 6


@dataclass(frozen=True)
class Tolerance:
    """The tolerance policy, with one knob.

    eps_eq is the absolute threshold for coordinate equality and facet-row
    merges.  eps_rank = 10 * eps_eq is the rank cut: entries within eps_eq give
    singular values at most MAX_AMBIENT_DIM * eps_eq, so rank never splits what eps_eq merges.
    All catalog data is O(1)-scaled, so absolute thresholds are appropriate.
    A group is closed at one tolerance and keeps it (``FiniteGroup.tol``);
    functions that take a group read that one, and functions that take no
    group take a Tolerance argument.
    """

    eps_eq: float = 1e-9

    def __post_init__(self):
        value = self.eps_eq
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise ValueError(f"eps_eq must be a finite positive real, got {value!r}")

    @property
    def eps_rank(self) -> float:
        return 10 * self.eps_eq

    @property
    def round_digits(self) -> int:
        # Hash coordinates on a grid two decimal orders coarser than eps_eq;
        # same-key collisions are re-checked by exact distance.
        return max(1, math.ceil(-math.log10(self.eps_eq)) - 2)


DEFAULT_TOL = Tolerance()


def as_vector(coords, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-d float array with finite entries."""
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d coordinate array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def inner(u, v) -> float:
    """Euclidean inner product; raises on dimension mismatch."""
    u = as_vector(u)
    v = as_vector(v)
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatchError(
            f"inner product of vectors with dimensions {u.shape[0]} and {v.shape[0]}"
        )
    return float(np.dot(u, v))


def norm(v) -> float:
    return float(np.linalg.norm(as_vector(v)))


def unit(v) -> np.ndarray:
    """Normalize a nonzero vector."""
    v = as_vector(v)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def orthogonality_defect(m) -> float:
    """Max-abs entry of M^T M - I."""
    m = np.asarray(m, dtype=float)
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m.T @ m - eye)))


def is_orthogonal(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if not np.all(np.isfinite(m)):
        return False
    return orthogonality_defect(m) <= tol.eps_eq


def orthogonal_matrix(entries, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Validate a square matrix as orthogonal within tol.eps_eq.

    Returns a read-only float copy; raises ValueError otherwise.
    """
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    defect = orthogonality_defect(m)
    if defect > tol.eps_eq:
        raise ValueError(
            f"matrix is not orthogonal: max |M^T M - I| = {defect:.3e} > {tol.eps_eq:.3e}"
        )
    m.setflags(write=False)
    return m


def matrix_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above tol.eps_rank."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol.eps_rank))


def round_key(arr, tol: Tolerance = DEFAULT_TOL) -> bytes:
    """Hashable key for tolerant dedup: coordinates rounded on a coarse grid.

    Adding 0.0 after rounding collapses -0.0 to +0.0 so the byte image is
    sign-stable around zero.
    """
    r = np.round(np.asarray(arr, dtype=float), tol.round_digits) + 0.0
    return r.tobytes()


def close(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Max-abs distance comparison used for dedup collisions and equality."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a - b), initial=0.0)) <= tol.eps_eq


def row_keys(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[bytes]:
    """The :func:`round_key` of every row of a 2-d array, rounded in one call."""
    r = np.ascontiguousarray(np.round(rows, tol.round_digits) + 0.0)
    return r.view(np.dtype((np.void, r.shape[1] * r.itemsize))).ravel().tolist()


def distinct_rows(rows, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Indices of the rows of a 2-d array kept by tolerant dedup, in row order.

    Rows are taken in order, and a row is kept unless it lies within eps_eq
    (max-abs) of a kept row with the same :func:`round_key`.  A row is
    matched to the first row with its key when it lies within eps_eq of it;
    the rare row farther away is checked against every kept row with its
    key, in order, and kept when none is within eps_eq.  So no two kept
    rows with one key are within eps_eq of each other.

    A row is dropped only next to a kept row with its key, so when every
    key is distinct (a regular orbit, in practice) all rows are kept at
    once.  Rows within eps_eq whose coordinates straddle a rounding cell
    get distinct keys and are both kept (ROADMAP item 9); a fix of that
    split must revisit this early exit.
    """
    rows = np.asarray(rows, dtype=float)
    keys = row_keys(rows, tol)
    if len(set(keys)) == len(keys):
        return np.arange(len(keys), dtype=np.intp)
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    rep = np.fromiter(map(first.__getitem__, keys), dtype=np.intp, count=len(keys))
    kept = rep == np.arange(len(rows))
    gap = np.abs(rows - rows[rep])
    if gap.max(initial=0.0) <= tol.eps_eq:
        return np.flatnonzero(kept)
    buckets: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(gap.max(axis=1) > tol.eps_eq):
        mates = buckets.setdefault(keys[i], [int(rep[i])])
        if not any(close(rows[j], rows[i], tol) for j in mates):
            mates.append(int(i))
            kept[i] = True
    return np.flatnonzero(kept)


def lazy_import(module: str, name: str):
    """A function that calls ``module.name``, importing ``module`` on its first call.

    Keeps scipy's Qhull and k-d tree wrappers off the import path of
    code that never calls them.  The returned function is an ordinary
    module attribute where it is bound, so it can be replaced like one.
    It is made here, outside the modules that perfbench/tracing.py wraps
    function by function, so the tracer sees it only under its scipy span
    name (``polytope.qhull``, ``cones.linprog``, ...).
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    return call

