import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from orbitpoly.cones import orbit_cone
from orbitpoly.errors import DimensionMismatchError
from orbitpoly.group import find_regular, root_data
from orbitpoly.numerics import (
    DEFAULT_TOL,
    Tolerance,
    distinct_rows,
    inner,
    is_orthogonal,
    matrix_rank,
    orthogonal_matrix,
    round_key,
    row_keys,
)


def test_inner_examples():
    assert inner([1, 0], [0, 1]) == 0.0
    assert inner([2, 1], [3, 1]) == 7.0
    assert inner([3, 4], [3, 4]) == 25.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner([1, 0], [1, 0, 0])


coords = st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=5)


@settings(max_examples=80, deadline=None)
@given(coords, coords, st.floats(min_value=-10, max_value=10))
def test_inner_symmetric_bilinear(u, v, t):
    n = min(len(u), len(v))
    u, v = np.array(u[:n]), np.array(v[:n])
    assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-9)
    assert inner(t * u, v) == pytest.approx(t * inner(u, v), abs=1e-7)
    assert inner(u + v, v) == pytest.approx(inner(u, v) + inner(v, v), abs=1e-7)


def test_inner_self_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(4)
        assert inner(v, v) >= 0


def test_matrix_rank_examples():
    assert matrix_rank(np.eye(2)) == 2
    assert matrix_rank(np.eye(2) - np.diag([-1.0, 1.0])) == 1
    assert matrix_rank(np.zeros((3, 3))) == 0


def test_matrix_rank_permutation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank deficiency
        base = matrix_rank(m)
        perm = rng.permutation(4)
        assert matrix_rank(m[perm][:, perm]) == base


def test_orthogonal_matrix_accepts_rotation():
    theta = 0.3
    m = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    out = orthogonal_matrix(m)
    assert not out.flags.writeable


def test_orthogonal_matrix_rejects_shear():
    with pytest.raises(ValueError):
        orthogonal_matrix([[1.0, 0.0], [0.5, 1.0]])


def test_orthogonal_matrix_rejects_small_defect():
    m = np.eye(2)
    m[0, 0] = 1.0 + 1e-6
    assert not is_orthogonal(m)
    with pytest.raises(ValueError):
        orthogonal_matrix(m)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps_eq=0.0)
    # The rank cut is read from eps_eq, not passed.
    assert Tolerance(eps_eq=1e-6).eps_rank == pytest.approx(1e-5, rel=1e-15)
    with pytest.raises(TypeError):
        Tolerance(eps_rank=1e-8)
    with pytest.raises(ValueError):
        Tolerance(eps_eq=float("nan"))


def test_round_digits_default():
    assert DEFAULT_TOL.round_digits == 7


def test_round_key_negative_zero_stable():
    assert round_key(np.array([1e-12])) == round_key(np.array([-1e-12]))


def test_buckets_merge_close_vectors():
    buckets = helpers.ToleranceBuckets(DEFAULT_TOL)
    i, new = buckets.insert([1.0, 2.0])
    assert new and i == 0
    j, new = buckets.insert([1.0 + 1e-11, 2.0 - 1e-11])
    assert not new and j == 0
    k, new = buckets.insert([1.0 + 1e-6, 2.0])
    assert new and k == 1


def test_distinct_rows_keeps_what_one_insert_at_a_time_keeps():
    # Chains of rows 0.6 eps_eq apart: a row can be close to a kept row but
    # not to the first row with its key, or close to a row that was dropped.
    rng = np.random.default_rng(3)
    steps = rng.integers(-1, 2, size=(400, 3)) * 0.6 * DEFAULT_TOL.eps_eq
    rows = np.cumsum(steps, axis=0)[rng.permutation(400)] + rng.integers(0, 2, size=(400, 1))
    kept = _assert_dedup_matches_oracle(rows)
    assert 2 < len(kept) < len(rows)


def _assert_dedup_matches_oracle(rows, tol=DEFAULT_TOL):
    """distinct_rows keeps the indices, of the same dtype, that one insert at a time keeps."""
    buckets = helpers.ToleranceBuckets(tol)
    want = np.flatnonzero([buckets.insert(row)[1] for row in rows])
    got = distinct_rows(rows, tol)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    return got


def _keys_distinct(rows, tol=DEFAULT_TOL):
    keys = row_keys(np.asarray(rows, dtype=float), tol)
    return len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", helpers.RAY_GROUPS)
def test_distinct_rows_on_orbits_matches_the_oracle(groups, name):
    # A regular orbit has distinct keys and takes the early exit.  The rays
    # and wall midpoints of a reflection group's chamber lie on mirrors, so
    # their orbits repeat keys and must not; elsewhere they may be regular.
    G = helpers.named_group(groups, name)
    v = find_regular(G, 0)
    images = G.stack @ v
    assert _keys_distinct(images)
    _assert_dedup_matches_oracle(images)
    C = orbit_cone(G, v)
    for x in [*C.rays, *(v - (v @ n) * n for n in C.halfspace_normals)]:
        images = G.stack @ x
        kept = _assert_dedup_matches_oracle(images)
        if root_data(G) is not None:
            assert not _keys_distinct(images)
            assert len(kept) < len(images)


def test_distinct_rows_of_two_close_rows_in_one_rounding_cell_and_across_one():
    # Two rows 6e-10 apart (eps_eq is 1e-9) next to a far row.  Inside one
    # cell of the 7-digit rounding grid they share a key and the second is
    # dropped.  On either side of a cell edge the keys differ: the early
    # exit keeps both, and so does the oracle (the split-key case of ROADMAP
    # item 9).
    assert DEFAULT_TOL.round_digits == 7
    for centre, want in ((0.1234567, [0, 2]), (0.12345675, [0, 1, 2])):
        rows = np.array([[centre - 3e-10, 1.0], [centre + 3e-10, 1.0], [0.5, 0.5]])
        assert np.max(np.abs(rows[0] - rows[1])) <= DEFAULT_TOL.eps_eq
        assert _keys_distinct(rows) == (len(want) == 3)
        assert _assert_dedup_matches_oracle(rows).tolist() == want


@pytest.mark.parametrize("n", [0, 1])
def test_distinct_rows_of_no_row_and_one_row(n):
    assert _assert_dedup_matches_oracle(np.ones((n, 3))).tolist() == list(range(n))
