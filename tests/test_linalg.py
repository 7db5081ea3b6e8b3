from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_int
from gbsep import linalg


def random_matrix(draw_rows, draw_cols, p, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, p, size=(draw_rows, draw_cols)).astype(np.int64)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60)
def test_rref_properties(rows, cols, p, seed):
    a = random_matrix(rows, cols, p, seed)
    R, pivots = linalg.rref(a, p)
    assert len(pivots) == linalg.rank(a, p)
    for r, c in enumerate(pivots):
        assert R[r, c] == 1
        col = R[:, c].copy()
        col[r] = 0
        assert not col.any()


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60)
def test_nullspace_annihilates(rows, cols, p, seed):
    a = random_matrix(rows, cols, p, seed)
    ker = linalg.nullspace(a, p)
    assert ker.shape[1] == cols - linalg.rank(a, p)
    assert not (a @ ker % p).any()
    assert linalg.rank(ker, p) == ker.shape[1]


@given(
    st.integers(min_value=1, max_value=5),
    st.sampled_from([3, 5, 7]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60)
def test_inverse_when_regular(d, p, seed):
    a = random_matrix(d, d, p, seed)
    if linalg.rank(a, p) < d:
        with pytest.raises(ValueError):
            linalg.inverse(a, p)
        return
    inv = linalg.inverse(a, p)
    assert np.array_equal(a @ inv % p, linalg.identity(d, p))


def test_solve_vector_and_matrix():
    p = 7
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([5, 6], dtype=np.int64)
    x = linalg.solve(a, b, p)
    assert np.array_equal(a @ x % p, b)
    B = np.array([[5, 0], [6, 1]], dtype=np.int64)
    X = linalg.solve(a, B, p)
    assert np.array_equal(a @ X % p, B)


def test_solve_inconsistent_raises():
    a = np.array([[1, 1], [2, 2]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        linalg.solve(a, b, 5)


def test_mat_pow_negative():
    p = 5
    a = np.array([[2, 1], [0, 3]], dtype=np.int64)
    assert np.array_equal(
        linalg.mat_pow(a, -2, p) @ linalg.mat_pow(a, 2, p) % p, linalg.identity(2, p)
    )
    assert np.array_equal(linalg.mat_pow(a, 0, p), linalg.identity(2, p))


def test_det_int_exact():
    a = [[2, 3], [4, 5]]
    assert det_int(a) == -2
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [2, 4]]) == 0
    # permutation parity
    assert det_int([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_det_int_matches_numpy_sign_pattern(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(d, d))
    assert det_int(a) == round(float(np.linalg.det(a)))
