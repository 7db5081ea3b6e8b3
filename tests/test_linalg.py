from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, det_int
from gbsep import linalg

# 2^31.5 < 3037000507: entries of a product of two residues overflow int64
BIG_PRIMES = [3037000507, 3037000537]


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
    R = dense(R)
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
    ker = dense(linalg.nullspace(a, p))
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
    inv = dense(linalg.inverse(a, p))
    assert np.array_equal(a @ inv % p, dense(linalg.identity(d)))


def test_solve_vector_and_matrix():
    p = 7
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[5], [6]], dtype=np.int64)  # one right-hand side, as a column
    x = dense(linalg.solve(a, b, p))
    assert np.array_equal(a @ x % p, b)
    B = np.array([[5, 0], [6, 1]], dtype=np.int64)
    X = dense(linalg.solve(a, B, p))
    assert np.array_equal(a @ X % p, B)


def test_solve_inconsistent_raises():
    a = np.array([[1, 1], [2, 2]], dtype=np.int64)
    b = np.array([[0], [1]], dtype=np.int64)
    with pytest.raises(ValueError):
        linalg.solve(a, b, 5)


def test_mat_pow_negative():
    p = 5
    a = np.array([[2, 1], [0, 3]], dtype=np.int64)
    assert np.array_equal(
        dense(linalg.mat_pow(a, -2, p)) @ dense(linalg.mat_pow(a, 2, p)) % p, dense(linalg.identity(2))
    )
    assert np.array_equal(dense(linalg.mat_pow(a, 0, p)), dense(linalg.identity(2)))


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


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import gbsep.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_mat_pow_exact_above_int64():
    # int64 arithmetic returned [[290948293, ...]] here
    p = BIG_PRIMES[0]
    assert linalg.mat_pow([[p - 1, p - 2], [p - 3, p - 5]], 2, p).tolist() == [[7, 12], [18, 31]]


# -- an independent dense reference over numpy object arrays (Python ints) --


def _ref_rref(a, p):
    R = np.array(a, dtype=object) % p
    rows, cols = R.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        below = [i for i in range(r, rows) if R[i, c]]
        if not below:
            continue
        R[[r, below[0]]] = R[[below[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        for i in range(rows):
            if i != r and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
    return R, pivots


def _ref_solve(a, b, p):
    """The solution that is zero at the free columns, or None."""
    n = a.shape[1]
    R, pivots = _ref_rref(np.hstack([a, b]), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, b.shape[1]), dtype=object)
    for r, c in enumerate(pivots):
        x[c] = R[r, n:]
    return x


def _ref_nullspace(a, p):
    R, pivots = _ref_rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((a.shape[1], len(free)), dtype=object)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for r, c in enumerate(pivots):
            basis[c, k] = -R[r, f] % p
    return basis


def _sparse_matrix(rng, rows, cols, p):
    # mostly zeros, so the sparse paths (one-entry rows, empty rows, fill-in)
    # are exercised as well as dense ones
    density = rng.choice([0.2, 0.5, 1.0])
    return np.array(
        [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)],
        dtype=object,
    ).reshape(rows, cols)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5, 7] + BIG_PRIMES),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=150, deadline=None)
def test_matches_dense_reference(rows, cols, p, seed):
    rng = random.Random(seed)
    a = _sparse_matrix(rng, rows, cols, p)
    R, pivots = linalg.rref(a, p)
    ref_R, ref_pivots = _ref_rref(a, p)
    assert (R.tolist(), pivots) == (ref_R.tolist(), ref_pivots)
    assert linalg.rank(a, p) == len(ref_pivots)
    assert linalg.nullspace(a, p).tolist() == _ref_nullspace(a, p).reshape(cols, -1).tolist()
    b = _sparse_matrix(rng, rows, rng.randint(1, 3), p)
    if rng.random() < 0.5:
        b = a @ _sparse_matrix(rng, cols, b.shape[1], p) % p  # consistent
    ref_x = _ref_solve(a, b, p)
    if ref_x is None:
        with pytest.raises(ValueError):
            linalg.solve(a, b, p)
    else:
        assert linalg.solve(a, b, p).tolist() == ref_x.tolist()
    square = _sparse_matrix(rng, rows, rows, p)
    eye = np.identity(rows, dtype=object)
    ref_inv = _ref_solve(square, eye, p)
    if ref_inv is None:
        with pytest.raises(ValueError):
            linalg.inverse(square, p)
        return
    assert linalg.inverse(square, p).tolist() == ref_inv.tolist()
    k = rng.randint(-9, 9)
    ref_pow = eye
    for _ in range(abs(k)):
        ref_pow = ref_pow @ (square if k > 0 else ref_inv) % p
    assert linalg.mat_pow(square, k, p).tolist() == ref_pow.tolist()
