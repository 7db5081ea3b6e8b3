"""Dense exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Pivot choice
is always the lowest available index, so echelon forms, ranks and
complement bases are deterministic and reproducible.
"""

from __future__ import annotations

import numpy as np


def mod(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def identity(d: int, p: int) -> np.ndarray:
    return np.eye(d, dtype=np.int64) % p


def inv_scalar(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"no inverse of 0 mod {p}")
    return pow(int(x), p - 2, p)


def rref(a, p: int):
    """Reduced row echelon form mod p.

    Returns (R, pivots) where pivots is the list of pivot column indices
    (its length is the rank).
    """
    R = mod(a, p).copy()
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * inv_scalar(int(R[r, c]), p) % p
        for j in range(rows):
            if j != r and R[j, c]:
                R[j] = (R[j] - R[j, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, pivots


def rank(a, p: int) -> int:
    a = mod(a, p)
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel of a mod p."""
    a = mod(a, p)
    rows, cols = a.shape
    R, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        basis[f, k] = 1
        for r, c in enumerate(pivots):
            basis[c, k] = (-R[r, f]) % p
    return basis


def inverse(a, p: int) -> np.ndarray:
    """Matrix inverse mod p; raises ValueError if singular."""
    a = mod(a, p)
    d = a.shape[0]
    aug = np.hstack([a, identity(d, p)])
    R, pivots = rref(aug, p)
    if pivots[:d] != list(range(d)):
        raise ValueError("matrix not invertible mod p")
    return R[:, d:]


def solve(a, b, p: int) -> np.ndarray:
    """One solution x of a @ x = b mod p; raises ValueError if inconsistent.

    b may be a vector or a matrix of stacked right-hand sides.
    """
    a = mod(a, p)
    b = mod(b, p)
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    aug = np.hstack([a, b])
    R, pivots = rref(aug, p)
    cols = a.shape[1]
    if any(c >= cols for c in pivots):
        raise ValueError("inconsistent linear system mod p")
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = R[r, cols:]
    return x[:, 0] if vec else x


def mat_pow(a, k: int, p: int) -> np.ndarray:
    """a**k mod p for any integer k (negative k inverts first)."""
    a = mod(a, p)
    if k < 0:
        a = inverse(a, p)
        k = -k
    out = identity(a.shape[0], p)
    while k:
        if k & 1:
            out = out @ a % p
        a = a @ a % p
        k >>= 1
    return out

