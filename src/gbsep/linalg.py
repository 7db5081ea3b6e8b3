"""Exact sparse linear algebra over prime fields F_p.

A ``Matrix`` is a list of sparse rows: row i maps a column index to its
entry, a Python int in [1, p), and zero entries are absent.  Arithmetic
is exact at every prime, and the cost of each operation grows with the
number of nonzero entries, not with the dimension cubed: a permutation
matrix multiplies, powers and inverts in O(dim).

``rref``, ``nullspace`` and ``solve`` always pivot on the lowest
available column, so complement bases are deterministic and the reduced
row echelon form is the unique one; ``rank`` alone may reorder columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush


@dataclass
class Matrix:
    rows: list[dict[int, int]]
    cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.cols

    def tolist(self) -> list[list[int]]:
        """The dense rows, zeros included."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.rows]


def matrix(a, p: int) -> Matrix:
    """``a`` as a Matrix over F_p: a Matrix is returned as it is, nested
    rows of integers are reduced mod p.  Raises ValueError unless the
    rows are integer sequences of one length."""
    if isinstance(a, Matrix):
        return a
    try:
        dense = [[int(x) % p for x in row] for row in a]
    except TypeError:
        raise ValueError("a matrix needs rows of integers") from None
    cols = len(dense[0]) if dense else 0
    if any(len(row) != cols for row in dense):
        raise ValueError("matrix rows differ in length")
    return Matrix([{j: x for j, x in enumerate(row) if x} for row in dense], cols)


def identity(d: int) -> Matrix:
    return Matrix([{i: 1} for i in range(d)], d)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([{} for _ in range(rows)], cols)


def transpose(a: Matrix) -> Matrix:
    out = zeros(a.cols, len(a.rows))
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            out.rows[j][i] = x
    return out


def add(a: Matrix, b: Matrix, p: int, scale: int = 1) -> Matrix:
    """a + scale * b."""
    rows = []
    for ra, rb in zip(a.rows, b.rows):
        row = dict(ra)
        for j, y in rb.items():
            v = (row.get(j, 0) + scale * y) % p
            if v:
                row[j] = v
            else:
                row.pop(j, None)
        rows.append(row)
    return Matrix(rows, a.cols)


def mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    """The product a @ b."""
    brows = b.rows
    rows = []
    for row in a.rows:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in brows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        rows.append({j: v % p for j, v in acc.items() if v % p})
    return Matrix(rows, b.cols)


def _echelon(a: Matrix, p: int) -> dict[int, dict[int, int]]:
    """Row echelon form: each nonzero row, keyed by its pivot column,
    has a 1 there and no entry to its left.

    Each row is reduced left to right by the rows kept so far, with a
    heap of its columns; only the columns a row holds are visited.
    """
    basis: dict[int, dict[int, int]] = {}
    for source in a.rows:
        row = dict(source)
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            x = row.get(c)
            if x is None:
                continue
            pivot_row = basis.get(c)
            if pivot_row is None:
                inv = pow(x, -1, p)
                basis[c] = {j: v * inv % p for j, v in row.items()}
                break
            for j, y in pivot_row.items():
                old = row.get(j)
                v = ((old or 0) - x * y) % p
                if v:
                    row[j] = v
                    if old is None:
                        heappush(heap, j)
                elif old is not None:
                    del row[j]
    return basis


def rank(a, p: int) -> int:
    """Rank mod p.

    Unlike ``rref``, which must pivot in natural order, the rank may
    eliminate in any column order, and it takes the sparsest columns
    first.  A column that most rows share (the one fixed vector of a
    vertex, seen from every edge) then pivots last, instead of making
    each row walk through all the pivots before its own.
    """
    a = matrix(a, p)
    count = [0] * a.cols
    for row in a.rows:
        for j in row:
            count[j] += 1
    order = sorted(range(a.cols), key=count.__getitem__)
    new = [0] * a.cols
    for i, j in enumerate(order):
        new[j] = i
    return len(_echelon(Matrix([{new[j]: x for j, x in row.items()} for row in a.rows], a.cols), p))


def rref(a, p: int):
    """Reduced row echelon form mod p.

    Returns (R, pivots) where R has the shape of ``a`` and pivots is the
    list of pivot column indices (its length is the rank).
    """
    a = matrix(a, p)
    basis = _echelon(a, p)
    pivots = sorted(basis)
    # back-substitute right to left: the rows right of c are already
    # reduced, so clearing their pivots from row c adds no other pivot
    for c in reversed(pivots):
        row = basis[c]
        for j in [j for j in row if j != c and j in basis]:
            x = row[j]
            for k, y in basis[j].items():
                v = (row.get(k, 0) - x * y) % p
                if v:
                    row[k] = v
                else:
                    del row[k]
    rows = [basis[c] for c in pivots] + [{} for _ in range(len(a.rows) - len(pivots))]
    return Matrix(rows, a.cols), pivots


def nullspace(a, p: int) -> Matrix:
    """Columns form a basis of the right kernel of a mod p: one column per
    free column f, with a 1 at f and zeros at the other free columns."""
    R, pivots = rref(a, p)
    taken = set(pivots)
    index = {f: k for k, f in enumerate(c for c in range(R.cols) if c not in taken)}
    basis = zeros(R.cols, len(index))
    for f, k in index.items():
        basis.rows[f] = {k: 1}
    for r, c in enumerate(pivots):
        basis.rows[c] = {index[f]: -x % p for f, x in R.rows[r].items() if f != c}
    return basis


def solve(a, b, p: int) -> Matrix:
    """One solution x of a @ x = b mod p, zero at the free columns; raises
    ValueError if inconsistent.  b holds stacked right-hand sides."""
    a, b = matrix(a, p), matrix(b, p)
    if len(a.rows) != len(b.rows):
        raise ValueError("right-hand sides have the wrong number of rows")
    n = a.cols
    rows = [{**ra, **{n + j: y for j, y in rb.items()}} for ra, rb in zip(a.rows, b.rows)]
    R, pivots = rref(Matrix(rows, n + b.cols), p)
    if pivots and pivots[-1] >= n:
        raise ValueError("inconsistent linear system mod p")
    x = zeros(n, b.cols)
    for r, c in enumerate(pivots):
        x.rows[c] = {j - n: y for j, y in R.rows[r].items() if j >= n}
    return x


def inverse(a, p: int) -> Matrix:
    """Matrix inverse mod p; raises ValueError if singular."""
    a = matrix(a, p)
    if len(a.rows) != a.cols:
        raise ValueError("matrix not square")
    try:
        return solve(a, identity(a.cols), p)
    except ValueError:
        raise ValueError("matrix not invertible mod p") from None


def mat_pow(a, k: int, p: int) -> Matrix:
    """a**k mod p for any integer k (negative k inverts first)."""
    a = matrix(a, p)
    if k < 0:
        a = inverse(a, p)
        k = -k
    out = identity(a.cols)
    while k:
        if k & 1:
            out = mul(out, a, p)
        k >>= 1
        if k:
            a = mul(a, a, p)
    return out
