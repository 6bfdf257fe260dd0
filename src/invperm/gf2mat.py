"""GF(2) linear algebra on int-bitset rows.

A matrix with r rows and c columns is a list of r ints; bit j of row i
is the entry (i, j).  A vector of length c is a single int with bit j
as coordinate j.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "rref",
    "rank",
    "nullspace",
    "solve",
    "inverse",
    "matmul",
    "mat_vec",
    "transpose",
    "identity",
    "is_invertible",
    "random_invertible",
]


def rref(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = list(rows)
    pivots: List[int] = []
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(work):
            break
    return work[:row_idx], pivots


def rank(rows: Sequence[int], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def nullspace(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : M x = 0}, one int per basis vector."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def solve(rows: Sequence[int], ncols: int, rhs: int) -> Optional[int]:
    """One solution x of M x = rhs (rhs bit i = row i), or None."""
    aug = [row | (((rhs >> i) & 1) << ncols) for i, row in enumerate(rows)]
    red, pivots = rref(aug, ncols + 1)
    x = 0
    for i, p in enumerate(pivots):
        if p == ncols:
            return None
        if (red[i] >> ncols) & 1:
            x |= 1 << p
    return x


def identity(n: int) -> List[int]:
    return [1 << i for i in range(n)]


def matmul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product A @ B; A is r x k (k = len(b)), B is k x c."""
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            t = r & -r
            acc ^= b[t.bit_length() - 1]
            r ^= t
        out.append(acc)
    return out


def mat_vec(rows: Sequence[int], v: int) -> int:
    y = 0
    for i, row in enumerate(rows):
        y |= ((row & v).bit_count() & 1) << i
    return y


def transpose(rows: Sequence[int], ncols: int) -> List[int]:
    """The ncols x len(rows) transpose: bit i of out[j] is bit j of rows[i].

    Also converts between a list of column vectors and the row form."""
    out = [0] * ncols
    for i, row in enumerate(rows):
        for j in range(ncols):
            if (row >> j) & 1:
                out[j] |= 1 << i
    return out


def inverse(rows: Sequence[int], n: int) -> Optional[List[int]]:
    """Inverse of an n x n matrix, or None if singular."""
    aug = [rows[i] | (1 << (n + i)) for i in range(n)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row >> n for row in red[:n]]


def is_invertible(rows: Sequence[int], n: int) -> bool:
    return len(rows) == n and rank(rows, n) == n


def random_invertible(n: int, rng) -> List[int]:
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if is_invertible(rows, n):
            return rows
