"""Dense linear algebra over F_2.

Matrices store one int per row, column ``j`` in bit ``j``.  Everything
here is exact bit arithmetic; sizes stay small (a few hundred columns)
so Gaussian elimination on int rows is plenty fast.
"""

from __future__ import annotations

from .errors import LinAlgError


class BinaryMatrix:
    """Immutable row-major bit matrix."""

    __slots__ = ("rows", "cols", "row_data")

    def __init__(self, rows: int, cols: int, row_data):
        row_data = list(row_data)
        if len(row_data) != rows:
            raise ValueError("row count mismatch")
        mask = (1 << cols) - 1
        for r in row_data:
            if r < 0 or r & ~mask:
                raise ValueError("row wider than column count")
        self.rows = rows
        self.cols = cols
        self.row_data = tuple(row_data)

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product; x holds component j in bit j."""
        v = 0
        for i, r in enumerate(self.row_data):
            if (r & x).bit_count() & 1:
                v |= 1 << i
        return v

    def stack(self, other: "BinaryMatrix") -> "BinaryMatrix":
        if other.cols != self.cols:
            raise ValueError("column count mismatch")
        return BinaryMatrix(
            self.rows + other.rows, self.cols, self.row_data + other.row_data
        )

    def __eq__(self, other):
        return (
            isinstance(other, BinaryMatrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and other.row_data == self.row_data
        )

    def __repr__(self):
        return f"BinaryMatrix({self.rows}x{self.cols})"


def rank(m: BinaryMatrix) -> int:
    rows = [r for r in m.row_data if r]
    rk = 0
    while rows:
        pivot = rows.pop()
        rk += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rk


def row_reduce(rows, cols):
    """Reduced row echelon form; returns (pivot_cols, reduced_rows)."""
    reduced = []
    pivots = []
    for r in rows:
        for p, pr in zip(pivots, reduced):
            if (r >> p) & 1:
                r ^= pr
        if r == 0:
            continue
        p = (r & -r).bit_length() - 1
        reduced = [pr ^ r if (pr >> p) & 1 else pr for pr in reduced]
        reduced.append(r)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [reduced[i] for i in order]


def invert(m: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a square matrix (Gauss-Jordan on [M | I])."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    aug = [r | (1 << (n + i)) for i, r in enumerate(m.row_data)]
    for col in range(n):
        piv = next(
            (i for i in range(col, n) if (aug[i] >> col) & 1),
            None,
        )
        if piv is None:
            raise LinAlgError("inconsistent")
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and (aug[i] >> col) & 1:
                aug[i] ^= aug[col]
    return BinaryMatrix(n, n, [r >> n for r in aug])


def full_rank_completion(h: BinaryMatrix) -> BinaryMatrix:
    """Rows completing ``h`` to an invertible square matrix.

    Chooses standard-basis rows, preferring the lexicographically
    smallest vectors (e_n before e_1), so both hosts derive the same
    completion.  Raises if ``h`` is row-deficient.
    """
    n = h.cols
    if rank(h) != h.rows:
        raise LinAlgError("inconsistent")  # row-deficient input
    pivots, reduced = row_reduce(list(h.row_data), n)
    chosen = []
    for j in range(n - 1, -1, -1):
        v = 1 << j
        red = v
        for p, r in zip(pivots, reduced):
            if (red >> p) & 1:
                red ^= r
        if red:
            chosen.append(v)
            pivots, reduced = row_reduce(reduced + [v], n)
    chosen.sort()
    return BinaryMatrix(len(chosen), n, chosen)
