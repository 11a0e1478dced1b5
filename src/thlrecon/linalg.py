"""Dense linear algebra over F_2.

Matrices store one int per row, column ``j`` in bit ``j``.  Gaussian
elimination is written once, in :func:`row_reduce`, which completion
and inversion each read.  The one matrix-vector product,
:meth:`BinaryMatrix.mul_vec`, takes whichever of two ways costs fewer
steps, by the matrix's shape.  A matrix with at least as many rows as
bytes in a vector reads per-byte tables of its columns (Method of Four
Russians; Albrecht, Bard & Hart, ACM TOMS 2010): one lookup and XOR
per byte of the vector.  A shorter, wider one, such as the t=1 C_l
parity H_l at 18x511, builds no tables and takes one parity of
``row & x`` per row.  A selection matrix, such as the t=1 tail H_bar
(unit rows at H_l's non-pivot columns), is never multiplied:
:func:`bits.project` reads the runs of the ``params.tail`` selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LinAlgError

# Columns per product table: one byte of the vector indexes it.
_TABLE_BITS = 8


@dataclass(frozen=True, slots=True, repr=False)
class BinaryMatrix:
    """Immutable row-major bit matrix, unhashable.

    Its product tables are built on the first product, or ahead of it by
    :meth:`ensure_tables`; a matrix that is never multiplied holds
    none, and one with fewer rows than tables an empty list."""

    rows: int
    cols: int
    row_data: tuple
    _tables: list | None = field(default=None, init=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "row_data", tuple(self.row_data))
        if len(self.row_data) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        for r in self.row_data:
            if r < 0 or r & ~mask:
                raise ValueError("row wider than column count")

    def ensure_tables(self):
        """The product tables, built once.  Table k holds at index b the
        XOR of columns 8k + j over the set bits j of b; the last table
        covers the columns that remain.  None are built when the matrix
        has fewer rows than tables: a parity per row is then cheaper."""
        if self._tables is None:
            tables = []
            if self.rows * _TABLE_BITS >= self.cols:
                cols = transpose(self.row_data, self.cols)
                for k in range(0, self.cols, _TABLE_BITS):
                    t = [0]
                    for c in cols[k : k + _TABLE_BITS]:
                        t += [v ^ c for v in t]
                    tables.append(t)
            object.__setattr__(self, "_tables", tables)
        return self._tables

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product; x holds component j in bit j and is
        below 2^cols.  XORs one table entry per byte of x, or, with no
        tables, sets bit k to the parity of row k AND x."""
        tables = self._tables
        if tables is None:
            tables = self.ensure_tables()
        v = 0
        if not tables:
            for row in reversed(self.row_data):
                v = v << 1 | (row & x).bit_count() & 1
            return v
        for t, b in zip(tables, x.to_bytes(len(tables), "little")):
            v ^= t[b]
        return v

    def __repr__(self):
        return f"BinaryMatrix({self.rows}x{self.cols})"


def transpose(rows, cols: int):
    """The columns of a matrix given by a list of rows below 2^cols, as
    ints.  zip transposes the rows' bit strings, which is many times
    faster than testing bits one at a time."""
    if not rows or not cols:
        return [0] * cols
    bits = [format(r, f"0{cols}b") for r in reversed(rows)]  # high bits first
    return [int("".join(c), 2) for c in zip(*bits)][::-1]


def row_reduce(rows):
    """Reduced row echelon form, each row's pivot at its lowest set bit;
    returns (pivot_cols, reduced_rows), both in pivot order."""
    by_pivot, pivots = {}, 0  # pivot bit -> its row, clear at the others
    for r in rows:
        x = r & pivots
        while x:  # one XOR per pivot bit of r
            r ^= by_pivot[x & -x]
            x &= x - 1
        if r:
            low = r & -r
            for b, pr in by_pivot.items():
                if pr & low:
                    by_pivot[b] = pr ^ r
            by_pivot[low], pivots = r, pivots | low
    bits = sorted(by_pivot)
    return [b.bit_length() - 1 for b in bits], [by_pivot[b] for b in bits]


def invert(m: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a square matrix: [M | I] reduces to [I | M^-1]."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    aug = (r | (1 << (n + i)) for i, r in enumerate(m.row_data))
    pivots, reduced = row_reduce(aug)
    if pivots != list(range(n)):
        raise LinAlgError("singular matrix")
    return BinaryMatrix(n, n, [r >> n for r in reduced])


def full_rank_completion(h: BinaryMatrix) -> BinaryMatrix:
    """Rows completing ``h`` to an invertible square matrix.

    The unit rows e_j at the non-pivot columns of ``h``'s reduced form,
    in ascending j.  These are the rows a greedy scan from e_n down to
    e_1 keeps, so both hosts derive the same completion: a pivot
    column's e_j is its reduced row plus higher non-pivot units, and a
    non-pivot column's e_j is not in that span, as every nonzero vector
    of the row space has its lowest bit at a pivot column.  Raises if
    ``h`` is row-deficient.
    """
    pivots, _ = row_reduce(h.row_data)
    if len(pivots) != h.rows:
        raise LinAlgError("row-deficient matrix")
    pivots = set(pivots)
    chosen = [1 << j for j in range(h.cols) if j not in pivots]
    return BinaryMatrix(len(chosen), h.cols, chosen)
