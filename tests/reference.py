"""Brute-force references and matrix helpers that only tests use."""

from thlrecon.errors import DecodingError, LinAlgError
from thlrecon.linalg import BinaryMatrix, row_reduce
from thlrecon.maps_t import map_f


def from_lists(entries) -> BinaryMatrix:
    """Matrix from a list of 0/1 rows, column j in bit j."""
    entries = [list(r) for r in entries]
    cols = len(entries[0]) if entries else 0
    rows = []
    for r in entries:
        if len(r) != cols:
            raise ValueError("ragged rows")
        rows.append(sum(1 << j for j, b in enumerate(r) if b))
    return BinaryMatrix(len(entries), cols, rows)


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


def greedy_completion(h: BinaryMatrix) -> BinaryMatrix:
    """full_rank_completion by its definition: scan e_n down to e_1 and
    keep each unit row outside the span of ``h`` and the rows kept."""
    basis = []  # each row is clear at the lowest bits of the rows before it

    def reduce(v):
        for b in basis:
            if v & b & -b:
                v ^= b
        return v

    for r in h.row_data:
        r = reduce(r)
        if not r:
            raise LinAlgError("row-deficient matrix")
        basis.append(r)
    chosen = []
    for j in range(h.cols - 1, -1, -1):
        v = reduce(1 << j)
        if v:
            basis.append(v)
            chosen.append(1 << j)
    chosen.sort()
    return BinaryMatrix(len(chosen), h.cols, chosen)


def nullspace(m: BinaryMatrix):
    """Basis of the right nullspace, one int per basis vector."""
    pivots, reduced = row_reduce(m.row_data)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for p, r in zip(pivots, reduced):
            if (r >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def decode_syndrome_exhaustive(code, synd: int, max_weight=2):
    """Positions of the weight <= 2 pattern with this packed BCH
    syndrome, by search."""
    if synd == 0:
        return []
    n = code.length
    for i in range(n):
        if code.syndrome_from_positions([i]) == synd:
            return [i]
    if max_weight >= 2:
        for i in range(n):
            si = code.syndrome_from_positions([i])
            for j in range(i + 1, n):
                if si ^ code.syndrome_from_positions([j]) == synd:
                    return [i, j]
    raise DecodingError("uncorrectable syndrome")


def f_sum_decompose_exhaustive(params, zeta: int, tmax: int):
    """Brute-force f_sum_decompose for small |I| and tmax <= 2."""
    m = len(params.I)
    if zeta == 0:
        raise DecodingError("undecodable")
    all_values = {map_f(params, x): x for x in range(1 << m)}
    if zeta in all_values:
        return [zeta]
    if tmax >= 2:
        for v in all_values:
            w = zeta ^ v
            if w > v and w in all_values:
                return sorted([v, w])
    raise DecodingError("undecodable")
