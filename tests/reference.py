"""Brute-force references and matrix helpers that only tests use."""

from thlrecon.bits import BitVector
from thlrecon.codes import (
    berlekamp_massey, find_roots, odd_powers, poly_eval, poly_gcd_ff, poly_rem, poly_trim,
)
from thlrecon.errors import DecodingError, LinAlgError
from thlrecon.gf2 import ff_make, poly_gcd, poly_mod, poly_mul, poly_square
from thlrecon.linalg import BinaryMatrix, row_reduce
from thlrecon.maps_t import map_f, map_M
from thlrecon.params import Digest, default_index_set


def from_bits(bits) -> BitVector:
    """Vector from an iterable of 0/1 values, position 1 first."""
    bits = list(bits)
    return BitVector(sum(1 << i for i, b in enumerate(bits) if b), len(bits))


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


def mul_vec_rows(m: BinaryMatrix, x: int) -> int:
    """BinaryMatrix.mul_vec row by row: bit i of the product is the
    parity of row i and x."""
    v = 0
    for i, r in enumerate(m.row_data):
        if (r & x).bit_count() & 1:
            v |= 1 << i
    return v


def stack(top: BinaryMatrix, bottom: BinaryMatrix) -> BinaryMatrix:
    """The rows of ``top`` above the rows of ``bottom``."""
    if top.cols != bottom.cols:
        raise ValueError("column count mismatch")
    return BinaryMatrix(
        top.rows + bottom.rows, top.cols, top.row_data + bottom.row_data
    )


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


def bch_odd_power_columns(n: int, e: int) -> list:
    """The n columns (a, a^3, .., a^(2e-1)), a = g^i, of a BCH code of
    designed distance 2e+1 shortened to n, each power by spec.pow."""
    spec = ff_make(n.bit_length())
    g, s = spec.generator(), spec.degree
    return [
        sum(spec.pow(spec.pow(g, i), 2 * k + 1) << (k * s) for k in range(e))
        for i in range(n)
    ]


def vector_rank(vectors) -> int:
    """Rank over F_2 of a list of ints, by a basis kept by leading bit."""
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


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


def poly_mul_ff(spec, a, b):
    """Product of two polynomials over ``spec``, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= spec.mul(ai, bj)
    return poly_trim(out)


def roots_by_search(spec, poly):
    """Sorted roots of a polynomial over ``spec`` (coefficients low
    degree first), by evaluating it at every field element."""
    roots = []
    for x in range(1 << spec.degree):
        v = 0
        for c in reversed(poly):
            v = spec.mul(v, x) ^ c
        if v == 0:
            roots.append(x)
    return roots


def find_roots_trace(spec, poly):
    """codes.find_roots by Berlekamp's trace algorithm over the whole
    field: the table T[k] = x^(2^k) mod P for k = 0..m, the split test
    T[m] = x, then gcds with Tr(c x) = sum_(k<m) c^(2^k) T[k] and
    Tr(c x) + 1 for c = 1, 2, 4, .. until every factor is linear."""
    poly = poly_trim(list(poly))
    if len(poly) <= 1:
        return []
    inv = spec.inv(poly[-1])
    poly = [spec.mul(c, inv) for c in poly]
    table = [poly_rem(spec, [0, 1], poly)]
    for _ in range(spec.degree):
        sq = [0] * (2 * len(table[-1]) - 1)
        sq[::2] = [spec.sqr(a) for a in table[-1]]
        table.append(poly_rem(spec, sq, poly))
    if table[-1] != table[0]:
        return None
    roots = []
    stack = [(poly, 0)]  # a factor, and the basis element to try next
    while stack:
        p, i = stack.pop()
        if len(p) == 2:
            roots.append(p[0])
            continue
        c, trace = 1 << i, [0] * (len(poly) - 1)
        for t in table[:-1]:
            for j, tj in enumerate(t):
                trace[j] ^= spec.mul(c, tj)
            c = spec.sqr(c)
        g = poly_gcd_ff(spec, p, trace)
        if 0 < len(g) - 1 < len(p) - 1:
            trace[0] ^= 1
            stack += [(g, i + 1), (poly_gcd_ff(spec, p, trace), i + 1)]
        else:
            stack.append((p, i + 1))
    return roots


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


def f_inverse(params, v: int) -> int:
    """I-projection whose f-value is v; DecodingError if not in the image."""
    m = len(params.I)
    beta = v & ((1 << (m + 1)) - 1)
    if not (beta >> m) & 1:
        raise DecodingError("not in image")
    xI = beta & ((1 << m) - 1)
    if map_f(params, xI) != v:
        raise DecodingError("not in image")
    return xI


def cond4_violation_prob(params) -> float:
    """Probability bound that a random instance breaks the index-set
    agreement conditions: t*h^2*ell*|I|/n + t^2*h^2/2^|I|, clipped to 1.

    For t = 1 configurations (empty I) the default index-set size is
    used so the estimate stays well defined.
    """
    m = len(params.I) or len(default_index_set(params.n))
    t, h = params.t, params.h
    p = t * h * h * params.ell * m / params.n + t * t * h * h / (1 << m)
    return min(1.0, p)


def _prime_divisors(m: int):
    ps = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            ps.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        ps.append(m)
    return ps


def rabin_is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^m) = x mod f, and gcd(x^(2^(m/p)) - x, f) = 1
    for every prime p dividing m."""
    m = f.bit_length() - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    need = {m // p for p in _prime_divisors(m)}
    cur = 2
    for k in range(1, m + 1):
        cur = poly_mod(poly_square(cur), f)
        if k in need and poly_gcd(cur ^ 2, f) != 1:
            return False
    return cur == 2


def rabin_find_irreducible(m: int) -> int:
    """Lex-least irreducible polynomial of degree m, by Rabin's test."""
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        if rabin_is_irreducible(f):
            return f
    raise AssertionError("no irreducible polynomial found")


def _poly_divmod(a: int, b: int):
    q = 0
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        s = a.bit_length() - 1 - db
        q |= 1 << s
        a ^= b << s
    return q, a


def eea_inverse(spec, a: int) -> int:
    """Inverse of a nonzero ``a`` in ``spec`` by the extended Euclidean
    algorithm with full polynomial quotients."""
    r0, r1 = spec.modulus, a
    s0, s1 = 0, 1
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ poly_mul(q, s1)
    assert r0 == 1
    return s0


def clmul_bits(a: int, b: int) -> int:
    """Carry-less product, one shift-and-xor per set bit of a."""
    r = 0
    while a:
        lsb = a & -a
        r ^= b << (lsb.bit_length() - 1)
        a ^= lsb
    return r


def project_bits(x: BitVector, positions) -> int:
    """bits.project one bit at a time: bit i is x at positions[i]."""
    v = 0
    for i, p in enumerate(positions):
        if (x.value >> (p - 1)) & 1:
            v |= 1 << i
    return v


def place_bits(n: int, positions, packed: int, other_positions=(), other_packed: int = 0):
    """bits.place one bit at a time."""
    v = 0
    for i, p in enumerate(positions):
        if (packed >> i) & 1:
            v |= 1 << (p - 1)
    for i, p in enumerate(other_positions):
        if (other_packed >> i) & 1:
            v |= 1 << (p - 1)
    return BitVector(v, n)


def gamma_column(params, j: int) -> int:
    """Row 0 of maps_t.gamma(params, j), computed, never read from the
    set-up table: the odd powers of delta = j with a forced leading bit."""
    return odd_powers(params.delta_field, j | (1 << params.r), params.s_prime)


def encode1_reference(params, S) -> Digest:
    """encode1 with one carry-less product b_M(x) * Hbar x per element,
    the sum reduced once, and Hbar the rows of :func:`greedy_completion`,
    multiplied row by row."""
    h_bar = greedy_completion(params.cl.parity)
    positions, w2 = [], 0
    for x in S:
        j = map_M(params, x)
        positions.append(j)
        w2 ^= poly_mul(params.bh.element_values((j,))[0], mul_vec_rows(h_bar, x.value))
    return Digest((
        params.comp.syndrome_from_positions(positions),
        poly_mod(w2, params.digest_field.modulus),
    ))


def encode_t_reference(params, S) -> Digest:
    """recont.encode_t with every GF(2^nbar) product reduced on its own
    (spec.mul), per-bit projections and gamma columns squared row by
    row."""
    spec = params.nbar_field
    t = params.t
    z1 = {}
    grid = [[0] * t for _ in range(t)]
    for x in S:
        j = map_M(params, x)
        fx = map_f(params, project_bits(x, params.I))
        z1[j] = z1.get(j, 0) ^ fx
        xibar = project_bits(x, params.ibar)
        g = gamma_column(params, j)
        for row in grid:
            f = fx
            for k in range(t):
                row[k] ^= spec.mul(g, spec.mul(f, xibar))
                f = spec.sqr(f)
            g = spec.sqr(g)
    return Digest(rs_syndromes(params.comp_rs, z1) + sum(map(tuple, grid), ()))


def rs_syndromes(code, values) -> tuple:
    """RsCode.syndrome_sparse in the code's standard field: S_i = sum_j
    v_j (g^j)^i for i = 1..d-1, one power at a time."""
    spec = code.field
    g = spec.generator()
    out = [0] * code.redundancy
    for j, v in values.items():
        xj = spec.pow(g, j)
        for i in range(code.redundancy):
            out[i] ^= spec.mul(v, spec.pow(xj, i + 1))
    return tuple(out)


def rs_decode(code, syndromes) -> dict:
    """RsCode.decode in the code's standard field: the locator and its
    roots, Forney's values from the whole product S(x) C(x) below
    x^(d-1), then the re-encode check."""
    spec = code.field
    syndromes = list(syndromes)
    if not any(syndromes):
        return {}
    loc = berlekamp_massey(spec, syndromes, code.max_errors)
    roots = find_roots(spec, loc)
    omega = poly_mul_ff(spec, syndromes, loc)[: code.redundancy]
    dloc = loc[1::2]
    errors = {}
    for root in roots:
        j = spec.dlog(spec.inv(root))
        if j >= code.length:
            raise DecodingError("uncorrectable syndrome")
        num = poly_eval(spec, omega, root)
        errors[j] = spec.div(num, poly_eval(spec, dloc, spec.sqr(root)))
    if 0 in errors.values() or rs_syndromes(code, errors) != tuple(syndromes):
        raise DecodingError("uncorrectable syndrome")
    return errors
