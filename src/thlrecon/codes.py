"""Syndrome-domain error-correcting codes.

Two code families are built here:

* :class:`BchCode` -- binary BCH codes of natural length 2^s - 1
  shortened to any length n, whose parity-check columns are the packed
  odd powers of :func:`odd_powers` (the packer behind the f-values and
  gamma columns of :mod:`maps_t` too).  Short codes keep a rank-reduced
  parity matrix (smaller syndromes, hence smaller position spaces) and
  take a word's syndrome as its product with it; long codes keep the
  raw odd-power map, with or without exp/log tables, and never
  materialize a dense matrix.
* :class:`RsCode` -- Reed-Solomon codes over an extension field with a
  bounded-distance decoder returning symbol positions and values.  At
  degrees 24 and 26 its arithmetic runs in GF((2^k)^2), converted only
  at the code's boundary, so symbols and positions stay standard.  Under
  a cap it builds comb tables of the positions' powers once, and finds a
  locator's roots at every position in one lane scan.

Every decoder here, and the f-value decoder in :mod:`maps_t`, runs one
chain, each step written once and each raising :class:`DecodingError`
for itself: power sums unpacked as they were packed
(:func:`power_sums`), Berlekamp-Massey for a locator polynomial of
degree L within the radius (:func:`berlekamp_massey`), its roots, sought
in the affine space its minimal affine multiple gives (:func:`find_roots`,
which rejects a locator that does not split), then a re-encode check.
BCH positions, and Reed-Solomon ones above the cap, come from the roots
by discrete log (:func:`position`); under the cap a Reed-Solomon decode
scans its positions for the roots instead.
"""

from __future__ import annotations

import sys
from array import array

from .errors import DecodingError
from .gf2 import FieldSpec, comb_mul, comb_table, ff_make, poly_exponents
from .linalg import BinaryMatrix, row_reduce, transpose

# Up to this length a BCH code rank-reduces its parity matrix, which
# narrows the syndrome (and so the digest); longer codes keep the raw
# odd-power map, as reduction would touch every column.
_DENSE_LIMIT = 4096

# Up to this N * a (positions times symbol bits) a Reed-Solomon code
# builds per-position comb tables, and t > 1 params tabulate each
# position's gamma rows and, when 2^|I| <= N, each I-projection's f
# lanes; above it each is computed per call.  A B_h sequence over at
# most this many positions keeps exp/log tables of its column field.
_POSITION_TABLE_LIMIT = 1 << 12

# find_roots tries each point of an affine root space this small.
_ROOT_SCAN_LIMIT = 1 << 5


# ---------------------------------------------------------------------------
# polynomials with coefficients in GF(2^m), stored low degree first


def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_eval(spec, a, x):
    r = 0
    for c in reversed(a):
        r = spec.mul(r, x) ^ c if r else c
    return r


def poly_rem(spec, a, b):
    """a mod b for a monic b: each leading term is cancelled by its own
    coefficient times b, with no quotient kept and no inverse taken."""
    a, db = list(a), len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j in range(db):
                if b[j]:
                    a[i - db + j] ^= spec.mul(c, b[j])
    return poly_trim(a[:db])


def poly_gcd_ff(spec, a, b):
    """Monic gcd of a monic ``a`` and ``b``, by remainders modulo each
    divisor made monic."""
    b = poly_rem(spec, b, a)
    while b:
        inv = spec.inv(b[-1])
        a, b = [spec.mul(c, inv) for c in b], a
        b = poly_rem(spec, b, a)
    return a


def berlekamp_massey(spec, syndromes, bound: int):
    """Minimal connection polynomial C (C[0]=1) of the sequence, of
    length L.  A bounded-distance decode needs deg C == L <= ``bound``:
    returns C, else raises :class:`DecodingError`."""
    C = [1]
    B = [1]
    L = 0
    m = 1
    b = 1
    for n in range(len(syndromes)):
        d = syndromes[n]
        for i in range(1, L + 1):
            if i < len(C) and C[i]:
                d ^= spec.mul(C[i], syndromes[n - i])
        if d == 0:
            m += 1
            continue
        coef = spec.div(d, b)
        need = len(B) + m
        if need > len(C):
            C = C + [0] * (need - len(C))
        T = C[:]
        for i, Bi in enumerate(B):
            if Bi:
                C[i + m] ^= spec.mul(coef, Bi)
        if 2 * L <= n:
            L = n + 1 - L
            B = T
            b = d
            m = 1
        else:
            m += 1
    C = poly_trim(C)
    if L > bound or len(C) - 1 != L:
        raise DecodingError("uncorrectable syndrome")
    return C


def _linearized(spec, coeffs, y):
    """y^(2^k) + sum_(i<k) coeffs[i] y^(2^i) for k = len(coeffs)."""
    r = 0
    for a in coeffs:
        r ^= spec.mul(a, y)
        y = spec.sqr(y)
    return r ^ y


def first_dependency(spec, columns):
    """(j, c) for the first of ``columns`` (equal-length vectors over
    ``spec``) with columns[j] = sum_(i<j) c[i] columns[i], or None: a
    system's unique solution, with its right-hand side placed last."""
    basis = []  # (pivot, its one inverse, reduced column and its coefficients)
    for j, v in enumerate(columns):
        n, v = len(v), list(v) + [0] * j + [1]
        for p, inv, w in basis:
            if v[p]:
                c = spec.mul(v[p], inv)
                v = [a ^ spec.mul(c, b) if b else a for a, b in zip(v, w)] + v[len(w):]
        p = next((i for i in range(n) if v[i]), None)
        if p is None:
            return j, v[n:-1]
        basis.append((p, spec.inv(v[p]), v))
    return None


def find_roots(spec: FieldSpec, poly):
    """Roots in GF(2^m) of ``poly`` if it is a product of distinct
    linear factors, else raises :class:`DecodingError`.

    T[i] = x^(2^i) mod P (P made monic, of degree d) is squared
    coefficient-wise and reduced by :func:`poly_rem` until the first
    dependency T[k] = c + sum_(i<k) a_i T[i], the minimal affine multiple
    (Berlekamp, Rumsey & Solomon, Inform. Control 1967); a split P has
    T[m] = T[0].  Each root y has L(y) = c, L(y) = y^(2^k) + sum a_i
    y^(2^i) being F_2-linear: one :func:`row_reduce` of its images of
    the basis gives V = x0 + K, its <= 2^k solutions, each tried when
    few, else cut by hyperplanes (:func:`_split`); d roots mean a split.
    """
    poly = poly_trim(list(poly))
    d = len(poly) - 1
    if d < 2:  # a constant has no roots, c0 + c1 x one
        return [spec.div(poly[0], poly[1])] if d > 0 else []
    inv = spec.inv(poly[-1])
    poly = [spec.mul(c, inv) for c in poly]
    m, table = spec.degree, [[0, 1] + [0] * (d - 2)]  # T[0] = x
    for _ in range(min(d - 1, m)):  # d + 1 vectors of length d are dependent
        t = poly_rem(spec, [b for a in table[-1] for b in (spec.sqr(a), 0)], poly)
        table.append(t + [0] * (d - len(t)))
    dep = first_dependency(spec, [[1] + [0] * (d - 1)] + table)
    if dep is None:
        raise DecodingError("uncorrectable syndrome")
    c, coeffs = dep[1][0], dep[1][1:]
    images = (_linearized(spec, coeffs, 1 << j) | 1 << (m + j) for j in range(m))
    x0, image, kernel = 0, 0, []  # a row with no image bits holds a kernel vector
    for p, r in zip(*row_reduce(images)):
        if p >= m:
            kernel.append(r >> m)
        elif c >> p & 1:
            x0, image = x0 ^ r >> m, image ^ r
    if image & spec.order != c or 1 << len(kernel) < d:  # no solution, or too few
        raise DecodingError("uncorrectable syndrome")
    if 1 << len(kernel) > _ROOT_SCAN_LIMIT:
        roots = _split(spec, poly, table, x0, kernel)
    else:
        points = [x0]
        for v in kernel:
            points += [y ^ v for y in points]
        roots = [y for y in points if not poly_eval(spec, poly, y)]
    if len(roots) != d:
        raise DecodingError("uncorrectable syndrome")
    return roots


def _split(spec, poly, table, x0, kernel):
    """Roots of ``poly`` in x0 + span(kernel) by Berlekamp's trace
    algorithm (Math. Comp. 1970) over the flag span(kernel[i:]): gcds with
    S(x) + S(z), z = y or y + kernel[i], S the subspace polynomial of
    span(kernel[i+1:]), halve a factor's root space y + span(kernel[i:])."""
    cuts, s = [], [1]  # s: S, one coefficient per x^(2^j)
    for b in reversed(kernel):
        f = [0] * (len(poly) - 1)  # S(x) mod P, as S is linearized
        for a, t in zip(s, table):
            f = [u ^ spec.mul(a, v) for u, v in zip(f, t)]
        cuts.append((s, f))
        e = _linearized(spec, s[:-1], b)
        s = [spec.mul(e, a) ^ spec.sqr(z) for a, z in zip(s + [0], [0] + s)]
    roots, stack = [], [(poly, 0, x0)]
    while stack:
        p, i, y = stack.pop()  # a factor with its roots in y + span(kernel[i:])
        if len(p) == 2:
            roots.append(p[0])
        elif len(p) > 2 and i < len(kernel):
            s, f = cuts[-1 - i]
            for z in (y, y ^ kernel[i]):
                g = poly_gcd_ff(spec, p, [f[0] ^ _linearized(spec, s[:-1], z)] + f[1:])
                stack.append((g, i + 1, z))
    return roots


def power_sums(spec: FieldSpec, packed: int, k: int):
    """Power sums S_1 .. S_2k from the odd ones S_1, S_3, .., S_(2k-1),
    packed at ``spec.degree`` bits apiece as :func:`odd_powers` packs
    them: in characteristic two S_2i = S_i^2."""
    m = spec.degree
    sums = [0] * (2 * k)
    sums[0::2] = [(packed >> (i * m)) & spec.order for i in range(k)]
    for i in range(1, 2 * k, 2):  # sums[i] holds S_(i+1)
        sums[i] = spec.sqr(sums[i // 2])
    return sums


def position(spec: FieldSpec, root: int, length: int) -> int:
    """The position j below ``length`` whose locator g^j has the
    locator polynomial's root as its inverse: j = -dlog(root) mod the
    group order.  Raises :class:`DecodingError` when j is out of range."""
    j = -spec.dlog(root) % spec.order
    if j >= length:
        raise DecodingError("uncorrectable syndrome")
    return j


def odd_powers(spec: FieldSpec, x: int, k: int) -> int:
    """(x, x^3, .., x^(2k-1)) packed at ``spec.degree`` bits apiece: the
    column of x in a binary BCH parity check.  Any 2k distinct nonzero
    x give F_2-independent columns."""
    x2 = spec.sqr(x)
    packed = p = x
    for i in range(1, k):
        p = spec.mul(p, x2)  # next odd power
        packed |= p << (i * spec.degree)
    return packed


# ---------------------------------------------------------------------------


class BchCode:
    """Binary BCH code, shortened to length ``n``, designed distance
    2e + 1."""

    def __init__(self, n: int, e: int):
        if n < 3 or e < 1:
            raise ValueError("need n >= 3 and e >= 1")
        if 2 * e + 1 > n:
            raise ValueError("designed distance 2e+1 exceeds length n")
        self.length = n
        self.design_errors = e
        s = n.bit_length()  # the least s with 2^s - 1 >= n
        self.field = ff_make(s)
        self.field.ensure_tables()
        self._g = self.field.generator()
        self.redundancy = e * s  # rank reduction narrows it
        self.parity = None  # rank-reduced parity check; short codes only
        self._cols = None
        if n <= _DENSE_LIMIT:
            self._build_reduced()

    def _column(self, i: int) -> int:
        """Column i of the full odd-power parity check."""
        spec = self.field
        return odd_powers(spec, spec.pow(self._g, i), self.design_errors)

    def _build_reduced(self):
        n = self.length
        full = transpose([self._column(i) for i in range(n)], self.redundancy)
        # a codeword is a multiple of the generator g, so no nonzero one
        # has degree below deg g: the rank rho = min(n, deg g) sits in the
        # first rho columns, the parity reduces to [I_rho | P] and the lift
        # of full row i is its low rho bits (MacWilliams & Sloane, ch. 7)
        _, reduced = row_reduce(full)
        self.redundancy = rho = len(reduced)
        self.parity = BinaryMatrix(rho, n, reduced)
        self._lift = BinaryMatrix(len(full), rho, [r & (1 << rho) - 1 for r in full])
        self._cols = transpose(reduced, n)

    # -- syndromes -------------------------------------------------------

    def syndrome_from_positions(self, positions) -> int:
        """Packed syndrome of the 0/1 vector supported on ``positions``
        (0-based, duplicates cancel mod 2).  A long code with exp/log
        tables reads each odd power (g^i)^(2k+1) straight from the exp
        table.  Raises ValueError for a position outside [0, n)."""
        positions = list(positions)
        if positions and not 0 <= min(positions) <= max(positions) < self.length:
            raise ValueError("position out of range")
        v = 0
        if self._cols is not None:
            for i in positions:
                v ^= self._cols[i]
            return v
        spec = self.field
        exp, order = spec._exp, spec.order
        if exp is None:
            for i in positions:
                v ^= self._column(i)
            return v
        for k in range(self.design_errors):
            a, s = 2 * k + 1, 0
            for i in positions:
                s ^= exp[a * i % order]
            v |= s << (k * spec.degree)
        return v

    def syndrome_bits(self, x: int) -> int:
        """Packed syndrome of the 0/1 vector x below 2^n, position i in
        bit i: the parity matrix times x.  Only a rank-reduced code has
        the matrix; a long one takes positions instead."""
        if self.parity is None:
            raise ValueError("syndrome_bits needs a rank-reduced code")
        return self.parity.mul_vec(x)

    # -- decoding --------------------------------------------------------

    def decode_positions(self, synd: int):
        """Error positions (sorted, 0-based) of the unique weight <= e
        pattern with this syndrome.  Raises DecodingError if none."""
        if synd == 0:
            return []
        spec, e = self.field, self.design_errors
        # a rank-reduced syndrome lifts to the full odd-power one
        full = synd if self.parity is None else self._lift.mul_vec(synd)
        roots = find_roots(spec, berlekamp_massey(spec, power_sums(spec, full, e), e))
        positions = sorted(position(spec, root, self.length) for root in roots)
        if self.syndrome_from_positions(positions) != synd:
            raise DecodingError("uncorrectable syndrome")
        return positions

    def __repr__(self):
        return f"BchCode(n={self.length}, e={self.design_errors})"


class RsCode:
    """Reed-Solomon code over GF(2^a), locators g^j for j in [0, N).
    Symbols are in the standard basis; the arithmetic runs in the work
    field of :meth:`FieldSpec.work_field`, entered and left at the
    boundary of :meth:`syndrome_sparse` and :meth:`decode`.  Set-up builds
    ``syndrome_tables``, ``locator_lanes`` and ``inverse_locators`` when
    N * a is under the cap, else logs."""

    def __init__(self, field: FieldSpec, length: int, d: int):
        if d < 1 or d > length:
            raise ValueError("need 1 <= d <= length")
        if length > field.order:
            raise ValueError("length exceeds the number of nonzero locators")
        self.field = field
        self.length = length
        self.distance = d
        self.redundancy = d - 1
        self.max_errors = (d - 1) // 2
        self._work, self._to_work, self._from_work = field.work_field()
        # g^j = lo[j mod 2^b] * hi[j >> b], 2^b >= sqrt(length)
        work, g = self._work, self._work.generator()
        self._lo_bits = b = ((length - 1).bit_length() + 1) // 2
        self._lo = [1]
        for _ in range((1 << b) - 1):
            self._lo.append(work.mul(self._lo[-1], g))
        step = work.mul(self._lo[-1], g)  # g^(2^b)
        self._hi = [1]
        for _ in range((length - 1) >> b):
            self._hi.append(work.mul(self._hi[-1], step))
        self.syndrome_tables = self.locator_lanes = self.inverse_locators = None
        if length * field.degree <= _POSITION_TABLE_LIMIT:
            self._build_tables()
        else:
            field.ensure_tables()  # positions come from dlog

    def _build_tables(self):
        """Per position j the :func:`comb_table` of x_j^(i+1), i < d - 1,
        in the standard basis, packed in lanes 2a bits apart: a product
        with a symbol below 2^a has degree at most 2a - 2, so it never
        leaves its lane.  Per power p <= (d-1)/2, ``locator_lanes`` holds
        the comb table of one int with x_j^p in lane j, from the same
        powers; ``inverse_locators`` holds each x_j^-1 in the work field."""
        work, w, e = self._work, 2 * self.field.degree, self.max_errors
        ones = ((1 << self.length * w) - 1) // ((1 << w) - 1)  # 1 in each lane
        self.syndrome_tables, inverses, lanes = [], [], [ones] + [0] * e
        for j in range(self.length):
            xj = p = self.locator(j)
            inverses.append(work.inv(xj))
            packed = 0
            for i in range(self.redundancy):
                s = self._from_work(p)
                packed |= s << (i * w)
                if i < e:
                    lanes[i + 1] |= s << j * w
                p = work.mul(p, xj)
            self.syndrome_tables.append(comb_table(packed))
        self.locator_lanes = tuple(map(comb_table, lanes))
        self.inverse_locators = tuple(inverses)

    def locator(self, j: int) -> int:
        """g^j in the work field: one product of two table entries."""
        b = self._lo_bits
        return self._work.mul(self._lo[j & ((1 << b) - 1)], self._hi[j >> b])

    def syndrome_sparse(self, values: dict) -> tuple:
        """Syndromes S_i = sum_j v_j (g^j)^i of a sparse vector: one comb
        product per symbol, summed unreduced and each lane folded once, or
        d - 1 work-field products above the table cap.  ValueError for j
        outside [0, length) or v_j outside [0, 2^a)."""
        spec, tables, a = self._work, self.syndrome_tables, self.field.degree
        acc, out = 0, [0] * self.redundancy
        for j, v in values.items():
            if not 0 <= j < self.length:
                raise ValueError("position out of range")
            if v < 0 or v >> a:
                raise ValueError("symbol out of range")
            if tables is not None:
                acc ^= comb_mul(v, tables[j])
            elif v:
                xj, term = self.locator(j), self._to_work(v)
                for i in range(self.redundancy):
                    term = spec.mul(term, xj)  # v x_j^(i+1)
                    out[i] ^= term
        if tables is None:
            return tuple(map(self._from_work, out))
        w, reduce = 2 * a, self.field.reduce
        return tuple(reduce(acc >> i * w & (1 << w) - 1) for i in range(len(out)))

    def decode(self, syndromes) -> dict:
        """Error vector {position: value} of weight <= (d-1)/2 matching
        the syndromes.  Raises DecodingError when there is none."""
        syndromes = tuple(syndromes)
        if len(syndromes) != self.redundancy:
            raise ValueError("syndrome length mismatch")
        if any(s < 0 or s >> self.field.degree for s in syndromes):
            raise ValueError("symbol out of range")
        if not any(syndromes):
            return {}
        spec = self._work
        sums = list(map(self._to_work, syndromes))
        loc = berlekamp_massey(spec, sums, self.max_errors)
        if self.locator_lanes is None:
            roots = find_roots(spec, loc)
            found = [(position(spec, root, self.length), root) for root in roots]
        else:
            found = self._scan(loc)
        # Forney: error evaluator for syndromes starting at power one,
        # over the formal derivative, which in characteristic two keeps
        # the odd terms; it is nonzero at the locator's simple roots.
        # S(x) C(x) has no terms from x^L to x^(d-2), as C generates the
        # sums, so the evaluator is its L low terms
        L = len(loc) - 1
        omega = [0] * L
        for i, c in enumerate(loc[:L]):
            for k in range(i, L):
                omega[k] ^= spec.mul(c, sums[k - i])
        dloc = loc[1::2]
        errors = {}
        for j, root in found:
            num = poly_eval(spec, omega, root)
            value = spec.div(num, poly_eval(spec, dloc, spec.sqr(root)))
            errors[j] = self._from_work(value)
        if 0 in errors.values() or self.syndrome_sparse(errors) != syndromes:
            raise DecodingError("uncorrectable syndrome")
        return errors

    def _scan(self, loc):
        """The roots (j, x_j^-1) of a locator of degree L that
        :func:`berlekamp_massey` has checked, sought at every position at
        once (Chien, IEEE Trans. IT 1964): lane j of sum_i C_i x_j^(L-i) is
        x_j^L C(x_j^-1), zero exactly at a root; fewer than L zero lanes
        mean no split over the positions."""
        L, acc, lanes = len(loc) - 1, 0, self.locator_lanes
        for i, c in enumerate(loc):
            acc ^= comb_mul(self._from_work(c), lanes[L - i])
        spec, ones = self.field, lanes[0][1]  # entry 1: 1 in every lane
        low = ones * spec.order  # adding it sets bit a of each nonzero lane
        zero = ones & ~((spec.reduce_lanes(acc, ~low) + low) >> spec.degree)
        if zero.bit_count() < L:
            raise DecodingError("uncorrectable syndrome")
        found, w = [], 2 * spec.degree
        while zero:
            j = (zero.bit_length() - 1) // w
            found.append((j, self.inverse_locators[j]))
            zero ^= 1 << j * w
        return found

    def __repr__(self):
        return f"RsCode({self.field!r}, n={self.length}, d={self.distance})"


# ---------------------------------------------------------------------------
# spec-level operations


def bch_build(n: int, e: int) -> BchCode:
    return BchCode(n, e)


def rs_code(field: FieldSpec, length: int, d: int) -> RsCode:
    return RsCode(field, length, d)


# ---------------------------------------------------------------------------
# B_h sequences


class BhSequence:
    """Sequence b_0..b_{m-1} of :meth:`packed_width`-bit integers in
    which every subset of size 1..h has a nonzero exclusive-or.

    Elements are the bit-packed parity columns of an extended
    Reed-Solomon code over GF(2^w): column i holds the powers
    (x_i^0, x_i^1, ..., x_i^{h-1}) of the field element with bit
    pattern i, w bits each.  Any h such columns form a Vandermonde
    system, hence the subset property.  Whether they fit the digest
    field is ``params_build``'s ``bh_width`` check.

    Each b_i is F_2-affine in its key, the packed odd powers (x_i,
    x_i^3, ...) below h: ``const`` XOR the ``basis`` entries at the
    key's set bits.  Squaring is linear over F_2, so key bit k of x_i^o
    adds (x^k)^(2^a) at each power o 2^a below h, and the basis is
    sparse and fixed at set-up.  At h = 1 the key is i + 1, the basis
    the unit vectors and ``const`` 0.  Only a key holding x_i^3 (h >= 4)
    multiplies, and :meth:`keys` computes a whole batch at once.  When m
    is within the position-table cap, the column field has exp/log
    tables and x^o = exp[o log x].  Above it, position e sits in lane e
    of one int (SIMD within a register: Fisher & Dietz, LCPC 1998).  x^2
    is x's bits spread to the even places, so each next odd power p x^2
    is w masked shift-XORs: p << 2j in every lane where x has bit j, the
    mask being that bit times an all-ones lane, an integer multiply with
    no carry as each lane holds 0 or 1.  One :meth:`FieldSpec.reduce_lanes`
    folds every lane's product.  A lane is whole 64-bit words, wide
    enough for the unreduced product (3w - 2 bits) and for the key.
    Elements are computed on demand; m may be in the millions.

    ``nibble_terms`` gathers the basis by key nibbles for sums of
    products: entry 16 p + v holds the exponents of the XOR of
    basis[4 p + k] over the set bits k of v, the multiplier of every
    term whose key has nibble v at position p.  The entries at p = 0
    also hold ``const``: a sum that takes each term once at position 0
    multiplies their total by it.
    """

    def __init__(self, m: int, h: int):
        if m < 1 or h < 1:
            raise ValueError("need m >= 1 and h >= 1")
        self.m = m
        self.order = h
        self.width = w = self.packed_width(m, h) // h
        self._col_field = None
        if h == 1:
            self.const, self.basis = 0, tuple(1 << k for k in range(w))
        else:
            spec, basis = ff_make(w), []
            for o in range(1, h, 2):
                for k in range(w):
                    c, e, v = 0, o, 1 << k
                    while e < h:  # x^k's image (x^k)^(2^a) at power e = o 2^a
                        c |= v << (e * w)
                        e, v = 2 * e, spec.sqr(v)
                    basis.append(c)
            self.const, self.basis = 1, tuple(basis)
            if h >= 4:
                self._col_field = spec
                if m <= _POSITION_TABLE_LIMIT:
                    spec.ensure_tables()
                else:
                    self._lane_words = size = -(-max(3 * w - 2, h // 2 * w) // 64)
                    # a lane's low word: its first little-endian, its last big-endian
                    self._low_word = 0 if sys.byteorder == "little" else size - 1
        terms = []
        for p in range(0, len(self.basis), 4):
            # index v: the XOR of basis[p + k] over v's bits k, and const
            # at p = 0, where every key has exactly one nibble
            sums = [0 if p else self.const]
            for b in self.basis[p : p + 4]:
                sums += [c ^ b for c in sums]
            terms += map(poly_exponents, sums + [0] * (16 - len(sums)))
        self.nibble_terms = tuple(terms)

    @staticmethod
    def packed_width(m: int, h: int) -> int:
        if h == 1:
            return max(1, m.bit_length())
        return h * max(1, (m - 1).bit_length())

    def keys(self, positions) -> list:
        """The key of each position i: the packed odd powers (x_i, x_i^3,
        ...) below h, w bits apiece; i + 1 at h = 1.  Raises IndexError
        for a position outside [0, m)."""
        positions = list(positions)
        if positions and not 0 <= min(positions) <= max(positions) < self.m:
            raise IndexError("B_h index out of range")
        spec, w = self._col_field, self.width
        if spec is None:
            return [i + 1 for i in positions] if self.order == 1 else positions
        odd = range(3, self.order, 2)
        if self.m <= _POSITION_TABLE_LIMIT:
            exp, log, q = spec._exp, spec._log, spec.order
            keys = []
            for i in positions:
                key, li = i, log[i]
                for k, o in enumerate(odd, 1):
                    key |= exp[o * li % q] << k * w
                keys.append(key if i else 0)
            return keys
        n, size = len(positions), self._lane_words
        words = array("Q", bytes(8 * size * n))  # x's 64-bit digits, size per lane
        words[self._low_word :: size] = array("Q", positions)
        x = int.from_bytes(words, sys.byteorder)
        ones = int.from_bytes((b"\1" + bytes(8 * size - 1)) * n, "little")
        full, high_bits = (1 << 64 * size) - 1, ~(ones * spec.order)
        key = p = x
        for k in range(1, len(odd) + 1):
            prod = 0
            for j in range(w):  # p x^2: x^2 unreduced has x's bit j at 2j
                prod ^= (x >> j & ones) * full & p << 2 * j
            p = spec.reduce_lanes(prod, high_bits)
            key |= p << k * w
        words = array("Q", key.to_bytes(8 * len(words), sys.byteorder))
        if size == 1:
            return words.tolist()
        lanes = range(0, len(words), size)
        return [int.from_bytes(words[e : e + size], sys.byteorder) for e in lanes]

    def element_values(self, positions) -> list:
        """b_i for each position i; IndexError outside [0, m)."""
        values = []
        for key in self.keys(positions):
            value = self.const
            for b in self.basis:
                if key & 1:
                    value ^= b
                key >>= 1
            values.append(value)
        return values


def bh_sequence(m: int, h: int) -> BhSequence:
    return BhSequence(m, h)
