"""Syndrome-domain error-correcting codes.

Two code families are built here:

* :class:`BchCode` -- binary BCH codes of natural length 2^s - 1
  shortened to any length n, with odd-power syndrome maps.  Short codes
  keep a rank-reduced parity matrix (smaller syndromes, hence smaller
  position spaces); long codes (length up to 2^21) keep the raw
  odd-power map and never materialize a dense matrix.
* :class:`RsCode` -- Reed-Solomon codes over an extension field with a
  bounded-distance decoder returning symbol positions and values.

Every decoder here, and the f-value decoder in :mod:`maps_t`, runs one
chain: power sums, Berlekamp-Massey for the locator polynomial
(:func:`locate`), roots by gcd/trace-map splitting, then a re-encode
check.  BCH positions come from the roots by discrete log, which stays
cheap at any length.
"""

from __future__ import annotations

from .errors import DecodingError
from .gf2 import FieldSpec, ff_make
from .linalg import BinaryMatrix, row_reduce

# Up to this length a BCH code rank-reduces its parity matrix, which
# narrows the syndrome (and so the digest); longer codes keep the raw
# odd-power map, as reduction would touch every column.
_DENSE_LIMIT = 4096


# ---------------------------------------------------------------------------
# polynomials with coefficients in GF(2^m), stored low degree first


def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_eval(spec, a, x):
    r = 0
    for c in reversed(a):
        r = spec.mul(r, x) ^ c
    return r


def poly_mul_ff(spec, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= spec.mul(ai, bj)
    return poly_trim(out)


def poly_divmod_ff(spec, a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = spec.inv(b[-1])
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and poly_trim(a):
        da = len(a) - 1
        c = spec.mul(a[-1], inv_lead)
        q[da - db] = c
        for i, bi in enumerate(b):
            a[da - db + i] ^= spec.mul(c, bi)
        poly_trim(a)
    return poly_trim(q), a


def poly_gcd_ff(spec, a, b):
    a, b = list(a), list(b)
    while poly_trim(b):
        _, r = poly_divmod_ff(spec, a, b)
        a, b = b, r
    if a:
        inv = spec.inv(a[-1])
        a = [spec.mul(c, inv) for c in a]
    return a


def berlekamp_massey(spec, syndromes):
    """Minimal connection polynomial C (C[0]=1) for the given sequence.

    Returns (C, L).  A valid bounded-distance decode requires
    deg C == L, which callers must check.
    """
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
    return poly_trim(C), L


def find_roots(spec: FieldSpec, poly):
    """All roots in GF(2^m) of a low-degree polynomial, via gcd with
    x^(2^m) - x followed by trace-map splitting.  Deterministic."""
    poly = poly_trim(list(poly))
    if len(poly) <= 1:
        return []
    inv = spec.inv(poly[-1])
    poly = [spec.mul(c, inv) for c in poly]
    if len(poly) == 2:
        return [poly[0]]
    # isolate the distinct-linear-factor part
    cur = [0, 1]
    for _ in range(spec.degree):
        cur = poly_divmod_ff(spec, poly_mul_ff(spec, cur, cur), poly)[1]
    diff = list(cur) + [0] * (2 - len(cur))
    diff[1] ^= 1
    lin = poly_gcd_ff(spec, poly, diff)
    roots = []
    stack = [lin]
    while stack:
        p = stack.pop()
        if len(p) <= 1:
            continue
        if len(p) == 2:
            roots.append(p[0])
            continue
        for i in range(spec.degree):
            c = 1 << i
            acc = [0, c]
            curp = [0, c]
            for _ in range(spec.degree - 1):
                curp = poly_divmod_ff(spec, poly_mul_ff(spec, curp, curp), p)[1]
                if len(acc) < len(curp):
                    acc += [0] * (len(curp) - len(acc))
                for j, cj in enumerate(curp):
                    acc[j] ^= cj
            g = poly_gcd_ff(spec, p, poly_trim(acc))
            if 0 < len(g) - 1 < len(p) - 1:
                stack.append(g)
                stack.append(poly_divmod_ff(spec, p, g)[0])
                break
        else:  # pragma: no cover - trace form is nondegenerate
            raise AssertionError("trace splitting failed")
    return roots


def power_sums(spec: FieldSpec, odd):
    """Power sums S_1 .. S_2k from the odd ones S_1, S_3, .., S_(2k-1):
    in characteristic two S_2i = S_i^2."""
    sums = [0] * (2 * len(odd))
    sums[0::2] = odd
    for i in range(1, len(sums), 2):  # sums[i] holds S_(i+1)
        sums[i] = spec.sqr(sums[i // 2])
    return sums


def locate(spec: FieldSpec, sums, bound: int):
    """Locator polynomial of the power sums S_1 .. S_2bound and its
    roots.

    Returns (locator, roots) when the locator has degree L <= bound and
    L distinct nonzero roots in the field; raises :class:`DecodingError`
    otherwise.
    """
    loc, L = berlekamp_massey(spec, sums)
    if L > bound or len(loc) - 1 != L:
        raise DecodingError("uncorrectable syndrome")
    roots = find_roots(spec, loc)
    if len(set(roots)) != L or 0 in roots:
        raise DecodingError("uncorrectable syndrome")
    return loc, roots


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
        s = (n + 1).bit_length() - 1
        if (1 << s) - 1 < n:
            s += 1
        self.locator_degree = s
        self.field = ff_make(s)
        self.field.ensure_tables()
        self.powers = tuple(2 * i + 1 for i in range(e))
        self._g = self.field.generator()
        self._reduced = n <= _DENSE_LIMIT
        if self._reduced:
            self._build_reduced()
        else:
            self.redundancy = e * s
            self._cols = None

    def _build_reduced(self):
        spec, s, n = self.field, self.locator_degree, self.length
        full = []
        glog_rows = []
        for p in self.powers:
            vals = [spec.pow(self._g, p * i) for i in range(n)]
            glog_rows.append(vals)
            for b in range(s):
                row = 0
                for i, v in enumerate(vals):
                    if (v >> b) & 1:
                        row |= 1 << i
                full.append(row)
        pivots, reduced = row_reduce(full, n)
        self.redundancy = len(reduced)
        self._reduced_rows = reduced
        # lift matrix: full row i as combination of reduced rows (rref
        # coefficients are just the bits at the pivot columns)
        self._lift = [
            sum(((row >> p) & 1) << k for k, p in enumerate(pivots)) for row in full
        ]
        self._cols = [
            sum(((row >> i) & 1) << k for k, row in enumerate(reduced))
            for i in range(n)
        ]

    @property
    def parity(self) -> BinaryMatrix:
        """Parity-check matrix (materialized; short codes only)."""
        if not self._reduced:
            raise ValueError("parity matrix not materialized for long codes")
        return BinaryMatrix(self.redundancy, self.length, self._reduced_rows)

    # -- syndromes -------------------------------------------------------

    def syndrome_from_positions(self, positions) -> int:
        """Packed syndrome of the 0/1 vector supported on ``positions``
        (0-based, duplicates cancel mod 2)."""
        if self._cols is not None:
            v = 0
            for i in positions:
                v ^= self._cols[i]
            return v
        spec = self.field
        exp, order = spec._exp, spec.order
        acc = [0] * len(self.powers)
        for i in positions:
            for k, p in enumerate(self.powers):
                acc[k] ^= exp[(i * p) % order] if i else 1
        s = self.locator_degree
        v = 0
        for k, a in enumerate(acc):
            v |= a << (k * s)
        return v

    def syndrome_bits(self, x: int) -> int:
        return self.syndrome_from_positions(
            i for i in range(self.length) if (x >> i) & 1
        )

    def _power_sums(self, synd: int):
        """Full power sums S_1 .. S_2e from a packed syndrome."""
        s = self.locator_degree
        if self._reduced:  # lift to the full odd-power syndrome
            synd = sum(
                ((r & synd).bit_count() & 1) << k for k, r in enumerate(self._lift)
            )
        odd = [(synd >> (k * s)) & ((1 << s) - 1) for k in range(len(self.powers))]
        return power_sums(self.field, odd)

    # -- decoding --------------------------------------------------------

    def decode_positions(self, synd: int):
        """Error positions (sorted, 0-based) of the unique weight <= e
        pattern with this syndrome.  Raises DecodingError if none."""
        if synd == 0:
            return []
        spec = self.field
        _, roots = locate(spec, self._power_sums(synd), self.design_errors)
        positions = sorted(spec.dlog(spec.inv(root)) for root in roots)
        if (positions and positions[-1] >= self.length) or (
            self.syndrome_from_positions(positions) != synd
        ):
            raise DecodingError("uncorrectable syndrome")
        return positions

    def __repr__(self):
        return f"BchCode(n={self.length}, e={self.design_errors})"


class RsCode:
    """Reed-Solomon code over GF(2^a), locators g^j for j in [0, N)."""

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
        field.ensure_tables()
        self._g = field.generator()

    def locator(self, j: int) -> int:
        return self.field.pow(self._g, j)

    def syndrome_sparse(self, values: dict) -> tuple:
        """Syndromes S_i = sum_j v_j (g^j)^i of a sparse vector."""
        spec = self.field
        out = [0] * self.redundancy
        for j, v in values.items():
            if not 0 <= j < self.length:
                raise ValueError("position out of range")
            if v == 0:
                continue
            xj = self.locator(j)
            xp = 1
            for i in range(self.redundancy):
                xp = spec.mul(xp, xj)
                out[i] ^= spec.mul(v, xp)
        return tuple(out)

    def decode(self, syndromes) -> dict:
        """Error vector {position: value} of weight <= (d-1)/2 matching
        the syndromes.  Raises DecodingError when there is none."""
        syndromes = list(syndromes)
        if len(syndromes) != self.redundancy:
            raise ValueError("syndrome length mismatch")
        if not any(syndromes):
            return {}
        spec = self.field
        loc, roots = locate(spec, syndromes, self.max_errors)
        # Forney: error evaluator for syndromes starting at power one,
        # over the formal derivative, which in characteristic two keeps
        # the odd terms; it is nonzero at the locator's simple roots
        omega = poly_mul_ff(spec, syndromes, loc)[: self.redundancy]
        dloc = loc[1::2]
        errors = {}
        for root in roots:
            j = spec.dlog(spec.inv(root))
            if j >= self.length:
                raise DecodingError("uncorrectable syndrome")
            num = poly_eval(spec, omega, root)
            errors[j] = spec.div(num, poly_eval(spec, dloc, spec.sqr(root)))
        if 0 in errors.values() or self.syndrome_sparse(errors) != tuple(syndromes):
            raise DecodingError("uncorrectable syndrome")
        return errors

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
    """Sequence b_0..b_{m-1} over a target field in which every subset
    of size 1..h has a nonzero exclusive-or.

    Elements are the bit-packed parity columns of an extended
    Reed-Solomon code over GF(2^w): column i holds the powers
    (x_i^0, x_i^1, ..., x_i^{h-1}) of the field element with bit
    pattern i, w bits each, zero-padded into the target field.  Any h
    such columns form a Vandermonde system, hence the subset property.
    Elements are computed on demand; m may be in the millions.
    """

    def __init__(self, m: int, h: int, target: FieldSpec):
        if m < 1 or h < 1:
            raise ValueError("need m >= 1 and h >= 1")
        self.m = m
        self.order = h
        self.target = target
        if h == 1:
            self.width = max(1, m.bit_length())
        else:
            self.width = max(1, (m - 1).bit_length())
        total = self.packed_width(m, h)
        if total > target.degree:
            raise ValueError(
                "packed column width %d exceeds target degree %d"
                % (total, target.degree)
            )
        self._col_field = ff_make(self.width)

    @staticmethod
    def packed_width(m: int, h: int) -> int:
        if h == 1:
            return max(1, m.bit_length())
        return h * max(1, (m - 1).bit_length())

    def element_value(self, i: int) -> int:
        if not 0 <= i < self.m:
            raise IndexError("B_h index out of range")
        if self.order == 1:
            return i + 1  # distinct nonzero patterns
        spec = self._col_field
        x = i
        packed = 1  # x^0
        p = 1
        for k in range(1, self.order):
            p = spec.mul(p, x)
            packed |= p << (k * self.width)
        return packed


def bh_sequence(m: int, h: int, target: FieldSpec) -> BhSequence:
    return BhSequence(m, h, target)
