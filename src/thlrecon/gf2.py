"""Binary extension field arithmetic GF(2^m).

Polynomials over F_2 are packed into ints, coefficient of x^i in bit i
(low degree first).  A field is described by a :class:`FieldSpec`
holding the degree and the reduction modulus; the modulus is always the
lexicographically smallest irreducible polynomial of that degree, so two
hosts derive identical fields from the degree alone.  The search tests
each candidate with Ben-Or's irreducibility test, batched: squarings
folded through the candidate's sparse low part, and one gcd per block
of k against the product of the x^(2^k) - x.

Elements are plain ints: every ``FieldSpec`` method takes and returns
ints.  Fields of small degree lazily build exp/log tables which also
make discrete logarithms O(1), stepping the exp table by two lookups
(a -> g a is linear over the halves of a); larger fields fall back to the
carry-less product :func:`poly_mul` (a 4-bit comb, or a shift-xor per
bit of a sparse multiplier; :func:`comb_table` and :func:`comb_mul`
split the comb for callers with several products by one operand)
reduced by :meth:`FieldSpec.reduce`, a fold over the sparse modulus,
a quotient-free extended Euclid for inverses
and Pohlig-Hellman logs (one baby-step giant-step table per prime
power of the group order).  ``reduce`` is linear, so a sum of unreduced
products needs one fold: the digest encoders accumulate that way.
Reed-Solomon arithmetic over an even degree 2k above the table limit
(24 or 26) runs in a :class:`CompositeField`, GF((2^k)^2) over a tabled
GF(2^k), reached from the standard basis and back by two binary
matrices (:meth:`FieldSpec.work_field`).
"""

from __future__ import annotations

from array import array
from functools import cache
from math import isqrt

from .linalg import BinaryMatrix, row_reduce, transpose

# Largest degree for which exp/log tables may be built (2^22 entries).
TABLE_MAX_DEGREE = 22

# Largest degree with discrete logs: factor_mersenne's trial division
# factors 2^m - 1 up to here.
DLOG_MAX_DEGREE = 26

# ---------------------------------------------------------------------------
# polynomial arithmetic over F_2 (ints, coefficient of x^i in bit i)

# 8-bit chunk -> bits interleaved with zeros, for squaring
_SPREAD = [0] * 256
for _v in range(256):
    _s = 0
    for _i in range(8):
        if (_v >> _i) & 1:
            _s |= 1 << (2 * _i)
    _SPREAD[_v] = _s


# Up to this many set bits in the multiplier, poly_mul shifts and xors
# once per bit; above it the comb's table pays for itself.
_SPARSE_BITS = 8


def poly_square(f: int) -> int:
    """f(x)^2 = f(x^2) over F_2: interleave the bits with zeros."""
    r = 0
    shift = 0
    while f:
        r |= _SPREAD[f & 0xFF] << shift
        f >>= 8
        shift += 16
    return r


def poly_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def comb_table(b: int) -> tuple:
    """The 16 multiples c * b, c < 16, that :func:`comb_mul` reads."""
    b2 = b << 1
    b3 = b2 ^ b
    b4 = b << 2
    b8 = b << 3
    b12 = b8 ^ b4
    return (
        0, b, b2, b3, b4, b4 ^ b, b4 ^ b2, b4 ^ b3,
        b8, b8 ^ b, b8 ^ b2, b8 ^ b3, b12, b12 ^ b, b12 ^ b2, b12 ^ b3,
    )


def comb_mul(a: int, table: tuple) -> int:
    """Carry-less product a * b for ``table`` = comb_table(b): a 4-bit
    comb over a's bytes, high first (Lopez & Dahab, INDOCRYPT 2000).
    A caller with several products by one b builds its table once."""
    r = 0
    for c in a.to_bytes((a.bit_length() + 7) >> 3, "big"):
        r = (r << 8) ^ (table[c >> 4] << 4) ^ table[c & 15]
    return r


def poly_mul(a: int, b: int) -> int:
    """Carry-less product.  A multiplier ``a`` with few set bits (a
    sparse modulus, the generator x) costs one shift-and-xor per bit;
    any other runs :func:`comb_mul` over b's :func:`comb_table`."""
    if a.bit_count() <= _SPARSE_BITS:
        r = 0
        while a:
            lsb = a & -a
            r ^= b << (lsb.bit_length() - 1)
            a ^= lsb
        return r
    return comb_mul(a, comb_table(b))


def poly_exponents(f: int) -> tuple:
    """The exponents of f's terms, ascending."""
    return tuple(i for i in range(f.bit_length()) if f >> i & 1)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_is_irreducible(f: int) -> bool:
    """Ben-Or's test, batched: f of degree m is irreducible iff
    gcd(x^(2^k) - x, f) = 1 for every k = 1..m//2.  Each x^(2^k) mod f
    is squared and folded by :meth:`FieldSpec.reduce`.  The terms
    (x^(2^k) - x) mod f of a block of k are multiplied mod f, and the
    block takes one gcd with f: an irreducible factor of f divides the
    product exactly when it divides a term (von zur Gathen & Shoup,
    Comput. Complexity 1992).  Blocks grow 1, 2, 4, ... up to 64, so
    the half of all candidates that fail at k = 1 stay cheap, and the
    last block ends at m//2."""
    m = f.bit_length() - 1
    if m <= 0:
        return False
    reduce = FieldSpec(m, f).reduce
    half, k, size = m // 2, 0, 1
    cur = 2  # x^(2^k) mod f
    while k < half:
        end = min(k + size, half)
        cur = reduce(poly_square(cur))
        prod = cur ^ 2
        for _ in range(end - k - 1):
            cur = reduce(poly_square(cur))
            prod = reduce(poly_mul(prod, cur ^ 2))
        if poly_gcd(f, prod) != 1:
            return False
        k, size = end, min(2 * size, 64)
    return True


def find_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m
    (coefficients compared from the constant term upward, i.e. ascending
    int encoding)."""
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        if poly_is_irreducible(f):
            return f
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def factor_mersenne(m: int) -> dict:
    """Prime factorization of 2^m - 1 for m <= DLOG_MAX_DEGREE (26).

    Trial division up to 8192 suffices: any remaining cofactor is below
    8192^2 = 2^26 and therefore prime.
    """
    if m > DLOG_MAX_DEGREE:
        raise ValueError(f"factor_mersenne supports m <= {DLOG_MAX_DEGREE} only")
    n = (1 << m) - 1
    fac = {}
    d = 3
    while d <= 8192 and d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


class FieldSpec:
    """GF(2^m) with the canonical (lex-least irreducible) modulus.

    Use :func:`ff_make` rather than the constructor so specs are shared
    process-wide and tables are built at most once.
    """

    def __init__(self, degree: int, modulus: int):
        self.degree = degree
        self.modulus = modulus
        self.order = (1 << degree) - 1  # multiplicative group order
        self._low_exps = poly_exponents(modulus ^ (1 << degree))  # x^degree + low
        # tables and caches, filled on first use; plain attributes, as a
        # cached_property materializes the instance __dict__ on its first
        # read and slows every attribute read after it (a tabled
        # GF(2^13) mul took 204 ns before and 279-286 ns after, CPython
        # 3.11.7)
        self._exp = None
        self._log = None
        self._generator = None
        self._factors = None
        self._ph = None
        self._work = None

    def __repr__(self):
        return f"GF(2^{self.degree})"

    # -- core arithmetic on raw ints ------------------------------------

    def mul(self, a: int, b: int) -> int:
        exp = self._exp
        if exp is not None:
            if a == 0 or b == 0:
                return 0
            return exp[(self._log[a] + self._log[b]) % self.order]
        return self.reduce(poly_mul(a, b))

    def sqr(self, a: int) -> int:
        exp = self._exp
        if exp is not None:
            if a == 0:
                return 0
            return exp[(2 * self._log[a]) % self.order]
        return self.reduce(poly_square(a))

    def reduce(self, a: int) -> int:
        """a mod the modulus, for any a >= 0 (an unreduced product, or a
        sum of them): fold the bits at x^degree and up back down through
        x^degree = low, one shift-xor per term of low, where
        ``poly_mod`` costs one per bit cleared.  Lex-least moduli have a
        sparse low part of small degree (at most 12 up to degree 299,
        and at 493 and 2036), whose exponents are kept as a tuple.
        Tables play no part, so it serves every standard field."""
        m, exps = self.degree, self._low_exps
        while a >> m:
            high = a >> m
            a &= self.order
            for e in exps:
                a ^= high << e
        return a

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % self.order]
        e %= self.order
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.sqr(a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        """Inverse of a nonzero element below 2^degree: by table lookup,
        or by the extended Euclidean algorithm with one shift-and-xor in
        place of each quotient (s0*a = r0, s1*a = r1 mod the modulus)."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        if self._exp is not None:
            return self._exp[(self.order - self._log[a]) % self.order]
        r0, r1, s0, s1 = a, self.modulus, 1, 0
        while r0 != 1:
            d = r0.bit_length() - r1.bit_length()
            if d < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                d = -d
            r0 ^= r1 << d
            s0 ^= s1 << d
        return s0

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frob(self, a: int, k: int) -> int:
        """a^(2^k) by k repeated squarings (k modulo the degree)."""
        for _ in range(k % self.degree):
            a = self.sqr(a)
        return a

    # -- generator, tables, discrete log --------------------------------

    def factors(self) -> dict:
        if self._factors is None:
            self._factors = factor_mersenne(self.degree)
        return self._factors

    def generator(self) -> int:
        """Smallest (by int pattern) primitive element: 1 in GF(2), whose
        group order has no prime factor to test."""
        if self._generator is None:
            fac = self.factors()
            g = 1
            while True:
                if all(self.pow(g, self.order // p) != 1 for p in fac):
                    self._generator = g
                    break
                g += 1
        return self._generator

    def ensure_tables(self):
        """Build exp/log tables (no-op above TABLE_MAX_DEGREE), 4-byte
        entries.  a -> g a is linear over F_2, so each step of the exp
        table is two lookups, the images of the low and high halves of
        a: ``lo[a & lmask] ^ hi[a >> half]``.  Each half-table is
        spanned by XOR from the images g x^i of its basis bits."""
        if self._exp is not None or self.degree > TABLE_MAX_DEGREE:
            return
        g, m = self.generator(), self.degree
        half = (m + 1) // 2
        lo, hi = [0], [0]
        for i in range(m):
            t = lo if i < half else hi
            image = self.reduce(g << i)
            t += [v ^ image for v in t]
        exp = array("I", [0]) * (1 << m)
        log = array("I", [0]) * (1 << m)
        cur, lmask = 1, (1 << half) - 1
        for k in range(self.order):
            exp[k] = cur
            log[cur] = k
            cur = lo[cur & lmask] ^ hi[cur >> half]
        self._exp = exp
        self._log = log

    def dlog(self, a: int) -> int:
        """k with generator^k = a; O(1) with tables, else Pohlig-Hellman
        (IEEE Trans. IT, 1978): for each prime power p^e of the group
        order, a^(order/p^e) = g_i^y with y < p^e, found in one
        baby-step giant-step table, and the Chinese remainder theorem
        joins the y.  Builds no exp/log tables: the codes build those of
        the fields they use."""
        if a == 0:
            raise ZeroDivisionError("dlog of zero")
        if self._log is not None:
            return self._log[a]
        result, modulus = 0, 1
        for pe, step, baby, giant in self._pohlig_hellman():
            cur = self.pow(a, self.order // pe)
            for i in range(step):  # y = i s + j < p^e < s^2
                j = baby.get(cur)
                if j is not None:
                    break
                cur = self.mul(cur, giant)
            else:
                raise ValueError("element not in subgroup")
            y = i * step + j
            result += modulus * ((y - result) * pow(modulus, -1, pe) % pe)
            modulus *= pe
        return result

    def _pohlig_hellman(self):
        """Per prime power p^e of the group order, built once: p^e, the
        step s = isqrt(p^e) + 1, the baby steps {g_i^j: j} (j < s) and
        the giant step g_i^-s, for g_i = generator^(order/p^e)."""
        if self._ph is None:
            self._ph = []
            for p, e in self.factors().items():
                pe = p**e
                gi, step = self.pow(self.generator(), self.order // pe), isqrt(pe) + 1
                baby, cur = {}, 1
                for j in range(step):
                    baby[cur] = j
                    cur = self.mul(cur, gi)
                self._ph.append((pe, step, baby, self.inv(cur)))
        return self._ph

    def work_field(self):
        """(field, map into it, map back) for Reed-Solomon arithmetic: a
        :class:`CompositeField` at degree 24 or 26, else this field and
        the identity.  Built once."""
        if self._work is None:
            if self.degree % 2 or not TABLE_MAX_DEGREE < self.degree <= DLOG_MAX_DEGREE:
                self._work = (self, _same, _same)
            else:
                w = CompositeField(self)
                self._work = (w, w.phi.mul_vec, w.phi_inv.mul_vec)
        return self._work


def _same(a: int) -> int:
    return a


class CompositeField(FieldSpec):
    """GF(2^2k) as GF(2^k)[y]/(y^2 + y + lam), isomorphic to the standard
    field ``spec`` (C. Paar, PhD thesis, 1994; Sunar, Savas & Koc, IEEE
    Trans. Computers, 2003).  The int a0 | a1 << k stands for a0 + a1 y;
    the subfield F_2[z]/(mu) has exp/log tables, with log(0) a sentinel
    whose exp entries are 0, so a zero half needs no branch.  ``pow``,
    ``div``, ``frob``, ``generator`` and ``dlog`` are inherited.

    The basis change needs no root finding: omega = g^(2^k+1) is
    primitive in the subfield, z stands for it, and mu is its minimal
    polynomial.  s = x + x^(2^k) and p = x^(2^k+1) lie in the subfield,
    and y = x/s is a root of y^2 + y + p/s^2.  So ``phi`` maps x to s y,
    ``phi_inv`` maps z^i to omega^i and z^i y to omega^i x/s, and the
    generator is phi(g), so logs agree with ``spec``'s.  ``reduce``
    folds standard-basis polynomials and has no meaning here."""

    def __init__(self, spec: FieldSpec):
        # the modulus is the standard field's; no method here reads it
        super().__init__(spec.degree, spec.modulus)
        n, k = spec.degree, spec.degree // 2
        q1 = (1 << k) - 1  # order of the subfield's group
        omega, powers = spec.pow(spec.generator(), q1 + 2), [1]
        for _ in range(k):
            powers.append(spec.mul(powers[-1], omega))
        # mu is the one dependency among omega^0..omega^k: the row whose
        # low n bits reduce to zero, last in pivot order
        mu = row_reduce(w | 1 << (n + i) for i, w in enumerate(powers))[1][-1] >> n
        sub = FieldSpec(k, mu)  # z is primitive, so its generator is z
        sub.ensure_tables()
        exp, log = list(sub._exp[:q1]), list(sub._log)
        # sums of logs, plus lam's or an inverse's, stay below 3 q1; any
        # index holding the sentinel 3 q1 lands in the zeros
        log[0] = 3 * q1
        self._k, self._mask = k, q1
        self._sub_exp, self._sub_log = exp * 3 + [0] * (4 * q1), log
        xq = spec.frob(2, k)
        s = 2 ^ xq
        ls = spec.dlog(s) // (q1 + 2)  # s = omega^ls
        self._lam = (spec.dlog(spec.mul(2, xq)) // (q1 + 2) - 2 * ls) % q1
        cols = [1]
        for _ in range(n - 1):  # phi(x)^i = (s y)^i
            cols.append(self.mul(cols[-1], exp[ls] << k))
        self.phi = BinaryMatrix(n, n, transpose(cols, n))
        y = spec.div(2, s)
        cols = powers[:k] + [spec.mul(w, y) for w in powers[:k]]
        self.phi_inv = BinaryMatrix(n, n, transpose(cols, n))
        self._generator = self.phi.mul_vec(spec.generator())

    def __repr__(self):
        return f"GF((2^{self._k})^2)"

    def mul(self, a: int, b: int) -> int:
        """Karatsuba: a0 b0 + lam a1 b1, plus (a0 + a1)(b0 + b1) + a0 b0 at y."""
        k, m, exp, log = self._k, self._mask, self._sub_exp, self._sub_log
        p0 = exp[log[a & m] + log[b & m]]
        p2 = exp[log[(a ^ a >> k) & m] + log[(b ^ b >> k) & m]]
        return p0 ^ exp[log[a >> k] + log[b >> k] + self._lam] | (p0 ^ p2) << k

    def sqr(self, a: int) -> int:
        """(a0 + a1 y)^2 = (a0^2 + lam a1^2) + a1^2 y."""
        k, exp, log = self._k, self._sub_exp, self._sub_log
        l0, l1 = 2 * log[a & self._mask], 2 * log[a >> k]
        return exp[l0] ^ exp[l1 + self._lam] | exp[l1] << k

    def inv(self, a: int) -> int:
        """The conjugate (a0 + a1) + a1 y over the norm a0^2 + a0 a1 +
        lam a1^2."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        k, m, exp, log = self._k, self._mask, self._sub_exp, self._sub_log
        l0, l1 = log[a & m], log[a >> k]
        ln = m - log[exp[2 * l0] ^ exp[l0 + l1] ^ exp[2 * l1 + self._lam]]
        return exp[log[(a ^ a >> k) & m] + ln] | exp[l1 + ln] << k


# ---------------------------------------------------------------------------
# spec-level operations


@cache
def ff_make(m: int) -> FieldSpec:
    """Deterministic GF(2^m): modulus is the lex-least irreducible
    polynomial of degree m, identical on every host.  One spec per
    degree, shared process-wide."""
    if not 1 <= m <= 4096:
        raise ValueError("field degree out of range [1, 4096]")
    return FieldSpec(m, find_irreducible(m))
