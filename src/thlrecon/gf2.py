"""Binary extension field arithmetic GF(2^m).

Polynomials over F_2 are packed into ints, coefficient of x^i in bit i
(low degree first).  A field is described by a :class:`FieldSpec`
holding the degree and the reduction modulus; the modulus is always the
lexicographically smallest irreducible polynomial of that degree, so two
hosts derive identical fields from the degree alone.

Elements are plain ints: every ``FieldSpec`` method takes and returns
ints.  Fields of small degree lazily build exp/log tables which also
make discrete logarithms O(1); larger fields fall back to shift-xor
multiplication and Pohlig-Hellman logs.
"""

from __future__ import annotations

from array import array
from math import isqrt

# Largest degree for which exp/log tables may be built (2^22 entries).
TABLE_MAX_DEGREE = 22

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


def poly_degree(f: int) -> int:
    return f.bit_length() - 1


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


def poly_mul(a: int, b: int) -> int:
    """Carry-less product."""
    r = 0
    while a:
        lsb = a & -a
        r ^= b << (lsb.bit_length() - 1)
        a ^= lsb
    return r


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_divmod(a: int, b: int):
    q = 0
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        s = a.bit_length() - 1 - db
        q |= 1 << s
        a ^= b << s
    return q, a


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


def poly_is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^m) = x mod f, and x^(2^(m/p)) != x for every
    prime p dividing m."""
    m = poly_degree(f)
    if m <= 0:
        return False
    if m == 1:
        return True
    x = 2
    # x^(2^k) mod f by repeated squaring; record intermediate checkpoints
    need = {m // p for p in _prime_divisors(m)}
    cur = x
    for k in range(1, m + 1):
        cur = poly_mod(poly_square(cur), f)
        if k in need and poly_gcd(cur ^ x, f) != 1:
            return False
    return cur == x


def find_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m
    (coefficients compared from the constant term upward, i.e. ascending
    int encoding)."""
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        if poly_is_irreducible(f):
            return f
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def factor_mersenne(m: int) -> dict:
    """Prime factorization of 2^m - 1 for m <= 26.

    Trial division up to 8192 suffices: any remaining cofactor is below
    8192^2 = 2^26 and therefore prime.
    """
    if m > 26:
        raise ValueError("factor_mersenne supports m <= 26 only")
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

    Use :func:`ff_make` / :meth:`get` rather than the constructor so
    specs are shared process-wide and tables are built at most once.
    """

    _cache: dict = {}

    def __init__(self, degree: int, modulus: int):
        self.degree = degree
        self.modulus = modulus
        self.order = (1 << degree) - 1  # multiplicative group order
        self._exp = None
        self._log = None
        self._generator = None
        self._factors = None
        self._bsgs = {}

    @classmethod
    def get(cls, m: int) -> "FieldSpec":
        spec = cls._cache.get(m)
        if spec is None:
            if not 1 <= m <= 4096:
                raise ValueError("field degree out of range [1, 4096]")
            spec = cls(m, find_irreducible(m))
            cls._cache[m] = spec
        return spec

    def __repr__(self):
        return f"GF(2^{self.degree})"

    # -- core arithmetic on raw ints ------------------------------------

    def mul(self, a: int, b: int) -> int:
        exp = self._exp
        if exp is not None:
            if a == 0 or b == 0:
                return 0
            return exp[(self._log[a] + self._log[b]) % self.order]
        return poly_mod(poly_mul(a, b), self.modulus)

    def sqr(self, a: int) -> int:
        exp = self._exp
        if exp is not None:
            if a == 0:
                return 0
            return exp[(2 * self._log[a]) % self.order]
        return poly_mod(poly_square(a), self.modulus)

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
        """Inverse by the extended Euclidean algorithm on polynomials."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        if self._exp is not None:
            return self._exp[(self.order - self._log[a]) % self.order]
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ poly_mul(q, s1)
        assert r0 == 1
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
        """Smallest (by int pattern) primitive element."""
        if self._generator is None:
            fac = self.factors()
            g = 2
            while True:
                if all(self.pow(g, self.order // p) != 1 for p in fac):
                    self._generator = g
                    break
                g += 1
        return self._generator

    def ensure_tables(self):
        """Build exp/log tables (no-op above TABLE_MAX_DEGREE)."""
        if self._exp is not None or self.degree > TABLE_MAX_DEGREE:
            return
        g = self.generator()
        size = 1 << self.degree
        exp = array("L", bytes(8 * size))
        log = array("L", bytes(8 * size))
        mod, deg = self.modulus, self.degree
        gbits = [i for i in range(g.bit_length()) if (g >> i) & 1]
        top = deg + g.bit_length() - 2
        cur = 1
        for k in range(self.order):
            exp[k] = cur
            log[cur] = k
            t = 0
            for i in gbits:
                t ^= cur << i
            for d in range(top, deg - 1, -1):
                if (t >> d) & 1:
                    t ^= mod << (d - deg)
            cur = t
        self._exp = exp
        self._log = log

    def dlog(self, a: int) -> int:
        """k with generator^k = a; O(1) with tables, else Pohlig-Hellman."""
        if a == 0:
            raise ZeroDivisionError("dlog of zero")
        self.ensure_tables()
        if self._log is not None:
            return self._log[a]
        g = self.generator()
        n = self.order
        result, modulus = 0, 1
        for p, e in self.factors().items():
            pe = p**e
            gi = self.pow(g, n // pe)
            xi = self.pow(a, n // pe)
            y = 0
            gamma = self.pow(gi, pe // p)
            gi_inv = self.inv(gi)
            for j in range(e):
                h = self.pow(self.mul(xi, self.pow(gi_inv, y)), pe // (p ** (j + 1)))
                d = self._bsgs_solve(gamma, h, p)
                y += d * p**j
            # CRT fold
            result += modulus * ((y - result) * pow(modulus, -1, pe) % pe)
            modulus *= pe
        return result % n

    def _bsgs_solve(self, base: int, target: int, p: int) -> int:
        """Baby-step giant-step in the order-p subgroup generated by base."""
        step = isqrt(p) + 1
        cached = self._bsgs.get(base)
        if cached is None:
            baby = {}
            cur = 1
            for j in range(step):
                baby.setdefault(cur, j)
                cur = self.mul(cur, base)
            giant = self.inv(cur)  # base^(-step)
            cached = (baby, giant)
            self._bsgs[base] = cached
        baby, giant = cached
        cur = target
        for i in range(step + 1):
            j = baby.get(cur)
            if j is not None:
                return (i * step + j) % p
            cur = self.mul(cur, giant)
        raise ValueError("element not in subgroup")


# ---------------------------------------------------------------------------
# spec-level operations


def ff_make(m: int) -> FieldSpec:
    """Deterministic GF(2^m): modulus is the lex-least irreducible
    polynomial of degree m, identical on every host."""
    return FieldSpec.get(m)
