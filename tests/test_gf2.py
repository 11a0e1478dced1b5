import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import clmul_bits, eea_inverse, rabin_find_irreducible, rabin_is_irreducible
from thlrecon.gf2 import (
    DLOG_MAX_DEGREE,
    CompositeField,
    FieldSpec,
    comb_mul,
    comb_table,
    factor_mersenne,
    ff_make,
    find_irreducible,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_square,
)


def brute_force_least_irreducible(m):
    """Independent oracle: trial division by all lower-degree factors."""

    def divides(a, b):
        # does polynomial a divide b over F_2?
        while b.bit_length() >= a.bit_length():
            b ^= a << (b.bit_length() - a.bit_length())
        return b == 0

    for f in range(1 << m, 1 << (m + 1)):
        if not any(divides(d, f) for d in range(2, 1 << m) if d.bit_length() >= 2):
            return f
    raise AssertionError


@pytest.mark.parametrize("m,expected", [(1, 0b11), (3, 0b1011), (8, 0x11B)])
def test_least_irreducible_pinned(m, expected):
    assert ff_make(m).modulus == expected


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_least_irreducible_matches_oracle(m):
    assert find_irreducible(m) == brute_force_least_irreducible(m)


def test_least_irreducible_matches_rabin_search():
    # the moduli every host derives; the golden vectors pin larger ones
    for m in range(1, 65):
        assert find_irreducible(m) == rabin_find_irreducible(m), m


def test_irreducibility_agrees_with_rabin():
    for f in range(1 << 13):
        assert poly_is_irreducible(f) == rabin_is_irreducible(f), f


# The batched test takes one gcd per block of k: 1, 2-3, 4-7, ..., 32-63,
# then 64 at a time, the last block ending at m//2.  A factor of degree
# d is first seen at k = d, so p of degree d times q of degree d + 1
# puts it at each block's first and last k (and next to them).
@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 65, 127, 128, 129])
def test_batched_irreducibility_at_block_edges(d):
    f = clmul_bits(rabin_find_irreducible(d), rabin_find_irreducible(d + 1))
    assert poly_is_irreducible(f) == rabin_is_irreducible(f)


def test_batched_irreducibility_at_the_last_k_and_pinned_moduli():
    # two factors of degree 100 show only at k = 100 = m//2, the last k
    # of the truncated last block 64..100
    p = rabin_find_irreducible(100)
    q = next(c for c in range(p + 2, 1 << 101, 2) if rabin_is_irreducible(c))
    assert poly_is_irreducible(clmul_bits(p, q)) == rabin_is_irreducible(clmul_bits(p, q))
    # the lex-least moduli at 120, 254 and 493; the golden vectors pin
    # 120 and 493 as digest fields
    for f in ((1 << 120) | 0x1B, (1 << 254) | 0x87, (1 << 493) | 0x24F):
        assert poly_is_irreducible(f) and rabin_is_irreducible(f)


# the generator is x at most degrees, and 3 or 7 at 8, 9, 12, 14 and 16
@pytest.mark.parametrize("m", list(range(2, 17)) + [19])
def test_tables_step_by_the_generator(m):
    spec = FieldSpec(m, ff_make(m).modulus)
    spec.ensure_tables()
    g, exp, log = spec.generator(), spec._exp, spec._log
    assert exp.itemsize == log.itemsize == 4
    assert len(exp) == len(log) == 1 << m
    ks = range(1, spec.order)
    if m > 16:
        ks = random.Random(m).sample(ks, 2000)
    assert exp[0] == 1 and log[1] == 0
    for k in ks:
        assert exp[k] == poly_mod(poly_mul(g, exp[k - 1]), spec.modulus), k
        assert log[exp[k]] == k


def test_inverse_every_element_small_fields():
    for m in range(1, 11):
        spec = FieldSpec(m, find_irreducible(m))
        for a in range(1, 1 << m):
            assert spec.inv(a) == eea_inverse(spec, a)


@pytest.mark.parametrize("m", [24, 120, 493])
def test_inverse_matches_eea(m):
    spec = ff_make(m)
    assert spec._exp is None
    rng = random.Random(m)
    for a in [1, 2, (1 << m) - 1] + [rng.getrandbits(m) | 1 for _ in range(40)]:
        b = spec.inv(a)
        assert b == eea_inverse(spec, a)
        assert spec.mul(a, b) == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


@pytest.mark.parametrize("m", list(range(1, 65)) + [120, 493, 2036])
def test_table_free_product_matches_poly_mod(m):
    spec = FieldSpec(m, ff_make(m).modulus)  # a fresh spec holds no tables
    rng = random.Random(m)
    edge = [0, 1, (1 << m) - 1]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(30)]
    for a, b in pairs:
        assert spec.mul(a, b) == poly_mod(clmul_bits(a, b), spec.modulus)
        assert spec.sqr(a) == poly_mod(poly_square(a), spec.modulus)
    assert spec._exp is None


def test_poly_mul_matches_set_bit_product():
    # sparse and dense multipliers through the one comb path,
    # byte-boundary widths, and the zero and one operands
    rng = random.Random(5)
    for w in range(1, 601):
        dense = rng.getrandbits(w) | 1 << (w - 1)
        ones = (1 << w) - 1
        sparse = sum(1 << rng.randrange(w) for _ in range(rng.randint(1, 9)))
        other = rng.getrandbits(rng.randint(1, 600))
        for a in (0, 1, dense, ones, sparse):
            for b in (0, 1, dense, other):
                assert poly_mul(a, b) == clmul_bits(a, b), (w, a, b)
                assert poly_mul(b, a) == clmul_bits(a, b), (w, a, b)


_SPARSE = st.sets(st.integers(0, 1199), max_size=9).map(lambda bits: sum(1 << i for i in bits))


@given(st.one_of(st.integers(0, 1 << 1200), _SPARSE), st.integers(0, 1 << 1200))
@settings(max_examples=200, deadline=None)
def test_comb_over_a_stored_table_is_poly_mul(a, b):
    # the comb loop over b's table, as the t > 1 encoder runs it for one
    # operand and many multipliers, is the product poly_mul gives:
    # zero, sparse multipliers and unequal lengths
    assert comb_mul(a, comb_table(b)) == poly_mul(a, b) == clmul_bits(a, b)


@pytest.mark.parametrize("m", [11, 24, 120, 493])
def test_reduce_folds_unreduced_sums(m):
    # a sum of unreduced products, reduced once, is the sum of the
    # reduced products; tables (m = 11) do not change the fold.  A
    # fresh spec: tabling the shared one would change the path every
    # later test takes at this degree
    spec = FieldSpec(m, ff_make(m).modulus)
    spec.ensure_tables()
    rng = random.Random(m)
    pairs = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(20)]
    acc = want = 0
    for a, b in pairs:
        acc ^= poly_mul(a, b)
        want ^= spec.mul(a, b)
    assert spec.reduce(acc) == want == poly_mod(acc, spec.modulus)
    assert spec.reduce(0) == 0 and spec.reduce((1 << m) - 1) == (1 << m) - 1


def test_ff_make_out_of_range():
    with pytest.raises(ValueError):
        ff_make(0)
    with pytest.raises(ValueError):
        ff_make(4097)


def test_factor_mersenne_stops_past_the_dlog_limit():
    assert factor_mersenne(DLOG_MAX_DEGREE) == {3: 1, 2731: 1, 8191: 1}
    with pytest.raises(ValueError, match="m <= 26 only"):
        factor_mersenne(DLOG_MAX_DEGREE + 1)


def test_gf8_pinned_arithmetic():
    spec = ff_make(3)
    # x * x^2 = x + 1 under x^3 + x + 1
    assert spec.mul(0b010, 0b100) == 0b011
    a = 0b110
    assert spec.mul(a, 1) == a
    assert spec.mul(a, 0) == 0
    # inv(x) = x^2 + 1
    assert spec.inv(0b010) == 0b101
    assert spec.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)
    # frobenius below modulus degree is plain squaring
    assert spec.frob(0b010, 1) == 0b100
    assert spec.frob(a, 0) == a
    assert spec.frob(0, 5) == 0
    # a negative exponent is a power of the inverse; 0 has none
    for a in range(1, 8):
        assert spec.pow(a, -3) == spec.pow(spec.inv(a), 3)
        assert spec.mul(spec.pow(a, -1), a) == 1
    with pytest.raises(ZeroDivisionError):
        spec.pow(0, -1)


@pytest.mark.parametrize("m", [2, 5, 8, 13, 22, 61, 120, 256])
def test_field_axioms_random(m):
    spec = ff_make(m)
    rng = random.Random(m)
    for _ in range(30):
        a, b, c = (rng.getrandbits(m) for _ in range(3))
        assert spec.mul(a, b ^ c) == spec.mul(a, b) ^ spec.mul(a, c)
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert a ^ a == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
        assert spec.frob(a, m) == a
        assert spec.sqr(a) == spec.mul(a, a)


# a spec of its own, so tabling it leaves the shared ff_make(16) as it was
_GF16 = FieldSpec(16, ff_make(16).modulus)


@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
@settings(max_examples=60, deadline=None)
def test_table_path_matches_generic(a, b):
    _GF16.ensure_tables()
    assert _GF16.mul(a, b) == poly_mod(clmul_bits(a, b), _GF16.modulus)


# at m = 1 the group order has no prime factor, so every candidate
# passes the primitivity test: the generator is the first, 1
@pytest.mark.parametrize("m", [1, 4, 11, 16, 24])
def test_generator_and_dlog(m):
    spec = ff_make(m)
    g = spec.generator()
    assert 0 < g < 1 << m  # a nonzero element of the field
    rng = random.Random(m)
    for _ in range(10):
        k = rng.randrange(spec.order)
        assert spec.dlog(spec.pow(g, k)) == k
    with pytest.raises(ZeroDivisionError):
        spec.dlog(0)


# 2^m - 1 has the repeated prime factor 3^2, 3^3, 5^2 or 7^2 at m = 6,
# 18, 20 or 21, so one baby-step giant-step table covers a prime power
@pytest.mark.parametrize("m", [16, 6, 18, 20, 21, 23, 25, 26])
def test_dlog_builds_no_tables(m):
    fresh = FieldSpec(m, ff_make(m).modulus)
    g = fresh.generator()
    rng = random.Random(m)
    for k in [0, fresh.order - 1] + [rng.randrange(fresh.order) for _ in range(10)]:
        assert fresh.dlog(fresh.pow(g, k)) == k
    assert fresh._exp is None and fresh._log is None


@pytest.mark.parametrize("m", [24, 26])
def test_work_field_is_isomorphic(m):
    spec = ff_make(m)
    work, phi, phi_inv = spec.work_field()
    assert isinstance(work, CompositeField) and work.degree == m
    assert spec.work_field()[0] is work  # built once
    assert phi(0) == 0 and phi(1) == 1
    assert work.generator() == phi(spec.generator())
    rng = random.Random(m)
    k = m // 2
    # work-field values with a zero half, then random ones
    pairs = [(1 << k, 5), (7, 3 << k), (1 << k, 1 << k), (9, 0)]
    pairs += [(phi(rng.randrange(1, 1 << m)), phi(rng.randrange(1 << m)))
              for _ in range(300)]
    for u, v in pairs:
        a, b = phi_inv(u), phi_inv(v)
        assert phi(a) == u and phi(b) == v
        assert phi(spec.mul(a, b)) == work.mul(u, v)
        assert phi(spec.sqr(a)) == work.sqr(u)
        assert phi(spec.inv(a)) == work.inv(u)
        assert phi(spec.pow(a, 1000003)) == work.pow(u, 1000003)
    for u, _ in pairs[:6]:
        assert work.dlog(u) == spec.dlog(phi_inv(u))
    with pytest.raises(ZeroDivisionError):
        work.inv(0)


@pytest.mark.parametrize("m", [4, 22, 23, 25])
def test_work_field_is_the_field_elsewhere(m):
    spec = ff_make(m)
    work, into, back = spec.work_field()
    assert work is spec
    a = (1 << m) - 2
    assert into(a) == back(a) == a


def test_irreducibility_rejects_reducible():
    assert not poly_is_irreducible(0b110)  # x^2 + x = x(x+1)
    assert not poly_is_irreducible(0b111 ^ 0b010)  # x^2 + 1 = (x+1)^2
    assert poly_is_irreducible(0b111)  # x^2 + x + 1
