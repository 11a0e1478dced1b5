import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thlrecon.gf2 import FieldSpec, ff_make, find_irreducible, poly_is_irreducible


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


def test_ff_make_out_of_range():
    with pytest.raises(ValueError):
        ff_make(0)
    with pytest.raises(ValueError):
        ff_make(4097)


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


@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
@settings(max_examples=60, deadline=None)
def test_table_path_matches_generic(a, b):
    spec = ff_make(16)
    spec.ensure_tables()
    from thlrecon.gf2 import poly_mod, poly_mul

    assert spec.mul(a, b) == poly_mod(poly_mul(a, b), spec.modulus)


@pytest.mark.parametrize("m", [4, 11, 16, 24])
def test_generator_and_dlog(m):
    spec = FieldSpec.get(m)
    g = spec.generator()
    rng = random.Random(m)
    for _ in range(10):
        k = rng.randrange(spec.order)
        assert spec.dlog(spec.pow(g, k)) == k
    with pytest.raises(ZeroDivisionError):
        spec.dlog(0)


def test_irreducibility_rejects_reducible():
    assert not poly_is_irreducible(0b110)  # x^2 + x = x(x+1)
    assert not poly_is_irreducible(0b111 ^ 0b010)  # x^2 + 1 = (x+1)^2
    assert poly_is_irreducible(0b111)  # x^2 + x + 1
