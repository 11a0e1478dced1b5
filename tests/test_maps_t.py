import random
from itertools import combinations

import pytest

from reference import f_inverse, f_sum_decompose_exhaustive, nullspace
from thlrecon.bits import BitVector, project
from thlrecon.errors import DecodingError
from thlrecon.maps_t import f_sum_decompose, gamma, map_E, map_M, map_f
from thlrecon.params import params_build


@pytest.fixture(scope="module")
def p63():
    return params_build(63, 2, 2, 1)


@pytest.fixture(scope="module")
def p15():
    return params_build(15, 2, 2, 2)


def test_map_M_zero(p63):
    assert map_M(p63, BitVector(0, 63)) == 0


def test_property1_exhaustive_n15(p15):
    # M(x1) != M(x2) for distinct x1, x2 within distance ell reduces,
    # by syndrome linearity, to: no difference pattern of weight 1..ell
    # has zero syndrome.  That form is checked exhaustively.
    for wt in (1, 2):
        for pos in combinations(range(15), wt):
            v = 0
            for i in pos:
                v |= 1 << i
            assert map_M(p15, BitVector(v, 15)) != 0
    # spot-check the pair form directly
    rng = random.Random(0)
    for _ in range(200):
        x = BitVector(rng.getrandbits(15), 15)
        e = 1 << rng.randrange(15)
        if rng.getrandbits(1):
            e |= 1 << rng.randrange(15)
        y = x ^ BitVector(e, 15)
        if y != x:
            assert map_M(p15, x) != map_M(p15, y)


def test_map_M_codeword_invariance(p15):
    basis = nullspace(p15.cl.parity)
    rng = random.Random(1)
    c = basis[rng.randrange(len(basis))]
    x = BitVector(rng.getrandbits(15), 15)
    assert map_M(p15, x) == map_M(p15, x ^ BitVector(c, 15))


def test_map_E_properties(p63):
    rng = random.Random(2)
    for _ in range(500):
        x = BitVector(rng.getrandbits(63), 63)
        e = 0
        for _ in range(p63.ell):
            e |= 1 << rng.randrange(63)
        if e == 0:
            continue
        y = x ^ BitVector(e, 63)
        i, j = map_M(p63, x), map_M(p63, y)
        assert map_E(p63, i, j) == BitVector(e, 63)
        assert map_E(p63, j, i) == BitVector(e, 63)
    with pytest.raises(ValueError):
        map_E(p63, 3, 3)


def test_map_E_unit_pairs_n15(p15):
    for a in range(15):
        for b in range(a + 1, 15):
            i = map_M(p15, BitVector(1 << a, 15))
            j = map_M(p15, BitVector(1 << b, 15))
            assert map_E(p15, i, j) == BitVector((1 << a) | (1 << b), 15)


def test_map_f_inverse_roundtrip(p63):
    for xI in range(1 << 6):
        v = map_f(p63, xI)
        assert v != 0
        assert f_inverse(p63, v) == xI
    with pytest.raises(DecodingError):
        f_inverse(p63, 0)  # leading bit of first block absent


def test_property3_exhaustive(p63):
    # any 1..2t distinct f-values xor to nonzero; |I| = 6, t = 2
    vals = [map_f(p63, x) for x in range(1 << 6)]
    assert len(set(vals)) == len(vals)
    for size in (1, 2, 3, 4):
        for sub in combinations(vals, size):
            acc = 0
            for v in sub:
                acc ^= v
            assert acc != 0


def test_f_sum_decompose(p63):
    rng = random.Random(3)
    vals = [map_f(p63, x) for x in range(1 << 6)]
    for v in vals:
        assert f_sum_decompose(p63, v) == [v]
    for a, b in combinations(range(1 << 6), 2):
        zeta = vals[a] ^ vals[b]
        assert f_sum_decompose(p63, zeta) == sorted([vals[a], vals[b]])
    # matches the exhaustive reference on random sums
    for _ in range(50):
        a, b = rng.sample(range(1 << 6), 2)
        zeta = vals[a] ^ vals[b]
        assert f_sum_decompose(p63, zeta) == f_sum_decompose_exhaustive(
            p63, zeta, 2
        )
    with pytest.raises(DecodingError):
        f_sum_decompose(p63, 0)


def test_f_sum_decompose_rejects_bits_above_the_f_values():
    # with I=(1,2) the f-values have t(|I|+1) = 6 bits and the stage-1
    # symbol field 12, so a digest can carry a sum with a bit above
    # them; its locator still splits, and only the XOR check rejects it
    p = params_build(63, 2, 2, 1, I=(1, 2))
    with pytest.raises(DecodingError, match="undecodable"):
        f_sum_decompose(p, map_f(p, 1) ^ map_f(p, 2) | 1 << 6)


def test_f_sum_decompose_t3():
    p = params_build(63, 3, 2, 1)
    rng = random.Random(4)
    for _ in range(200):
        xs = rng.sample(range(1 << 6), 3)
        zeta = 0
        for x in xs:
            zeta ^= map_f(p, x)
        assert f_sum_decompose(p, zeta) == sorted(map_f(p, x) for x in xs)


def test_gamma_distinct_nonzero(p63):
    vals = [gamma(p63, i) for i in range(p63.N)]
    assert all(vals)
    assert len(set(vals)) == p63.N


def test_gamma_independence_exhaustive_small():
    # n=15, ell=1 gives N=16 positions and 2*s' = 4: every xor of
    # <= 4 distinct columns is nonzero, exhaustively
    p = params_build(15, 2, 2, 1)
    assert p.s_prime == 2
    vals = [gamma(p, i) for i in range(p.N)]
    for size in (1, 2, 3, 4):
        for sub in combinations(vals, size):
            acc = 0
            for v in sub:
                acc ^= v
            assert acc != 0


def test_gamma_independence_sampled(p63):
    # 2*s' = 6 here; sample subsets of size <= 6 out of N = 64
    rng = random.Random(5)
    vals = [gamma(p63, i) for i in range(p63.N)]
    for _ in range(500):
        sub = rng.sample(vals, rng.randint(1, 6))
        acc = 0
        for v in sub:
            acc ^= v
        assert acc != 0


def test_map_f_rejects_wide_input(p63):
    with pytest.raises(ValueError):
        map_f(p63, 1 << 6)
