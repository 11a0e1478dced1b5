import random

import pytest

from reference import nullspace
from thlrecon.bits import BitVector, project
from thlrecon.errors import InconsistentDigests
from thlrecon.maps_t import map_M
from thlrecon.oracle import gen_instance, oracle_symdiff
from thlrecon.params import params_build
from thlrecon.recont import DigestT, decode_t, digestT_cost_bits, encode_t


@pytest.fixture(scope="module")
def p63():
    return params_build(63, 2, 2, 1)


def test_empty_set_zero_digest(p63):
    d = encode_t(p63, [])
    assert all(v == 0 for v in d.w1)
    assert all(v == 0 for row in d.w2 for v in row)


def test_identical_sets(p63):
    rng = random.Random(0)
    S = frozenset(BitVector(rng.getrandbits(63), 63) for _ in range(15))
    d = encode_t(p63, S)
    assert decode_t(p63, d, d) == frozenset()


def test_singleton(p63):
    x = BitVector(0b1011001, 63)
    dA = encode_t(p63, {x})
    dB = encode_t(p63, set())
    assert decode_t(p63, dA, dB) == frozenset({x})


def test_common_elements_cancel(p63):
    for seed in range(50):
        rng = random.Random(10**6 + seed)  # independent of the generator stream
        SA, SB, _ = gen_instance(p63, seed, 0)
        common = {BitVector(rng.getrandbits(63), 63) for _ in range(8)}
        dA, dB = encode_t(p63, SA), encode_t(p63, SB)
        dA2 = encode_t(p63, set(SA) | common)
        dB2 = encode_t(p63, set(SB) | common)
        assert dA ^ dB == dA2 ^ dB2


@pytest.mark.parametrize(
    "n,t,h,ell",
    [(63, 2, 2, 1), (63, 2, 3, 2), (63, 3, 2, 1), (127, 2, 2, 1),
     (127, 2, 3, 2), (127, 3, 2, 1)],
)
def test_roundtrip_random(n, t, h, ell):
    p = params_build(n, t, h, ell)
    for seed in range(100):
        SA, SB, delta = gen_instance(p, seed, 10)
        assert decode_t(p, encode_t(p, SA), encode_t(p, SB)) == delta


def test_blocks_sharing_a_position(p63):
    # two blocks engineered so the second block's center lands on the
    # same position as the first block's offset element
    rng = random.Random(123)
    basis = nullspace(p63.h_l)
    codeword = None
    for c in basis:
        if project(BitVector(c, 63), p63.I):
            codeword = BitVector(c, 63)
            break
    assert codeword is not None
    for _ in range(20):
        x = BitVector(rng.getrandbits(63), 63)
        e1 = BitVector(1 << (rng.choice(p63.ibar) - 1), 63)
        y = x ^ e1 ^ codeword
        if project(x, p63.I) == project(y, p63.I):
            continue
        e2 = BitVector(1 << (rng.choice(p63.ibar) - 1), 63)
        if y ^ e2 in {x, x ^ e1, y}:
            continue
        assert map_M(p63, y) == map_M(p63, x ^ e1)  # shared position
        SA = {x, y}
        SB = {x ^ e1, y ^ e2}
        delta = oracle_symdiff(SA, SB)
        assert decode_t(p63, encode_t(p63, SA), encode_t(p63, SB)) == delta
        return
    raise AssertionError("could not build a shared-position instance")


def test_corrupted_digest_never_silent(p63):
    SA, SB, delta = gen_instance(p63, 9, 5)
    dA, dB = encode_t(p63, SA), encode_t(p63, SB)
    rng = random.Random(10)
    a = p63.comp_field.degree
    for _ in range(30):
        w1 = list(dA.w1)
        w2 = [list(r) for r in dA.w2]
        if rng.getrandbits(1):
            i = rng.randrange(len(w1))
            w1[i] ^= 1 << rng.randrange(a)
        else:
            w2[rng.randrange(p63.t)][rng.randrange(p63.t)] ^= (
                1 << rng.randrange(p63.nbar)
            )
        bad = DigestT(tuple(w1), tuple(tuple(r) for r in w2))
        try:
            got = decode_t(p63, bad, dB)
            assert got != delta
        except InconsistentDigests:
            pass


def test_cost_bits():
    p = params_build(127, 2, 4, 1)
    bits = digestT_cost_bits(p)
    assert bits == p.comp_rs.redundancy * p.comp_field.degree + 4 * p.nbar
    assert bits < 2 * 4 * 128  # beats per-element transfer
    # grid portion is exactly t^2 * nbar bits
    p2 = params_build(63, 3, 2, 1)
    stage1 = p2.comp_rs.redundancy * p2.comp_field.degree
    assert digestT_cost_bits(p2) - stage1 == 9 * 57


def test_stage1_recovery_matches_direct(p63):
    from thlrecon.maps_t import map_f

    SA, SB, delta = gen_instance(p63, 21, 10)
    dsum = encode_t(p63, SA) ^ encode_t(p63, SB)
    zdot = p63.comp_rs.decode(dsum.w1)
    direct = {}
    for x in delta:
        j = map_M(p63, x)
        direct[j] = direct.get(j, 0) ^ map_f(p63, project(x, p63.I))
    assert zdot == {j: v for j, v in direct.items() if v}


def test_grid_bit_flips_rejected():
    # a flipped bit in any grid cell (row, k) must be rejected, whether
    # it moves a recovered center (row 0) or only breaks the rows that
    # the re-encode check compares
    p = params_build(63, 3, 2, 1)
    SA, SB, delta = gen_instance(p, 4, 10)
    dA, dB = encode_t(p, SA), encode_t(p, SB)
    assert decode_t(p, dA, dB) == delta
    rng = random.Random(11)
    for row in range(p.t):
        for k in range(p.t):
            w2 = [list(r) for r in dA.w2]
            w2[row][k] ^= 1 << rng.randrange(p.nbar)
            bad = DigestT(dA.w1, tuple(tuple(r) for r in w2))
            with pytest.raises(InconsistentDigests):
                decode_t(p, bad, dB)
