import random

import pytest

from reference import from_lists
from thlrecon.bits import BitVector
from thlrecon.errors import InconsistentDigests
from thlrecon.maps_t import map_M
from thlrecon.oracle import gen_instance
from thlrecon.params import params_build
from thlrecon.recon1 import Digest1, decode1, digest1_cost_bits, encode1


def pad(bits, n):
    """Zero-extend a short bit string (position-1-first) to length n."""
    return BitVector.from_bits(list(bits) + [0] * (n - len(bits)))


@pytest.fixture(scope="module")
def p63():
    return params_build(63, 1, 2, 3)


def test_indicator_counts_convention():
    # occupancy counts under a 2x3 parity map, by direct computation:
    # S = {000, 110, 101, 001} has counts 1,0,1,2 on syndrome values
    # 00,01,10,11 - i.e. the multiset (1,2,0,1) of the four classes
    h = from_lists([[1, 0, 1], [0, 1, 1]])
    counts = [0, 0, 0, 0]
    for x in (0b000, 0b011, 0b101, 0b100):  # 000,110,101,001 pos-1-first
        counts[h.mul_vec(x)] += 1
    assert sorted(counts) == [0, 1, 1, 2]
    assert counts == [1, 0, 1, 2]
    mod2 = [c % 2 for c in counts]
    assert mod2 == [1, 0, 1, 0]


def test_indicator_empty_and_cancel(p63):
    # w1 is the syndrome of the positions' mod-2 occupancy (indicator)
    assert encode1(p63, []).w1 == 0
    x = BitVector(123, 63)
    y = x ^ BitVector(0b101, 63)  # within distance ell of x is not required
    # same element twice cancels
    assert encode1(p63, [x, x]) == Digest1(0, 0)
    s = p63.comp.decode_positions(encode1(p63, [x, y]).w1)
    assert len(s) == 2 and s == sorted({map_M(p63, x), map_M(p63, y)})


def test_encode_empty_and_deterministic(p63):
    d = encode1(p63, [])
    assert d == Digest1(0, 0)
    rng = random.Random(0)
    S = [BitVector(rng.getrandbits(63), 63) for _ in range(10)]
    assert encode1(p63, S) == encode1(p63, set(S))


def test_decode_identical_sets(p63):
    rng = random.Random(1)
    S = frozenset(BitVector(rng.getrandbits(63), 63) for _ in range(10))
    d = encode1(p63, S)
    assert decode1(p63, d, d) == frozenset()


def test_paper_example_padded(p63):
    SA = {pad([0, 0, 0, 0, 0], 63), pad([1, 0, 1, 1, 1], 63)}
    SB = {pad([0, 0, 0, 0, 0], 63), pad([1, 1, 0, 0, 1], 63)}
    delta = decode1(p63, encode1(p63, SA), encode1(p63, SB))
    assert delta == frozenset({pad([1, 0, 1, 1, 1], 63), pad([1, 1, 0, 0, 1], 63)})


def test_symmetry(p63):
    SA, SB, delta = gen_instance(p63, 42, 8)
    dA, dB = encode1(p63, SA), encode1(p63, SB)
    assert decode1(p63, dA, dB) == decode1(p63, dB, dA) == delta


def test_shift_cancellation(p63):
    rng = random.Random(3)
    SA, SB, _ = gen_instance(p63, 7, 0)
    y = BitVector(rng.getrandbits(63), 63)
    dA, dB = encode1(p63, SA), encode1(p63, SB)
    dA2, dB2 = encode1(p63, SA | {y}), encode1(p63, SB | {y})
    assert dA.w1 ^ dB.w1 == dA2.w1 ^ dB2.w1
    assert dA.w2 ^ dB.w2 == dA2.w2 ^ dB2.w2


def test_indicator_of_difference_recovered(p63):
    SA, SB, delta = gen_instance(p63, 11, 10)
    w1 = encode1(p63, SA).w1 ^ encode1(p63, SB).w1
    assert p63.comp.decode_positions(w1) == sorted(map_M(p63, x) for x in delta)


@pytest.mark.parametrize("n,h,ell", [(31, 4, 1), (63, 3, 2), (127, 2, 3)])
def test_roundtrip_random(n, h, ell):
    p = params_build(n, 1, h, ell)
    for seed in range(100):
        SA, SB, delta = gen_instance(p, seed, 10)
        assert decode1(p, encode1(p, SA), encode1(p, SB)) == delta


def test_corrupted_digest_never_silent(p63):
    SA, SB, delta = gen_instance(p63, 5, 5)
    dA, dB = encode1(p63, SA), encode1(p63, SB)
    rng = random.Random(8)
    for _ in range(30):
        if rng.getrandbits(1):
            bad = Digest1(dA.w1 ^ (1 << rng.randrange(p63.comp.redundancy)), dA.w2)
        else:
            bad = Digest1(dA.w1, dA.w2 ^ (1 << rng.randrange(63 - p63.r)))
        try:
            got = decode1(p63, bad, dB)
            assert got != delta
        except InconsistentDigests:
            pass


def test_cost_bits(p63):
    p127 = params_build(127, 1, 4, 1)
    assert digest1_cost_bits(p127) == p127.comp.redundancy + 120
    assert digest1_cost_bits(p127) < 4 * 128  # beats per-element transfer
    # h=1 degenerates to about n bits
    p1 = params_build(127, 1, 1, 1)
    assert abs(digest1_cost_bits(p1) - 127) <= p1.comp.redundancy


def test_syndrome_index_matches_parity(p63):
    rng = random.Random(9)
    for _ in range(20):
        x = BitVector(rng.getrandbits(63), 63)
        assert map_M(p63, x) == p63.h_l.mul_vec(x.value)
