import dataclasses
import random

import pytest

from reference import encode1_reference, from_bits, from_lists
from thlrecon.bits import BitVector
from thlrecon.errors import InconsistentDigests
from thlrecon.gf2 import TABLE_MAX_DEGREE, FieldSpec
from thlrecon.maps_t import map_M
from thlrecon.oracle import gen_instance
from thlrecon.params import Digest, digest_cost_bits, params_build
from thlrecon.protocol import decode_digests
from thlrecon.recon1 import encode1


def pad(bits, n):
    """Zero-extend a short bit string (position-1-first) to length n."""
    return from_bits(list(bits) + [0] * (n - len(bits)))


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
    assert encode1(p63, [])[0] == 0
    x = BitVector(123, 63)
    y = x ^ BitVector(0b101, 63)  # within distance ell of x is not required
    # same element twice cancels
    assert encode1(p63, [x, x]) == Digest((0, 0))
    s = p63.comp.decode_positions(encode1(p63, [x, y])[0])
    assert len(s) == 2 and s == sorted({map_M(p63, x), map_M(p63, y)})


@pytest.mark.parametrize(
    "point", [(511, 1, 4, 2), (63, 1, 4, 2), (127, 1, 2, 1), (63, 1, 3, 2), (63, 1, 1, 2)]
)
def test_encode_gathers_the_per_element_products(point):
    # the nibble buckets and their fold give the sum of products
    p = params_build(*point)
    rng = random.Random(point[0] + point[2])
    for size in (0, 1, 2, p.h, p.h + 1, 300):
        S = [BitVector(rng.getrandbits(p.n), p.n) for _ in range(size)]
        assert encode1(p, S) == encode1_reference(p, S), size


def test_encode_empty_and_deterministic(p63):
    d = encode1(p63, [])
    assert d == Digest((0, 0))
    rng = random.Random(0)
    S = [BitVector(rng.getrandbits(63), 63) for _ in range(10)]
    assert encode1(p63, S) == encode1(p63, set(S))


def test_decode_identical_sets(p63):
    rng = random.Random(1)
    S = frozenset(BitVector(rng.getrandbits(63), 63) for _ in range(10))
    d = encode1(p63, S)
    assert decode_digests(p63, d, d) == frozenset()


def test_paper_example_padded(p63):
    SA = {pad([0, 0, 0, 0, 0], 63), pad([1, 0, 1, 1, 1], 63)}
    SB = {pad([0, 0, 0, 0, 0], 63), pad([1, 1, 0, 0, 1], 63)}
    delta = decode_digests(p63, encode1(p63, SA), encode1(p63, SB))
    assert delta == frozenset({pad([1, 0, 1, 1, 1], 63), pad([1, 1, 0, 0, 1], 63)})


def test_symmetry(p63):
    SA, SB, delta = gen_instance(p63, 42, 8)
    dA, dB = encode1(p63, SA), encode1(p63, SB)
    assert decode_digests(p63, dA, dB) == decode_digests(p63, dB, dA) == delta


def test_shift_cancellation(p63):
    rng = random.Random(3)
    SA, SB, _ = gen_instance(p63, 7, 0)
    y = BitVector(rng.getrandbits(63), 63)
    dA, dB = encode1(p63, SA), encode1(p63, SB)
    dA2, dB2 = encode1(p63, SA | {y}), encode1(p63, SB | {y})
    assert dA ^ dB == dA2 ^ dB2


def test_indicator_of_difference_recovered(p63):
    SA, SB, delta = gen_instance(p63, 11, 10)
    w1, _ = encode1(p63, SA) ^ encode1(p63, SB)
    assert p63.comp.decode_positions(w1) == sorted(map_M(p63, x) for x in delta)


@pytest.mark.parametrize("n,h,ell", [(31, 4, 1), (63, 3, 2), (127, 2, 3)])
def test_roundtrip_random(n, h, ell):
    p = params_build(n, 1, h, ell)
    for seed in range(100):
        SA, SB, delta = gen_instance(p, seed, 10)
        assert decode_digests(p, encode1(p, SA), encode1(p, SB)) == delta


@pytest.mark.parametrize("h", [1, 3])
def test_roundtrip_without_field_tables(h):
    # r = 24: the comp code's locator field GF(2^25) has no exp/log tables
    p = params_build(255, 1, h, 3)
    assert p.comp.field.degree > TABLE_MAX_DEGREE
    for seed in range(10):
        SA, SB, delta = gen_instance(p, seed, 10)
        assert decode_digests(p, encode1(p, SA), encode1(p, SB)) == delta


def test_roundtrip_with_tabled_digest_field():
    # GF(2^11) with exp/log tables reads only reduced operands, so w2
    # and the decoder's sum must each be folded before they reach it;
    # a fresh spec, so the shared GF(2^11) stays table-free
    p = params_build(15, 1, 2, 1)
    assert p.digest_field.degree == 11
    tabled = FieldSpec(11, p.digest_field.modulus)
    tabled.ensure_tables()
    p = dataclasses.replace(p, digest_field=tabled)
    for seed in range(20):
        SA, SB, delta = gen_instance(p, seed, 6)
        dA, dB = encode1(p, SA), encode1(p, SB)
        assert dA[1] >> 11 == dB[1] >> 11 == 0
        assert decode_digests(p, dA, dB) == delta


def test_corrupted_digest_never_silent(p63):
    SA, SB, delta = gen_instance(p63, 5, 5)
    dA, dB = encode1(p63, SA), encode1(p63, SB)
    rng = random.Random(8)
    for _ in range(30):
        if rng.getrandbits(1):
            bad = dA ^ Digest((1 << rng.randrange(p63.comp.redundancy), 0))
        else:
            bad = dA ^ Digest((0, 1 << rng.randrange(63 - p63.r)))
        try:
            got = decode_digests(p63, bad, dB)
            assert got != delta
        except InconsistentDigests:
            pass


def test_cost_bits(p63):
    p127 = params_build(127, 1, 4, 1)
    assert digest_cost_bits(p127) == p127.comp.redundancy + 120
    assert digest_cost_bits(p127) < 4 * 128  # beats per-element transfer
    # h=1 degenerates to about n bits
    p1 = params_build(127, 1, 1, 1)
    assert abs(digest_cost_bits(p1) - 127) <= p1.comp.redundancy


def test_syndrome_index_matches_parity(p63):
    rng = random.Random(9)
    for _ in range(20):
        x = BitVector(rng.getrandbits(63), 63)
        assert map_M(p63, x) == p63.cl.parity.mul_vec(x.value)
