import random
from itertools import combinations

import pytest

from reference import decode_syndrome_exhaustive
from thlrecon.codes import bch_build, bh_sequence, rs_code
from thlrecon.errors import DecodingError
from thlrecon.gf2 import ff_make


# -- binary BCH -------------------------------------------------------------


def test_hamming_code():
    code = bch_build(7, 1)
    assert code.redundancy == 3
    singles = [code.syndrome_from_positions([i]) for i in range(7)]
    assert len(set(singles)) == 7
    assert all(s != 0 for s in singles)
    for i in range(7):
        assert code.decode_positions(singles[i]) == [i]


def test_bch_15_2():
    code = bch_build(15, 2)
    assert code.redundancy == 8
    # no nonzero vector of weight <= 4 has zero syndrome (exhaustive)
    for w in range(1, 5):
        for pos in combinations(range(15), w):
            assert code.syndrome_from_positions(pos) != 0
    # every weight <= 2 pattern round-trips
    for i in range(15):
        assert code.decode_positions(code.syndrome_from_positions([i])) == [i]
    for pos in combinations(range(15), 2):
        assert code.decode_positions(code.syndrome_from_positions(pos)) == list(pos)


def test_bch_invalid_distance():
    with pytest.raises(ValueError):
        bch_build(7, 4)


def test_bch_uncorrectable():
    code = bch_build(15, 1)
    # weight-2 syndrome is outside the radius of a distance-3 code,
    # or decodes to a *different* single position; either way the
    # decoder must not return the weight-2 pattern
    s = code.syndrome_from_positions([0, 5])
    try:
        got = code.decode_positions(s)
        assert len(got) == 1 and code.syndrome_from_positions(got) == s
    except DecodingError:
        pass


def test_decode_zero():
    code = bch_build(15, 2)
    assert code.decode_positions(0) == []


# (4096, 4) is the longest rank-reduced code; with (63, 2) and (127, 1) it
# covers the BCH codes that the t1-limit and tT-limit benchmark workloads
# decode.
@pytest.mark.parametrize(
    "n,e", [(63, 3), (127, 2), (200, 2), (4096, 4), (63, 2), (127, 1)]
)
def test_bch_random_roundtrip(n, e):
    code = bch_build(n, e)
    rng = random.Random(n * e)
    for _ in range(200):
        pos = sorted(rng.sample(range(n), rng.randint(0, e)))
        s = code.syndrome_from_positions(pos)
        assert code.decode_positions(s) == pos


def test_bch_long_unreduced_path():
    # length beyond the dense limit: raw odd-power syndromes,
    # gcd/trace root finding, positions via discrete log
    code = bch_build(1 << 13, 2)
    assert code._reduced is False
    assert code.redundancy == 2 * code.locator_degree
    rng = random.Random(99)
    for _ in range(50):
        pos = sorted(rng.sample(range(code.length), rng.randint(0, 2)))
        assert code.decode_positions(code.syndrome_from_positions(pos)) == pos


def test_syndrome_op_and_linearity():
    code = bch_build(15, 2)
    rng = random.Random(5)
    assert code.syndrome_bits(0) == 0
    for _ in range(30):
        x, y = rng.getrandbits(15), rng.getrandbits(15)
        assert code.syndrome_bits(x) ^ code.syndrome_bits(y) == code.syndrome_bits(x ^ y)


def test_decode_syndrome_op_matches_exhaustive():
    code = bch_build(15, 2)
    rng = random.Random(6)
    for _ in range(30):
        pos = sorted(rng.sample(range(15), rng.randint(0, 2)))
        s = code.syndrome_bits(sum(1 << p for p in pos))
        assert code.decode_positions(s) == pos
        assert decode_syndrome_exhaustive(code, s) == pos


# -- Reed-Solomon -----------------------------------------------------------


def test_rs_roundtrip_gf16():
    spec = ff_make(4)
    code = rs_code(spec, 15, 5)
    assert code.max_errors == 2
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(0, 2)
        errs = {}
        while len(errs) < k:
            errs[rng.randrange(15)] = rng.randrange(1, 16)
        syn = code.syndrome_sparse(errs)
        assert code.decode(syn) == errs


def test_rs_d1_zero_only():
    code = rs_code(ff_make(4), 15, 1)
    assert code.redundancy == 0
    assert code.syndrome_sparse({3: 7}) == ()
    assert code.decode(()) == {}


def test_rs_zero_word():
    code = rs_code(ff_make(4), 15, 5)
    assert code.syndrome_sparse({}) == (0, 0, 0, 0)


def test_rs_uncorrectable():
    code = rs_code(ff_make(4), 15, 5)
    rng = random.Random(2)
    # 3 errors exceed the radius; decoder must reject or return a
    # different weight <= 2 pattern consistent with the syndrome -
    # never the planted weight-3 pattern
    errs = {1: 3, 5: 9, 11: 4}
    syn = code.syndrome_sparse(errs)
    try:
        got = code.decode(syn)
        assert got != errs and code.syndrome_sparse(got) == syn
    except DecodingError:
        pass


def test_rs_length_bound():
    with pytest.raises(ValueError):
        rs_code(ff_make(4), 16, 5)


# -- B_h sequences ----------------------------------------------------------


def xor_all(values):
    acc = 0
    for v in values:
        acc ^= v
    return acc


def test_bh_h1_distinct_nonzero():
    seq = bh_sequence(20, 1, ff_make(16))
    vals = [seq.element_value(i) for i in range(20)]
    assert len(set(vals)) == 20
    assert all(v for v in vals)


def test_bh_m16_h2_exhaustive():
    seq = bh_sequence(16, 2, ff_make(64))
    vals = [seq.element_value(i) for i in range(16)]
    assert all(v for v in vals)
    for pair in combinations(vals, 2):
        assert xor_all(pair) != 0


def test_bh_m32_h3_exhaustive():
    seq = bh_sequence(32, 3, ff_make(120))
    vals = [seq.element_value(i) for i in range(32)]
    for size in (1, 2, 3):
        for sub in combinations(vals, size):
            assert xor_all(sub) != 0


def test_bh_width_rejected():
    with pytest.raises(ValueError):
        bh_sequence(1 << 10, 4, ff_make(16))
