import dataclasses
import random

import pytest

from reference import encode_t_reference, gamma_column, nullspace
from thlrecon.bits import BitVector, project
from thlrecon.codes import RsCode
from thlrecon.errors import DecodingError, InconsistentDigests
from thlrecon.gf2 import comb_table
from thlrecon.maps_t import f_lanes, gamma, map_E, map_f, map_M
from thlrecon.oracle import gen_instance, oracle_symdiff
from thlrecon.params import Digest, digest_cost_bits, params_build
from thlrecon.protocol import decode_digests, encode_digest
from thlrecon.recont import decode_t, encode_t


@pytest.fixture(scope="module")
def p63():
    return params_build(63, 2, 2, 1)


def test_empty_set_zero_digest(p63):
    d = encode_t(p63, [])
    assert len(d) == p63.comp_rs.redundancy + p63.t * p63.t
    assert all(v == 0 for v in d)


def test_identical_sets(p63):
    rng = random.Random(0)
    S = frozenset(BitVector(rng.getrandbits(63), 63) for _ in range(15))
    d = encode_t(p63, S)
    assert decode_digests(p63, d, d) == frozenset()


def test_singleton(p63):
    x = BitVector(0b1011001, 63)
    dA = encode_t(p63, {x})
    dB = encode_t(p63, set())
    assert decode_digests(p63, dA, dB) == frozenset({x})


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
     (127, 2, 3, 2), (127, 3, 2, 1), (31, 4, 2, 1), (16, 2, 2, 2)],
)
def test_roundtrip_random(n, t, h, ell):
    p = params_build(n, t, h, ell)
    for seed in range(100):
        SA, SB, delta = gen_instance(p, seed, 10)
        assert decode_digests(p, encode_t(p, SA), encode_t(p, SB)) == delta


def test_blocks_sharing_a_position(p63):
    # two blocks engineered so the second block's center lands on the
    # same position as the first block's offset element
    rng = random.Random(123)
    basis = nullspace(p63.cl.parity)
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
        assert decode_digests(p63, encode_t(p63, SA), encode_t(p63, SB)) == delta
        return
    raise AssertionError("could not build a shared-position instance")


def test_corrupted_digest_never_silent(p63):
    SA, SB, delta = gen_instance(p63, 9, 5)
    dA, dB = encode_t(p63, SA), encode_t(p63, SB)
    rng = random.Random(10)
    a, u, t = p63.comp_rs.field.degree, p63.comp_rs.redundancy, p63.t
    for _ in range(30):
        bad = list(dA)
        if rng.getrandbits(1):
            bad[rng.randrange(u)] ^= 1 << rng.randrange(a)
        else:
            bad[u + rng.randrange(t) * t + rng.randrange(t)] ^= (
                1 << rng.randrange(p63.nbar)
            )
        bad = Digest(bad)
        try:
            got = decode_digests(p63, bad, dB)
            assert got != delta
        except InconsistentDigests:
            pass


def test_cost_bits():
    p = params_build(127, 2, 4, 1)
    bits = digest_cost_bits(p)
    assert bits == p.comp_rs.redundancy * p.comp_rs.field.degree + 4 * p.nbar
    assert bits < 2 * 4 * 128  # beats per-element transfer
    # grid portion is exactly t^2 * nbar bits
    p2 = params_build(63, 3, 2, 1)
    stage1 = p2.comp_rs.redundancy * p2.comp_rs.field.degree
    assert digest_cost_bits(p2) - stage1 == 9 * 57


def test_same_f_value_at_undecodable_offset_rejected():
    # one f-value at two positions puts them in one block, whose offset
    # is the C_l decode of i ^ j; a syndrome outside the decoding
    # radius has none
    p = params_build(63, 2, 3, 2)
    sigma = map_f(p, 5)
    i = 0
    j = next(j for j in range(1, p.N) if _offset_fails(p, i, j))
    stage1 = p.comp_rs.syndrome_sparse({i: sigma, j: sigma})
    d = Digest(stage1 + (0,) * (p.t * p.t))
    zero = Digest((0,) * len(d))
    with pytest.raises(InconsistentDigests, match="offset recovery failed"):
        decode_digests(p, d, zero)


def _offset_fails(p, i, j):
    try:
        map_E(p, i, j)
    except DecodingError:
        return True
    return False


def test_stage1_recovery_matches_direct(p63):
    SA, SB, delta = gen_instance(p63, 21, 10)
    dsum = encode_t(p63, SA) ^ encode_t(p63, SB)
    zdot = p63.comp_rs.decode(dsum[: p63.comp_rs.redundancy])
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
    assert decode_digests(p, dA, dB) == delta
    rng = random.Random(11)
    u = p.comp_rs.redundancy
    for row in range(p.t):
        for k in range(p.t):
            bad = list(dA)
            bad[u + row * p.t + k] ^= 1 << rng.randrange(p.nbar)
            bad = Digest(bad)
            with pytest.raises(InconsistentDigests):
                decode_digests(p, bad, dB)


@pytest.mark.parametrize(
    "point", [(15, 2, 2, 1), (127, 3, 2, 1), (63, 3, 2, 1), (31, 4, 2, 1)]
)
def test_encode_matches_reduced_per_product_reference(point):
    # the grid packs the t Frobenius lanes of a column into one int and
    # folds each lane once, where the reference reduces every product;
    # (31, 4, 2, 1) has four lanes in GF(2^26), where f^(2^k) wraps
    # past nbar
    p = params_build(*point)
    rng = random.Random(point[0])
    for seed in range(4):
        SA, _, _ = gen_instance(p, seed, 6)
        S = set(SA) | {BitVector(rng.getrandbits(p.n), p.n) for _ in range(30)}
        assert encode_t(p, S) == encode_t_reference(p, S)


@pytest.mark.parametrize("point", [(127, 3, 2, 1), (63, 2, 2, 1), (63, 3, 2, 1), (127, 2, 4, 1)])
def test_gamma_table_matches_the_chain(point):
    # the set-up table holds, for every j < N, gamma_j squared row
    # times for each row < t; gamma reads it, and computes the same
    # without it
    p = params_build(*point)
    chain = dataclasses.replace(p, gamma_powers=None)
    assert len(p.gamma_powers) == p.N
    for j in range(p.N):
        rows, g = [], gamma_column(p, j)
        for _ in range(p.t):
            rows.append(g)
            g = p.nbar_field.sqr(g)
        assert p.gamma_powers[j] == gamma(p, j) == gamma(chain, j) == tuple(rows)
    for bad in (-1, p.N):
        for params in (p, chain):
            with pytest.raises(IndexError):
                gamma(params, bad)


@pytest.mark.parametrize("point", [(127, 3, 2, 1), (63, 2, 2, 1), (63, 3, 2, 1), (127, 2, 4, 1)])
def test_f_lane_table_matches_the_chain(point):
    # the set-up table holds, for every I-projection v, map_f(v) and the
    # comb table of its t Frobenius powers packed at 3nbar bits apart;
    # f_lanes reads it, and computes the same without it
    p = params_build(*point)
    chain = dataclasses.replace(p, f_lane_table=None)
    m = len(p.I)
    assert len(p.f_lane_table) == 1 << m <= p.N
    for v in range(1 << m):
        f = map_f(p, v)
        lanes, g = 0, f
        for k in range(p.t):
            lanes |= g << (3 * p.nbar * k)
            g = p.nbar_field.sqr(g)
        want = (f, comb_table(lanes))
        assert p.f_lane_table[v] == f_lanes(p, v) == f_lanes(chain, v) == want
    for bad in (-1, 1 << m):
        for params in (p, chain):
            with pytest.raises(ValueError):
                f_lanes(params, bad)


def test_wide_index_set_builds_no_lane_table():
    # 2^|I| = 256 I-projections against N = 64 positions: no lane
    # table, and the per-call chain still round-trips
    p = params_build(63, 2, 2, 1, I=range(1, 9))
    assert p.gamma_powers is not None and p.f_lane_table is None
    for seed in range(3):
        SA, SB, delta = gen_instance(p, seed, 30)
        assert decode_digests(p, encode_t(p, SA), encode_t(p, SB)) == delta


def test_encode_and_decode_on_the_chain_match_the_tables():
    # the golden points now run on the tables; the same instances
    # through per-call gamma powers, f lanes, syndromes and discrete
    # logs give the same digests and differences
    p = params_build(127, 3, 2, 1)
    rs = RsCode(p.comp_rs.field, p.N, p.comp_rs.distance)
    rs.syndrome_tables = rs.locator_lanes = rs.inverse_locators = None
    chain = dataclasses.replace(p, comp_rs=rs, gamma_powers=None, f_lane_table=None)
    for seed in range(3):
        SA, SB, delta = gen_instance(p, seed, 40)
        dA, dB = encode_t(p, SA), encode_t(p, SB)
        assert (encode_t(chain, SA), encode_t(chain, SB)) == (dA, dB)
        assert decode_digests(p, dA, dB) == decode_digests(chain, dA, dB) == delta


def test_decode_t_inverts_once_per_center_pivot(monkeypatch):
    # the center solve scales each signature's column by its gamma sum
    # and inverts each pivot once, so a decode of up to t blocks takes
    # at most t inverses in GF(2^nbar)
    p = params_build(127, 3, 2, 1)
    spec, calls = p.nbar_field, []
    inv = spec.inv

    def counted(a):
        calls.append(a)
        return inv(a)

    full = 0
    for seed in (4, 5, 6, 7):  # 1, 3, 3 and 2 blocks
        SA, SB, delta = gen_instance(p, seed, 40)
        d = encode_t(p, SA) ^ encode_t(p, SB)
        calls.clear()
        monkeypatch.setattr(spec, "inv", counted)
        blocks = decode_t(p, d)
        monkeypatch.undo()
        assert frozenset(x for block in blocks for x in block) == delta
        assert len(calls) <= p.t, seed
        full += len(blocks) == p.t
    assert full


def test_decode_digests_rejects_the_other_schemes_digest():
    # both digests meet the layout check before either scheme decodes:
    # a digest of the other scheme has another field count, on either
    # side and in both directions, and a plain tuple is no Digest
    p1, pt = params_build(63, 1, 2, 1), params_build(63, 2, 2, 1)
    for p, other in ((p1, pt), (pt, p1)):
        good, wrong = encode_digest(p, []), encode_digest(other, [])
        for pair in ((wrong, wrong), (good, wrong), (wrong, good)):
            with pytest.raises(ValueError) as e:
                decode_digests(p, *pair)
            assert str(e.value) == "digest does not match the field layout"
        for pair in ((tuple(good), good), (good, tuple(good))):
            with pytest.raises(TypeError):
                decode_digests(p, *pair)


def test_oversized_or_negative_row0_entry_rejected():
    # a grid entry of 2^(3nbar) or more is wider than a packed lane, so
    # it would spill into the next lane; decode_digests rejects it before
    # packing, as it rejects any entry outside its nbar bits
    p = params_build(63, 3, 2, 1)
    SA, SB, delta = gen_instance(p, 4, 10)
    dA, dB = encode_t(p, SA), encode_t(p, SB)
    assert decode_digests(p, dA, dB) == delta
    u = p.comp_rs.redundancy
    for k in range(p.t):
        v = dA[u + k]
        for bad in (v ^ 1 << p.nbar, v ^ 1 << 3 * p.nbar, v | 1 << 4 * p.nbar, ~v, -1):
            d = Digest(dA[: u + k] + (bad,) + dA[u + k + 1:])
            with pytest.raises(ValueError, match="value wider than field width"):
                decode_digests(p, d, dB)
