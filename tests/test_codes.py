import random
from itertools import combinations, product

import pytest

from reference import (
    bch_odd_power_columns,
    bch_reduced_by_elimination,
    decode_syndrome_exhaustive,
    find_roots_trace,
    poly_mul_ff,
    rs_decode,
    rs_syndromes,
    roots_by_search,
    vector_rank,
)
from thlrecon import codes
from thlrecon.codes import (
    _ROOT_SCAN_LIMIT,
    berlekamp_massey,
    bch_build,
    bh_sequence,
    find_roots,
    first_dependency,
    odd_powers,
    rs_code,
)
from thlrecon.errors import DecodingError
from thlrecon.gf2 import TABLE_MAX_DEGREE, FieldSpec, ff_make
from thlrecon.params import params_build


# -- root finding -----------------------------------------------------------


def _found(spec, poly):
    """find_roots' sorted roots, or None where it raises DecodingError."""
    try:
        return sorted(find_roots(spec, poly))
    except DecodingError as exc:
        assert str(exc) == "uncorrectable syndrome"
        return None


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_find_roots_every_small_polynomial(m):
    spec = ff_make(m)
    for degree in range(4):
        for low in product(range(1 << m), repeat=degree):
            poly = list(low) + [1]
            want = roots_by_search(spec, poly)
            got = _found(spec, poly)
            if len(want) == degree:  # a product of distinct linear factors
                assert got == want, poly
            else:
                assert got is None, poly


def _from_roots(spec, roots):
    poly = [1]
    for r in roots:
        poly = poly_mul_ff(spec, poly, [r, 1])
    return poly


def _trace(spec, a):
    t = 0
    for _ in range(spec.degree):
        t ^= a
        a = spec.sqr(a)
    return t


# the work fields are GF((2^12)^2) and GF((2^13)^2), where stage-1
# Reed-Solomon decoding finds its roots
@pytest.mark.parametrize(
    "m, work", [(24, False), (120, False), (24, True), (26, True)],
    ids=["24", "120", "work24", "work26"],
)
def test_find_roots_large_fields(m, work):
    spec = ff_make(m).work_field()[0] if work else ff_make(m)
    rng = random.Random(m)
    roots = [rng.getrandbits(m) | 1 for _ in range(4)]
    assert len(set(roots)) == 4
    poly = _from_roots(spec, roots)
    assert sorted(find_roots(spec, poly)) == sorted(roots)
    assert _found(spec, _from_roots(spec, roots + roots[:1])) is None
    # x^2 + x + a is irreducible when the trace of a is 1
    a = next(c for c in (1 << i for i in range(m)) if _trace(spec, c) == 1)
    assert _found(spec, poly_mul_ff(spec, poly, [a, 1, 1])) is None


def _outcome_roots(roots):
    return None if roots is None else sorted(roots)


def _quadratic(spec):
    # x^2 + x + a is irreducible when the trace of a is 1
    a = next(c for c in (1 << i for i in range(spec.degree)) if _trace(spec, c) == 1)
    return [a, 1, 1]


def _locators(spec, rng, d):
    """Locators of degree d: split (with and without a zero root), with a
    repeated root, with an irreducible quadratic factor, and random."""
    m = spec.degree
    roots = rng.sample(range(1, 1 << m), d)
    yield "split", _from_roots(spec, roots)
    yield "split", _from_roots(spec, roots[:-1] + [0])
    if d >= 2:
        yield "repeated", _from_roots(spec, roots[:-1] + roots[:1])
        part = _from_roots(spec, roots[:-2])
        yield "irreducible", poly_mul_ff(spec, part, _quadratic(spec))
    low = [rng.randrange(1 << m) for _ in range(d)]
    yield "random", low + [rng.randrange(1, 1 << m)]


# the fields where the decoders find roots: the workloads' C_l and comp
# fields GF(2^6), GF(2^13) and GF(2^19), the B_h-size GF(2^8), and the
# t > 1 work field GF((2^12)^2)
@pytest.mark.parametrize(
    "m, work", [(6, False), (8, False), (13, False), (19, False), (24, True)],
    ids=["6", "8", "13", "19", "work24"],
)
def test_find_roots_matches_trace_oracle(m, work):
    spec = ff_make(m).work_field()[0] if work else ff_make(m)
    rng = random.Random(m)
    seen = set()
    for d in range(1, 7):
        for _ in range(6):
            for kind, poly in _locators(spec, rng, d):
                got = _found(spec, poly)
                assert got == _outcome_roots(find_roots_trace(spec, poly)), (kind, poly)
                if kind != "random":
                    assert (got is None) == (kind != "split"), (kind, poly)
                seen.add((kind, got is None))
    assert ("random", True) in seen and ("split", False) in seen


def test_find_roots_splits_large_root_spaces(monkeypatch):
    # 16 roots in GF(2^13) span an affine space of more points than the
    # scan tries, so the hyperplane split runs; it meets the oracle on
    # split locators and on ones with an irreducible quadratic factor
    calls = []
    split = codes._split
    monkeypatch.setattr(codes, "_split", lambda *a: calls.append(a) or split(*a))
    spec = ff_make(13)
    rng = random.Random(16)
    for _ in range(4):
        roots = rng.sample(range(1 << 13), 16)
        poly = _from_roots(spec, roots)
        assert sorted(find_roots(spec, poly)) == sorted(roots)
        assert find_roots_trace(spec, poly) is not None
        bad = poly_mul_ff(spec, poly, _quadratic(spec))
        assert _found(spec, bad) is None and find_roots_trace(spec, bad) is None
    assert calls and all(1 << len(a[-1]) > _ROOT_SCAN_LIMIT for a in calls)


def test_find_roots_degree_above_the_field_degree():
    # d > m: the table may end at k = m with no dependency
    spec = ff_make(6)
    rng = random.Random(6)
    for d in (7, 10, 20):
        roots = rng.sample(range(1 << 6), d)
        assert sorted(find_roots(spec, _from_roots(spec, roots))) == sorted(roots)
        bad = poly_mul_ff(spec, _from_roots(spec, roots[:-2]), _quadratic(spec))
        assert _found(spec, bad) is None and find_roots_trace(spec, bad) is None
        rand = [rng.randrange(64) for _ in range(d)] + [1]
        assert _found(spec, rand) == _outcome_roots(find_roots_trace(spec, rand))


def test_first_dependency():
    spec = ff_make(8)
    a, b = [1, 2, 3], [4, 5, 6]
    c = [x ^ spec.mul(7, y) for x, y in zip(a, b)]
    assert first_dependency(spec, [a, b, c, [1, 1, 1]]) == (2, [1, 7])
    assert first_dependency(spec, [a, b, [0, 0, 1]]) is None
    assert first_dependency(spec, [a, a]) == (1, [1])
    assert first_dependency(spec, [[0, 0]]) == (0, [])


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
    # Berlekamp-Massey rejects for itself: a locator of degree below its
    # length L ([1, 0] gives C = 1, L = 1), or L above the bound
    spec = ff_make(8)
    for sums, bound in (([1, 0], 1), ([0, 0, 1, 0], 1)):
        with pytest.raises(DecodingError, match="uncorrectable syndrome"):
            berlekamp_massey(spec, sums, bound)
    assert berlekamp_massey(spec, [0, 0, 1, 0], 3) == [1, 0, 0, 1]


def test_decode_zero():
    code = bch_build(15, 2)
    assert code.decode_positions(0) == []


# (4096, 4) is the longest rank-reduced code; with (63, 2) and (127, 1) it
# covers the BCH codes that the t1-limit and tT-limit benchmark workloads
# decode.  (32, 5) and (64, 9), of rank 27 of 30 and 56 of 63, lift
# through a deficient reduction.
@pytest.mark.parametrize(
    "n,e",
    [(63, 3), (127, 2), (200, 2), (4096, 4), (63, 2), (127, 1), (32, 5), (64, 9)],
)
def test_bch_random_roundtrip(n, e):
    code = bch_build(n, e)
    rng = random.Random(n * e)
    for _ in range(200):
        pos = sorted(rng.sample(range(n), rng.randint(0, e)))
        s = code.syndrome_from_positions(pos)
        assert code.decode_positions(s) == pos


# rank-deficient codes, (63, 5) of rank 27 of 30 among them, codes no
# longer than deg g, such as (16, 7), the t1-limit comp code (4096, 4),
# C_l of each benchmark workload, the longest code at the dense limit
# with e = 8 and a perfect Hamming code
BCH_LAYOUT_CODES = [
    (63, 5), (63, 9), (32, 5), (7, 3), (16, 7), (64, 9),
    (4096, 4), (511, 2), (63, 2), (127, 1), (4096, 8), (2047, 1),
]


def _check_reduced_layout(n, e, rng):
    code = bch_build(n, e)
    # the parity read off the generator polynomial is the one elimination
    # gives, bit for bit
    assert (
        code.redundancy, list(code.parity.row_data), code._cols, list(code._lift.row_data)
    ) == bch_reduced_by_elimination(n, e)
    assert code._lift.cols == code.redundancy == code.parity.rows
    rho, columns = code.redundancy, bch_odd_power_columns(n, e)
    # rho is the rank of all n columns, and the first rho are the pivots
    assert rho == vector_rank(columns) <= e * code.field.degree
    assert [r & (1 << rho) - 1 for r in code.parity.row_data] == [
        1 << k for k in range(rho)
    ]
    # the lift takes a reduced syndrome to the full odd-power one
    for _ in range(10):
        pos = rng.sample(range(n), rng.randint(1, min(n, 2 * e + 2)))
        full = 0
        for i in pos:
            full ^= columns[i]
        assert code._lift.mul_vec(code.syndrome_from_positions(pos)) == full


@pytest.mark.parametrize("n,e", BCH_LAYOUT_CODES)
def test_reduced_parity_is_identity_then_rest(n, e):
    _check_reduced_layout(n, e, random.Random(n * 100 + e))


def test_reduced_parity_layout_over_every_short_code():
    rng = random.Random(7)
    for n in range(3, 41):
        for e in range(1, (n - 1) // 2 + 1):
            _check_reduced_layout(n, e, rng)


def test_bch_long_unreduced_path():
    # length beyond the dense limit: raw odd-power syndromes,
    # gcd/trace root finding, positions via discrete log
    code = bch_build(1 << 13, 2)
    assert code.parity is None
    assert code.redundancy == 2 * code.field.degree
    rng = random.Random(99)
    for _ in range(50):
        pos = sorted(rng.sample(range(code.length), rng.randint(0, 2)))
        assert code.decode_positions(code.syndrome_from_positions(pos)) == pos


# C_l of each golden point and the longest rank-reduced code
@pytest.mark.parametrize("n,e", [(63, 2), (127, 1), (511, 2), (63, 1), (4096, 4)])
def test_syndrome_bits_matches_positions(n, e):
    code = bch_build(n, e)
    rng = random.Random(n + e)
    xs = [0, 1, 1 << (n - 1), (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    for x in xs:
        positions = [i for i in range(n) if (x >> i) & 1]
        assert code.syndrome_bits(x) == code.syndrome_from_positions(positions)


def test_syndrome_bits_rejects_a_long_code():
    # a long code keeps no parity matrix; its syndromes come from
    # positions
    code = bch_build(1 << 13, 2)
    with pytest.raises(ValueError, match="syndrome_bits needs a rank-reduced code"):
        code.syndrome_bits(1)


# a long code with exp/log tables (also the t1-bulk comp code's
# shape) and one past the table limit, locator degree 23
@pytest.mark.parametrize("n,e", [(1 << 13, 2), (1 << 18, 4), ((1 << 22) + 1, 1)])
def test_long_code_syndrome_is_sum_of_odd_power_columns(n, e):
    code = bch_build(n, e)
    spec = code.field
    assert code._cols is None
    assert (spec._exp is None) == (spec.degree > TABLE_MAX_DEGREE)
    g = spec.generator()
    rng = random.Random(n)
    for size in (0, 1, 2, 7, 40):
        pos = [rng.randrange(n) for _ in range(size)] + [0, n - 1]
        pos += pos[: size // 2]  # duplicates cancel
        want = 0
        for i in pos:
            want ^= odd_powers(spec, spec.pow(g, i), e)
        assert code.syndrome_from_positions(pos) == want, (size, pos)


@pytest.mark.parametrize("n,e", [(63, 2), (1 << 13, 2)])
@pytest.mark.parametrize("bad", [-1, "n", "n+5"])
def test_syndrome_positions_out_of_range_rejected(n, e, bad):
    code = bch_build(n, e)
    i = {"n": n, "n+5": n + 5}.get(bad, bad)
    with pytest.raises(ValueError, match="position out of range"):
        code.syndrome_from_positions([3, i, 5])


# short codes, whose syndrome lifts through the reduced parity, and a
# long one, which decodes the raw odd-power syndrome
@pytest.mark.parametrize("n,e", [(63, 2), (4096, 4), (1 << 13, 2)])
def test_decode_rejects_a_syndrome_out_of_range(n, e):
    code = bch_build(n, e)
    for synd in (1 << code.redundancy, -1):
        with pytest.raises(ValueError, match="syndrome out of range"):
            code.decode_positions(synd)
    try:  # the widest syndrome in range decodes or is uncorrectable
        code.decode_positions((1 << code.redundancy) - 1)
    except DecodingError:
        pass


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


def test_root_at_or_beyond_the_length_rejected():
    # a locator root at position n or past it is no error pattern of a
    # code shortened to n, even where its syndrome would re-encode
    # unreduced codes over one locator field: the full-length code gives
    # the syndromes of the positions the shortened one lacks
    code, full = bch_build(5000, 1), bch_build(8191, 1)
    for j in (5000, 8190):
        with pytest.raises(DecodingError):
            code.decode_positions(full.syndrome_from_positions([j]))
    short, wide = rs_code(ff_make(4), 10, 5), rs_code(ff_make(4), 15, 5)
    for j in (10, 14):
        with pytest.raises(DecodingError):
            short.decode(wide.syndrome_sparse({j: 3}))


def test_rs_length_bound():
    with pytest.raises(ValueError):
        rs_code(ff_make(4), 16, 5)


@pytest.mark.parametrize(
    "point,I", [((127, 3, 2, 1), None), ((127, 2, 2, 1), tuple(range(1, 13)))]
)
def test_rs_work_field_matches_standard_reference(point, I):
    # degrees 24 and 26 compute in GF((2^k)^2); the reference computes
    # the same syndromes and decodes in the standard field
    code = params_build(*point, I=I).comp_rs
    a = code.field.degree
    assert a in (24, 26)
    rng = random.Random(a)
    for _ in range(12):
        errs = {}
        for _ in range(rng.randint(0, code.max_errors)):
            errs[rng.randrange(code.length)] = rng.randrange(1, 1 << a)
        syn = code.syndrome_sparse(errs)
        assert syn == rs_syndromes(code, errs)
        assert code.decode(syn) == rs_decode(code, syn) == errs
    for _ in range(12):
        syn = tuple(rng.randrange(1 << a) for _ in range(code.redundancy))
        with pytest.raises(DecodingError):
            rs_decode(code, syn)
        with pytest.raises(DecodingError):
            code.decode(syn)


@pytest.mark.parametrize("m,length", [(4, 15), (8, 100), (8, 255), (24, 128), (26, 1)])
def test_rs_locators_are_generator_powers(m, length):
    spec = ff_make(m)
    code = rs_code(spec, length, 1)
    _, into, _ = spec.work_field()
    g = spec.generator()
    for j in range(length):
        assert code.locator(j) == into(spec.pow(g, j)), j


# The t > 1 stage-1 codes under the position-table cap, by params point
# and index set: symbols in GF(2^24), GF(2^14), GF(2^21), GF(2^16) and
# GF(2^26), where 24 and 26 compute in composite work fields.
TABLED = [
    ((127, 3, 2, 1), None),
    ((63, 2, 2, 1), None),
    ((63, 3, 2, 1), None),
    ((127, 2, 2, 1), None),
    ((127, 2, 2, 1), tuple(range(1, 13))),
]


def _sparse_vector(rng, code, weight):
    # repeated symbols and zero symbols included
    a = code.field.degree
    pool = [0, 1, (1 << a) - 1] + [rng.randrange(1 << a) for _ in range(3)]
    return {rng.randrange(code.length): rng.choice(pool) for _ in range(weight)}


def _outcome(decode, syndromes):
    try:
        return decode(syndromes)
    except DecodingError as exc:
        return type(exc), str(exc)


def test_rs_position_tables_follow_the_cap():
    # N * a: 128 * 24 and 64 * 14 are under 2^12, 4096 * 14 is not, and
    # 256 * 16 sits on the cap, one field degree below 256 * 18; the gamma
    # powers and the f lanes (2^|I| <= N at every tabled point) follow it
    for point, tabled in (((127, 3, 2, 1), True), ((63, 2, 2, 1), True),
                          ((63, 2, 3, 2), False), ((128, 2, 2, 1), True),
                          ((129, 2, 2, 1), False)):
        p = params_build(*point)
        code = p.comp_rs
        assert (code.syndrome_tables is not None) is tabled, point
        assert (code.locator_lanes is not None) is tabled, point
        assert (code.inverse_locators is not None) is tabled, point
        assert (p.gamma_powers is not None) is tabled, point
        assert (p.f_lane_table is not None) is tabled, point
    assert rs_code(ff_make(4), 15, 5).syndrome_tables is not None
    assert rs_code(ff_make(12), 4095, 5).syndrome_tables is None


def test_rs_under_the_cap_builds_no_field_tables(monkeypatch):
    # GF(2^21) exp/log tables would take 16.8 MB; under the cap the
    # code's own tables give syndromes and root positions, so neither
    # set-up nor decoding asks for them, and decoding matches the
    # reference's dlog chain; the calls are recorded, as another test
    # may have tabled the shared GF(2^21) already
    tabled, ensure = [], FieldSpec.ensure_tables

    def record(spec):
        tabled.append(spec.degree)
        return ensure(spec)

    monkeypatch.setattr(FieldSpec, "ensure_tables", record)
    p = params_build(63, 3, 2, 1)
    code = p.comp_rs
    assert code.field.degree == 21 and code.locator_lanes is not None
    rng = random.Random(21)
    cases = [rs_syndromes(code, _sparse_vector(rng, code, w)) for w in (1, 2, 6, 7)]
    for _ in range(3):
        cases.append(tuple(rng.randrange(1 << 21) for _ in range(code.redundancy)))
    for syndromes in cases:
        assert _outcome(code.decode, syndromes) == _outcome(
            lambda s: rs_decode(code, s), syndromes
        )
    assert tabled and 21 not in tabled


@pytest.mark.parametrize("point,I", TABLED)
def test_rs_table_syndromes_match_reference(point, I):
    code = params_build(*point, I=I).comp_rs
    assert code.syndrome_tables is not None
    rng = random.Random(point[1] * code.field.degree)
    for _ in range(40):
        values = _sparse_vector(rng, code, rng.randint(0, code.redundancy))
        assert code.syndrome_sparse(values) == rs_syndromes(code, values)
    # the all-ones symbol gives the largest product in every lane
    ones = (1 << code.field.degree) - 1
    for j in range(code.length):
        assert code.syndrome_sparse({j: ones}) == rs_syndromes(code, {j: ones}), j


@pytest.mark.parametrize("point,I", TABLED + [((63, 2, 3, 2), None)])
def test_rs_table_decode_matches_reference(point, I):
    # the decode, by the lane scan under the cap and by find_roots and
    # dlog above it at (63,2,3,2), with Forney's evaluator from the
    # locator's L live terms, against the reference's chain and whole
    # product S(x) C(x) in the standard field: every weight up to one
    # past the radius, with and without the end positions 0 and N - 1,
    # sparse vectors with zero and repeated symbols, 200 random
    # syndromes, and locators with roots off the N positions (errors
    # from the length up to the group order, alone or beside errors
    # within it); each case gives the same errors, or the same exception
    # type and text
    code = params_build(*point, I=I).comp_rs
    assert (code.locator_lanes is not None) is ((point, I) in TABLED)
    a, n, e = code.field.degree, code.length, code.max_errors
    rng = random.Random(point[1] * a + 1)
    inner = range(1, n - 1)
    cases = []
    for weight in range(e + 2):
        for ends in ((), (0,), (n - 1,), (0, n - 1)):
            if len(ends) <= weight:
                positions = ends + tuple(rng.sample(inner, weight - len(ends)))
                cases.append({j: rng.randrange(1, 1 << a) for j in positions})
        cases.append(_sparse_vector(rng, code, weight))
    for weight in range(1, e + 2):
        for beyond in range(1, weight + 1):
            positions = rng.sample(range(n, code.field.order), beyond)
            positions += rng.sample(inner, weight - beyond)
            cases.append({j: rng.randrange(1, 1 << a) for j in positions})
    cases = [rs_syndromes(code, values) for values in cases]
    for _ in range(200):
        cases.append(tuple(rng.randrange(1 << a) for _ in range(code.redundancy)))
    decoded = 0
    for syndromes in cases:
        got = _outcome(code.decode, syndromes)
        assert got == _outcome(lambda s: rs_decode(code, s), syndromes), syndromes
        decoded += isinstance(got, dict)
    assert decoded >= 4 * e  # every case within the radius with nonzero symbols


@pytest.mark.parametrize(
    "build",
    [
        lambda: rs_code(ff_make(4), 15, 5),  # tables
        lambda: params_build(127, 3, 2, 1).comp_rs,  # tables, GF((2^12)^2)
        lambda: params_build(63, 2, 3, 2).comp_rs,  # over the cap
        lambda: rs_code(ff_make(12), 4095, 5),  # over the cap
    ],
)
def test_rs_rejects_a_symbol_outside_its_field(build):
    # a symbol of 2^a or more, or below 0, is no field element: its comb
    # product would spill into the next syndrome's lane, log[-1] read the
    # last table entry, and the basis change overflow.  A position outside
    # the code and a syndrome vector of the wrong length are rejected too
    code = build()
    a, u = code.field.degree, code.redundancy
    for j in (-1, code.length):
        with pytest.raises(ValueError, match="position out of range"):
            code.syndrome_sparse({j: 1})
    with pytest.raises(ValueError, match="syndrome length mismatch"):
        code.decode((0,) * (u - 1))
    assert code.syndrome_sparse({3: (1 << a) - 1})
    for bad in (-1, 1 << a, 1 << a | 1, 1 << 4 * a):
        with pytest.raises(ValueError, match="symbol out of range"):
            code.syndrome_sparse({3: bad})
        with pytest.raises(ValueError, match="symbol out of range"):
            code.syndrome_sparse({3: 1, 5: bad})
        for k in (0, u - 1):
            with pytest.raises(ValueError, match="symbol out of range"):
                code.decode((0,) * k + (bad,) + (0,) * (u - k - 1))


# -- B_h sequences ----------------------------------------------------------


def xor_all(values):
    acc = 0
    for v in values:
        acc ^= v
    return acc


def test_bh_h1_distinct_nonzero():
    seq = bh_sequence(20, 1)
    vals = seq.element_values(range(20))
    assert len(set(vals)) == 20
    assert all(v for v in vals)


def test_bh_m16_h2_exhaustive():
    seq = bh_sequence(16, 2)
    vals = seq.element_values(range(16))
    assert all(v for v in vals)
    for pair in combinations(vals, 2):
        assert xor_all(pair) != 0


def test_bh_m32_h3_exhaustive():
    seq = bh_sequence(32, 3)
    vals = seq.element_values(range(32))
    for size in (1, 2, 3):
        for sub in combinations(vals, size):
            assert xor_all(sub) != 0


@pytest.mark.parametrize(
    "m,h", [(16, 2), (300, 3), (1 << 18, 4), (1 << 12, 6), (1 << 18, 5)]
)
def test_bh_elements_are_packed_powers(m, h):
    seq = bh_sequence(m, h)
    spec, w = ff_make(seq.width), seq.width
    rng = random.Random(m)
    for i in list(range(6)) + [rng.randrange(m) for _ in range(20)]:
        want = sum(spec.pow(i, k) << (k * w) for k in range(h))
        assert seq.element_values((i,))[0] == want, i


@pytest.mark.parametrize(
    "m,h,sampled",
    [(20, 1, False), (16, 2, False), (300, 3, False), (4096, 4, False),
     (1 << 18, 4, True), (1 << 18, 5, True), (1 << 12, 6, True),
     (1 << 18, 8, True), (1 << 12, 8, True),
     (4097, 4, False), (4096, 8, False), (4097, 8, False)],
)
def test_bh_elements_are_affine_in_the_key(m, h, sampled):
    # b_i = const XOR the basis entries at the set bits of i's key, and
    # the key packs the odd powers below h (i + 1 at h = 1).  A batch of
    # any size gives each position its own key, from lanes of one int:
    # kept for every position at set-up when m <= 4096, the
    # position-table cap, else computed per call, 72-bit keys at (2^18, 8)
    seq = bh_sequence(m, h)
    spec, w = ff_make(seq.width), seq.width
    rng = random.Random(m + h)
    positions = [0] + (rng.sample(range(1, m), 200) if sampled else list(range(1, m)))
    want = {}
    for i in positions:
        odd = sum(spec.pow(i, o) << (k * w) for k, o in enumerate(range(1, h, 2)))
        want[i] = i + 1 if h == 1 else odd
    keys = dict(zip(positions, seq.keys(positions)))
    assert keys == want
    for i, value in zip(positions, seq.element_values(positions)):
        expect = seq.const
        for k, c in enumerate(seq.basis):
            if keys[i] >> k & 1:
                expect ^= c
        assert value == expect, i
    for size in (0, 1, 4, 300):
        batch = [0] + rng.choices(positions, k=size - 1) if size else []
        assert seq.keys(batch) == [want[i] for i in batch], size
        assert seq.element_values(batch) == [seq.element_values((i,))[0] for i in batch], size


def test_constructors_reject_arguments_out_of_range():
    # BCH length and radius, Reed-Solomon distance, B_h length and
    # order, and a B_h index, each checked before any work
    for n, e in ((2, 1), (7, 0)):
        with pytest.raises(ValueError, match="need n >= 3 and e >= 1"):
            bch_build(n, e)
    for d in (0, 16):
        with pytest.raises(ValueError, match="need 1 <= d <= length"):
            rs_code(ff_make(4), 15, d)
    for m, h in ((0, 2), (16, 0)):
        with pytest.raises(ValueError, match="need m >= 1 and h >= 1"):
            bh_sequence(m, h)
    seq = bh_sequence(16, 2)
    for i in (-1, 16):
        with pytest.raises(IndexError):
            seq.element_values((i,))
    for m, h in ((16, 2), (1 << 12, 4), (1 << 18, 4)):  # no key, tables, lanes
        for bad in ([0, m], [-1, 0]):
            with pytest.raises(IndexError, match="B_h index out of range"):
                bh_sequence(m, h).element_values(bad)


def test_code_reprs():
    assert repr(bch_build(15, 2)) == "BchCode(n=15, e=2)"
    assert repr(rs_code(ff_make(4), 15, 3)) == "RsCode(GF(2^4), n=15, d=3)"
