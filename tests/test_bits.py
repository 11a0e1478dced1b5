import random

import pytest

from reference import from_bits, greedy_completion, place_bits, project_bits
from thlrecon.bits import BitVector, Positions, hamming, place, project
from thlrecon.params import params_build


def test_from_bits_roundtrip():
    x = from_bits([1, 0, 1, 1, 1])
    assert x.n == 5
    assert x.bin() == "10111"
    assert x.value == 0b11101  # position p in bit p - 1


def test_hamming_example():
    x = from_bits([1, 0, 1, 1, 1])
    y = from_bits([1, 1, 0, 0, 1])
    assert hamming(x, y) == 3
    assert hamming(x, x) == 0


def test_repr_shows_positions_in_order():
    assert repr(from_bits([1, 0, 1, 1, 1])) == "BitVector('10111')"


def test_length_mismatch():
    with pytest.raises(ValueError):
        hamming(BitVector(0, 4), BitVector(0, 5))
    with pytest.raises(ValueError):
        BitVector(0, 4) ^ BitVector(0, 5)


def test_immutable():
    x = BitVector(3, 4)
    with pytest.raises(AttributeError):
        x.value = 5
    with pytest.raises(AttributeError):
        del x.value
    assert x.value == 3


@pytest.mark.parametrize("value, n", [(0, 0), (-1, 4), (1 << 4, 4)])
def test_rejects_a_value_outside_its_length(value, n):
    with pytest.raises(ValueError):
        BitVector(value, n)


def test_equality_and_hash_follow_value_and_length():
    x, y = BitVector(5, 4), BitVector(5, 4)
    assert x == y and hash(x) == hash(y)
    assert x != BitVector(5, 5)


def test_hex_roundtrip():
    # position 1 is the high bit of the first byte
    x = from_bits([1, 0, 0, 0, 0])
    assert x.hex() == "80"
    y = from_bits([1, 0, 1, 1, 1])
    assert BitVector.from_hex(y.hex(), 5) == y
    z = from_bits([0, 0, 0, 0, 0, 0, 0, 0, 1])  # position 9
    assert z.hex() == "0080"
    assert BitVector.from_hex(z.hex(), 9) == z


def test_hex_width_and_pad_validation():
    with pytest.raises(ValueError):
        BitVector.from_hex("8", 5)  # wrong digit count
    with pytest.raises(ValueError):
        BitVector.from_hex("01", 5)  # pad bits (positions 6-8) nonzero


def test_project_and_place_inverse():
    x = from_bits([1, 1, 0, 1, 0, 1])
    I = Positions((2, 5, 6))
    ibar = Positions((1, 3, 4))
    pI = project(x, I)
    pbar = project(x, ibar)
    assert pI == 0b101  # positions 2,5,6 = 1,0,1 -> bits 0,1,2
    assert place(6, I, pI) ^ place(6, ibar, pbar) == x


def _check_selections(n, selections, rng):
    selections = [Positions(sel) for sel in selections]
    for _ in range(20):
        x = BitVector(rng.getrandbits(n), n)
        for sel in selections:
            assert project(x, sel) == project_bits(x, sel), sel
            # bits of a packed value past len(sel) are ignored
            a = rng.getrandbits(len(sel) + 3)
            assert place(n, sel, a) == place_bits(n, sel, a), sel
        for sel, other in zip(selections, selections[1:]):
            # selections may overlap, so the placements join by OR
            a, b = rng.getrandbits(len(sel)), rng.getrandbits(len(other))
            joined = place(n, sel, a).value | place(n, other, b).value
            assert joined == place_bits(n, sel, a, other, b).value


GOLDEN_POINTS = [
    (63, 1, 4, 2), (127, 1, 2, 1), (511, 1, 4, 2), (63, 2, 2, 1), (127, 3, 2, 1)
]


@pytest.mark.parametrize("point", GOLDEN_POINTS)
def test_project_place_match_per_bit_at_golden_points(point):
    p = params_build(*point)
    sel = p.tail if p.t == 1 else p.I
    rest = tuple(q for q in range(1, p.n + 1) if q not in sel)
    if p.t > 1:
        assert rest == p.ibar
    _check_selections(p.n, [sel, rest], random.Random(point[0] + point[1]))


def test_project_place_match_per_bit_on_odd_lists():
    rng = random.Random(3)
    n = 70
    sels = [
        (3, 4, 5, 9, 10, 40, 41, 42, 43, 64, 65),  # several runs
        (2, 5, 8, 11, 14),  # no two consecutive
        (10, 9, 8, 30, 31, 1),  # unsorted, runs only where ascending
        [66, 67, 68, 69, 70],  # a list, ending at position n
        (70,),
        (1, 2, 3, 4, 5, 6, 7),
        (),
    ]
    _check_selections(n, sels, rng)
    for k in (1, 5, 30, 69):
        sel = tuple(rng.sample(range(1, n + 1), k))
        _check_selections(n, [sel, tuple(sorted(sel))], rng)


def test_place_inverts_project_on_a_partition():
    rng = random.Random(4)
    n = 100
    I = Positions(sorted(rng.sample(range(1, n + 1), 12)))
    ibar = Positions(q for q in range(1, n + 1) if q not in I)
    for _ in range(50):
        x = BitVector(rng.getrandbits(n), n)
        assert place(n, I, project(x, I)) ^ place(n, ibar, project(x, ibar)) == x


def _runs_per_bit(sel):
    """Positions.runs one entry at a time: a run grows while each
    position follows the one before it."""
    runs = []
    for i, p in enumerate(sel):
        if i and p == sel[i - 1] + 1:
            src, dst, mask = runs[-1]
            runs[-1] = (src, dst, mask << 1 | 1)
        else:
            runs.append((p - 1, i, 1))
    return tuple(runs)


@pytest.mark.parametrize("point", GOLDEN_POINTS)
def test_params_selections_are_positions(point):
    # the plain tuples params_build made before selections carried
    # their runs: the default I (empty at t=1), Ibar its complement and
    # the t=1 tail, the unit rows of H_l's completion
    p = params_build(*point)
    plain = {"I": tuple(range(1, (p.n - 1).bit_length() + 1)) if p.t > 1 else ()}
    if p.t > 1:
        plain["ibar"] = tuple(q for q in range(1, p.n + 1) if q not in plain["I"])
    else:
        h_bar = greedy_completion(p.cl.parity)
        plain["tail"] = tuple(row.bit_length() for row in h_bar.row_data)
    for name, want in plain.items():
        sel = getattr(p, name)
        assert type(sel) is Positions, name
        assert sel == want and hash(sel) == hash(want), name
        assert sel.runs == _runs_per_bit(want), name
