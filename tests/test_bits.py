import pytest

from reference import from_bits
from thlrecon.bits import BitVector, hamming, place, project, weight


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


def test_weight():
    assert weight(BitVector(0, 5)) == 0
    assert weight(from_bits([1, 0, 1, 1, 1])) == 4


def test_length_mismatch():
    with pytest.raises(ValueError):
        hamming(BitVector(0, 4), BitVector(0, 5))
    with pytest.raises(ValueError):
        BitVector(0, 4) ^ BitVector(0, 5)


def test_immutable():
    x = BitVector(3, 4)
    with pytest.raises(AttributeError):
        x.value = 5


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
    I = (2, 5, 6)
    ibar = (1, 3, 4)
    pI = project(x, I)
    pbar = project(x, ibar)
    assert pI == 0b101  # positions 2,5,6 = 1,0,1 -> bits 0,1,2
    assert place(6, I, pI, ibar, pbar) == x
