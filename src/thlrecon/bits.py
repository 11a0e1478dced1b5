"""Fixed-length binary strings and Hamming-metric helpers.

A :class:`BitVector` is an element of F_2^n.  Positions are 1-based in
documentation (position ``p`` is stored in bit ``p - 1`` of ``value``),
matching the usual [n] index convention.
"""

from __future__ import annotations


class BitVector:
    """An immutable length-``n`` binary string backed by an int."""

    __slots__ = ("value", "n")

    def __init__(self, value: int, n: int):
        if n <= 0:
            raise ValueError("length must be positive")
        if value < 0 or value >> n:
            raise ValueError("value does not fit in %d bits" % n)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "n", n)

    def __setattr__(self, *_):
        raise AttributeError("BitVector is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BitVector)
            and self.value == other.value
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.value, self.n))

    def __repr__(self):
        return f"BitVector({self.bin()!r})"

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.value ^ other.value, self.n)

    def bin(self) -> str:
        """Bits as a string, position 1 first."""
        return format(self.value, f"0{self.n}b")[::-1]

    def hex(self) -> str:
        """Hex form used by set files: big-endian nibbles, the high bit
        of the first byte is position 1, padded to whole bytes."""
        nbytes = (self.n + 7) // 8
        rev = int(format(self.value, f"0{8 * nbytes}b")[::-1], 2)
        return format(rev, f"0{2 * nbytes}x")

    @classmethod
    def from_hex(cls, s: str, n: int) -> "BitVector":
        nbytes = (n + 7) // 8
        if len(s) != 2 * nbytes:
            raise ValueError(
                "expected %d hex digits for n=%d, got %d" % (2 * nbytes, n, len(s))
            )
        raw = int(s, 16)
        value = int(format(raw, f"0{8 * nbytes}b")[::-1], 2)
        if value >> n:
            raise ValueError("nonzero pad bits")
        return cls(value, n)


def weight(x: BitVector) -> int:
    """Hamming weight."""
    return x.value.bit_count()


def hamming(x: BitVector, y: BitVector) -> int:
    """Hamming distance between equal-length vectors."""
    if x.n != y.n:
        raise ValueError("length mismatch")
    return (x.value ^ y.value).bit_count()


def project(x: BitVector, positions) -> int:
    """Pack the bits of ``x`` at the given sorted 1-based positions into
    an int, first position in bit 0."""
    v = 0
    for i, p in enumerate(positions):
        if (x.value >> (p - 1)) & 1:
            v |= 1 << i
    return v


def place(n: int, positions, packed: int, other_positions=(), other_packed: int = 0) -> BitVector:
    """Inverse of :func:`project`: scatter ``packed`` over ``positions``
    and ``other_packed`` over ``other_positions``."""
    v = 0
    for i, p in enumerate(positions):
        if (packed >> i) & 1:
            v |= 1 << (p - 1)
    for i, p in enumerate(other_positions):
        if (other_packed >> i) & 1:
            v |= 1 << (p - 1)
    return BitVector(v, n)
