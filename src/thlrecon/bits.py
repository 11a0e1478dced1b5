"""Fixed-length binary strings and Hamming-metric helpers.

A :class:`BitVector` is an element of F_2^n.  Positions are 1-based in
documentation (position ``p`` is stored in bit ``p - 1`` of ``value``),
matching the usual [n] index convention.  A :class:`Positions` selection
finds its runs of consecutive positions once, when it is built, and
:func:`project` and :func:`place` move its bits one shift-and-mask per run.
"""

from __future__ import annotations

from dataclasses import dataclass

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True, slots=True, repr=False)
class BitVector:
    """An immutable length-``n`` binary string backed by an int."""

    value: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("length must be positive")
        if self.value < 0 or self.value >> self.n:
            raise ValueError("value does not fit in %d bits" % self.n)

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
        if not _HEX_DIGITS.issuperset(s):
            raise ValueError("expected hex digits, got %r" % s)
        raw = int(s, 16)
        value = int(format(raw, f"0{8 * nbytes}b")[::-1], 2)
        if value >> n:
            raise ValueError("nonzero pad bits")
        return cls(value, n)


def hamming(x: BitVector, y: BitVector) -> int:
    """Hamming distance between equal-length vectors."""
    if x.n != y.n:
        raise ValueError("length mismatch")
    return (x.value ^ y.value).bit_count()


class Positions(tuple):
    """A selection of 1-based positions, such as I or Ibar, that
    compares and hashes as the tuple of its positions.
    ``runs`` holds (shift in x, shift in the packed int, mask) per run
    of entries that name consecutive positions, in order."""

    def __new__(cls, positions=()):
        self = super().__new__(cls, positions)
        runs = []  # [first position, its index in the selection, length]
        for i, p in enumerate(self):
            if runs and p == runs[-1][0] + runs[-1][2]:
                runs[-1][2] += 1
            else:
                runs.append([p, i, 1])
        self.runs = tuple((p - 1, i, (1 << k) - 1) for p, i, k in runs)
        return self


def project(x: BitVector, positions: Positions) -> int:
    """Pack the bits of ``x`` at the given positions into an int, first
    position in bit 0: one shift-and-mask per run."""
    v = 0
    x = x.value
    for src, dst, mask in positions.runs:
        v |= ((x >> src) & mask) << dst
    return v


def place(n: int, positions: Positions, packed: int) -> BitVector:
    """Inverse of :func:`project`: scatter ``packed`` over
    ``positions``, one run at a time."""
    v = 0
    for src, dst, mask in positions.runs:
        v |= ((packed >> dst) & mask) << src
    return BitVector(v, n)
