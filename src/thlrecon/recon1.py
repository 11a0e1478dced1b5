"""Single-cluster reconciliation: digests and decoding for set pairs
whose symmetric difference is one cluster of at most h strings,
pairwise within Hamming distance ell.

Encoding (per host) is one pass over the set.  Each element x has a
position j = M(x), its syndrome under the distance-(2*ell+1) code C_l,
and a tail Hbar * x in GF(2^(n-r)).

1. w1 = syndrome, under a distance-(2h+1) binary code over the 2^r
   positions, of the multiset of positions (duplicates cancel mod 2).
2. w2 = sum over elements of b_j * tail, where b is a B_h sequence
   over the position space.

Both parts are linear in the set, so xoring the two hosts' digests
gives the digest of the difference.  Decoding recovers the difference's
positions from w1, peels cluster offsets with the C_l decoder, and
divides by the B_h subset sum to recover the anchor element exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitVector
from .errors import DecodingError, InconsistentDigests
from .maps_t import map_E, map_M
from .params import Params, accept


@dataclass(frozen=True)
class Digest1:
    """Transmitted sketch for the t=1 scheme: w1 is a packed u-bit
    syndrome, w2 a GF(2^(n-r)) element (both ints, low bits first)."""

    w1: int
    w2: int

    def __xor__(self, other: "Digest1") -> "Digest1":
        return Digest1(self.w1 ^ other.w1, self.w2 ^ other.w2)


def _w2_term(params: Params, j: int, tail: int) -> int:
    """b_j * tail over GF(2^(n-r))."""
    return params.digest_field.mul(params.bh.element_value(j), tail)


def encode1(params: Params, S) -> Digest1:
    if params.t != 1:
        raise ValueError("encode1 requires a t=1 configuration")
    positions = []
    w2 = 0
    for x in S:
        j = map_M(params, x)
        positions.append(j)
        w2 ^= _w2_term(params, j, params.h_bar.mul_vec(x.value))
    return Digest1(params.comp.syndrome_from_positions(positions), w2)


def decode1(params: Params, dA: Digest1, dB: Digest1):
    """Exact symmetric difference from the two hosts' digests.

    Raises :class:`InconsistentDigests` when the digests do not
    describe a valid single-cluster instance.
    """
    if params.t != 1:
        raise ValueError("decode1 requires a t=1 configuration")
    d = dA ^ dB
    try:
        support = params.comp.decode_positions(d.w1)
    except DecodingError as exc:
        raise InconsistentDigests("position recovery failed") from exc
    if not support:
        return accept(params, (), d, encode1)

    k1 = support[0]
    offsets = [0]  # anchor's offset to itself
    z = d.w2
    denom = params.bh.element_value(k1)
    for ki in support[1:]:
        try:
            e = map_E(params, k1, ki).value
        except DecodingError as exc:
            raise InconsistentDigests("cluster offset undecodable") from exc
        offsets.append(e)
        z ^= _w2_term(params, ki, params.h_bar.mul_vec(e))
        denom ^= params.bh.element_value(ki)
    if denom == 0:
        raise InconsistentDigests("zero B_h subset sum")
    s2 = params.digest_field.div(z, denom)

    anchor = params.hf_inv.mul_vec(k1 | (s2 << params.r))
    block = tuple(BitVector(anchor ^ e, params.n) for e in offsets)
    return accept(params, (block,), d, encode1)


def digest1_cost_bits(params: Params) -> int:
    """Exact serialized digest size: u syndrome bits plus n-r bits."""
    return params.comp.redundancy + (params.n - params.r)
