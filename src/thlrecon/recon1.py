"""Single-cluster reconciliation: digests and decoding for set pairs
whose symmetric difference is one cluster of at most h strings,
pairwise within Hamming distance ell.

Encoding (per host) is one pass over the set, and the digest is the
pair (w1, w2).  Each element x has a position j = M(x), its syndrome
under the distance-(2*ell+1) code C_l, and a tail Hbar * x in
GF(2^(n-r)): H_l reduces to [I_r | P] (:class:`codes.BchCode`), so
Hbar, the unit rows completing it, is [0 | I] and the tail is x >> r.

1. w1 = syndrome, under a distance-(2h+1) binary code over the 2^r
   positions, of the multiset of positions (duplicates cancel mod 2).
2. w2 = sum over elements of b_j * tail, where b is a B_h sequence
   over the position space, reduced once.  b_j packs the powers
   j^0 .. j^(h-1) in GF(2^r), and is F_2-affine in its key, the packed
   odd powers of j (:class:`codes.BhSequence`): b_j = c0 XOR the basis
   entries C_m at the key's set bits.  All keys come from one
   :meth:`~codes.BhSequence.keys` call, which reads a table kept at
   set-up (under the position-table cap) or computes them together in
   lanes of one int.  The sum is gathered by buckets, as Pippenger's
   method gathers a multi-exponentiation (SIAM J. Comput., 1980): each
   tail is XORed into one of 16 buckets per nibble of its key, and at
   the end each bucket is multiplied, by the shifts of a few set bits,
   by the XOR of the C_m its nibble selects (and c0 at the lowest
   nibble, which every key has).  No product per element.

Both parts are linear in the set, so xoring the two hosts' digests
gives the digest of the difference (:func:`protocol.decode_digests`).
:func:`decode1` recovers its positions from w1, peels cluster offsets
with the C_l decoder, and divides by the B_h subset sum to recover the
anchor element exactly (the sum it divides is again folded once).
"""

from __future__ import annotations

from .bits import BitVector
from .errors import DecodingError, InconsistentDigests
from .gf2 import poly_mul
from .maps_t import map_E, map_M
from .params import Digest, Params


def encode1(params: Params, S) -> Digest:
    bh, r, terms = params.bh, params.r, params.bh.nibble_terms
    positions, tails = [], []
    for x in S:
        positions.append(map_M(params, x))
        tails.append(x.value >> r)  # Hbar x
    buckets, starts = [0] * len(terms), range(0, len(terms), 16)
    for k, y in zip(bh.keys(positions), tails):
        for i in starts:  # one bucket per key nibble, zero ones too
            buckets[i | k & 15] ^= y
            k >>= 4
    w2 = 0
    for y, shifts in zip(buckets, terms):
        if y:
            for e in shifts:
                w2 ^= y << e
    return Digest((
        params.comp.syndrome_from_positions(positions),
        params.digest_field.reduce(w2),
    ))


def decode1(params: Params, d: Digest) -> tuple:
    """Candidate blocks for the digest sum d: () for an empty support,
    else the one cluster; :class:`InconsistentDigests` if a step fails."""
    w1, w2 = d
    try:
        support = params.comp.decode_positions(w1)
    except DecodingError as exc:
        raise InconsistentDigests("position recovery failed") from exc
    if not support:
        return ()

    k1 = support[0]
    offsets = [0]  # anchor's offset to itself
    values = params.bh.element_values(support)
    denom = values[0]
    for ki, b in zip(support[1:], values[1:]):
        try:
            e = map_E(params, k1, ki)
        except DecodingError as exc:
            raise InconsistentDigests("cluster offset undecodable") from exc
        offsets.append(e.value)
        w2 ^= poly_mul(b, e.value >> params.r)
        denom ^= b
    if denom == 0:
        raise InconsistentDigests("zero B_h subset sum")
    s2 = params.digest_field.div(params.digest_field.reduce(w2), denom)

    anchor = params.hf_inv.mul_vec(k1 | (s2 << params.r))
    block = tuple(BitVector(anchor ^ e, params.n) for e in offsets)
    return (block,)
