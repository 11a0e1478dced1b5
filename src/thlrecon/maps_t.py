"""Support maps for the reconciliation schemes.

* ``map_M``: position index of an element (its C_l syndrome value);
  distinct elements within Hamming distance ell never collide.  Both
  schemes place elements by it.
* ``map_E``: recovers x1 xor x2 from two position indices when the
  elements are within distance ell (bounded-distance C_l decoding);
  both decoders peel cluster offsets with it.

The rest serve the multi-cluster scheme:

* ``map_f``: injective map from I-projections into GF(Q) whose values
  have the property that any 1..2t distinct values xor to nonzero
  (odd-power packing, the binary BCH designed-distance argument).
* ``f_sum_decompose``: inverts an xor of up to t distinct f-values
  (power-sum decoding).
* ``gamma``: per-position columns over GF(2^nbar), any <= 2*s' of
  which are F_2-linearly independent (same odd-power construction).
"""

from __future__ import annotations

from .bits import BitVector
from .codes import locate, power_sums
from .errors import DecodingError
from .params import Params


def map_M(params: Params, x: BitVector) -> int:
    if x.n != params.n:
        raise ValueError("element length does not match params")
    return params.cl.syndrome_bits(x.value)


def map_E(params: Params, i: int, j: int) -> BitVector:
    """The unique weight <= ell pattern e with M(x) xor M(x+e) = i xor j.

    Raises :class:`DecodingError` when no such pattern exists.
    """
    if i == j:
        raise ValueError("map_E requires distinct position indices")
    positions = params.cl.decode_positions(i ^ j)
    v = 0
    for p in positions:
        v |= 1 << p
    return BitVector(v, params.n)


def map_f(params: Params, xI: int) -> int:
    """Packed (beta, beta^3, ..., beta^(2t-1)) with beta = xI plus a
    forced leading 1 bit in GF(2^(|I|+1))."""
    m = len(params.I)
    if xI < 0 or xI >> m:
        raise ValueError("I-projection wider than |I| bits")
    spec = params.beta_field
    beta = xI | (1 << m)
    bsq = spec.sqr(beta)
    packed = beta
    p = beta
    for k in range(1, params.t):
        p = spec.mul(p, bsq)  # next odd power
        packed |= p << (k * (m + 1))
    return packed


def f_inverse(params: Params, v: int) -> int:
    """I-projection whose f-value is v; DecodingError if not in the image."""
    m = len(params.I)
    beta = v & ((1 << (m + 1)) - 1)
    if not (beta >> m) & 1:
        raise DecodingError("not in image")
    xI = beta & ((1 << m) - 1)
    if map_f(params, xI) != v:
        raise DecodingError("not in image")
    return xI


def f_sum_decompose(params: Params, zeta: int, tmax: int):
    """The unique set of T <= tmax distinct valid f-values xoring to
    ``zeta`` (power-sum decoding over the beta field).

    Raises :class:`DecodingError` when none exists; in particular
    zeta = 0 is undecodable (empty sums are handled upstream).
    """
    if not 1 <= tmax <= params.t:
        raise ValueError("tmax outside [1, t]")
    if zeta == 0:
        raise DecodingError("undecodable")
    m = len(params.I)
    spec = params.beta_field
    mask = (1 << (m + 1)) - 1
    odd = [(zeta >> (k * (m + 1))) & mask for k in range(tmax)]
    _, roots = locate(spec, power_sums(spec, odd), tmax)
    values = []
    for root in roots:
        beta = spec.inv(root)
        if not (beta >> m) & 1:
            raise DecodingError("undecodable")
        values.append(map_f(params, beta & ((1 << m) - 1)))
    acc = 0
    for v in values:
        acc ^= v
    if acc != zeta:
        raise DecodingError("undecodable")
    return sorted(values)


def gamma(params: Params, i: int) -> int:
    """Position column over GF(2^nbar): packed odd powers
    (delta, delta^3, ..., delta^(2s'-1)) of delta = i with a forced
    leading bit in GF(2^(r+1))."""
    if not 0 <= i < params.N:
        raise IndexError("position index out of range")
    spec = params.delta_field
    width = params.r + 1
    delta = i | (1 << params.r)
    dsq = spec.sqr(delta)
    packed = delta
    p = delta
    for k in range(1, params.s_prime):
        p = spec.mul(p, dsq)
        packed |= p << (k * width)
    return packed
