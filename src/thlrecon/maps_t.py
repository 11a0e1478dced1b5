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
  (odd-power packing by ``codes.odd_powers``, the binary BCH
  designed-distance argument).
* ``f_lanes``: an I-projection's f-value and the comb table of its t
  Frobenius powers as lanes of one int (``pack_lanes``,
  ``unpack_lanes``: lane k at bit k * 3nbar); under the table cap of
  :mod:`codes`, with 2^|I| <= N, ``params_build`` tabulates them for
  every I-projection.
* ``f_sum_decompose``: inverts an xor of up to t distinct f-values
  (power-sum decoding).
* ``gamma``: a position's column over GF(2^nbar) and its squares, one
  per grid row; any <= 2*s' columns are F_2-linearly independent (the
  same packer).  Under the table cap of :mod:`codes`, set-up tabulates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .bits import BitVector
from .codes import berlekamp_massey, find_roots, odd_powers, power_sums
from .errors import DecodingError
from .gf2 import comb_table

if TYPE_CHECKING:  # params_build builds its tables through f_lanes
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
    return odd_powers(params.beta_field, xI | (1 << m), params.t)


def f_sum_decompose(params: Params, zeta: int):
    """The unique set of T <= t distinct valid f-values xoring to
    ``zeta`` (power-sum decoding over the beta field).

    Raises :class:`DecodingError` when none exists; in particular
    zeta = 0 is undecodable (empty sums are handled upstream).
    """
    if zeta == 0:
        raise DecodingError("undecodable")
    m, t, spec = len(params.I), params.t, params.beta_field
    roots = find_roots(spec, berlekamp_massey(spec, power_sums(spec, zeta, t), t))
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


def pack_lanes(params: Params, values) -> int:
    """values[k] in lane k, at bit k * 3nbar.  A lane of a sum of
    products of at most three factors below 2^nbar has no carries, so
    it stays below 2^(3nbar) and never reaches the next lane."""
    acc = 0
    for k, v in enumerate(values):
        acc ^= v << (3 * params.nbar * k)
    return acc


def unpack_lanes(params: Params, packed: int) -> tuple:
    """The t lanes of ``packed``, each reduced into GF(2^nbar)."""
    w = 3 * params.nbar
    lanes = ((packed >> (k * w)) & ((1 << w) - 1) for k in range(params.t))
    return tuple(map(params.nbar_field.reduce, lanes))


def f_lanes(params: Params, xI: int) -> tuple:
    """(f, comb_table(F)) for f = map_f(xI) and F its Frobenius powers
    f^(2^k), k < t, in GF(2^nbar), packed as lanes: entry xI of
    ``params.f_lane_table`` when it is built, else computed."""
    table = params.f_lane_table
    if table is not None and 0 <= xI < len(table):
        return table[xI]
    f = map_f(params, xI)  # raises for xI outside |I| bits
    lanes = pack_lanes(params, [params.nbar_field.frob(f, k) for k in range(params.t)])
    return f, comb_table(lanes)


def gamma(params: Params, j: int) -> tuple:
    """Position j's t grid rows g^(2^row) over GF(2^nbar), g the packed
    odd powers (delta, delta^3, ..., delta^(2s'-1)) of delta = j with a
    forced leading bit in GF(2^(r+1)): ``params.gamma_powers[j]`` if built."""
    if not 0 <= j < params.N:
        raise IndexError("position index out of range")
    if params.gamma_powers is not None:
        return params.gamma_powers[j]
    g = odd_powers(params.delta_field, j | (1 << params.r), params.s_prime)
    return tuple(params.nbar_field.frob(g, k) for k in range(params.t))
