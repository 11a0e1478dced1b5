"""Multi-cluster reconciliation: digests and decoding for set pairs
whose symmetric difference forms up to t clusters of at most h strings,
pairwise within Hamming distance ell, constant and mutually distinct on
the agreed index set I.

Encoding (per host):

1. z1[j] = xor of f(x_I) over elements x with position M(x) = j;
   w1 = Reed-Solomon syndromes of z1 over the stage-1 symbol field.
2. z2^(k)[j] = xor of f(x_I)^(2^k) * embed(x_Ibar) over the same
   elements, in GF(2^nbar); w2 is the t x t grid with entry (row, k) =
   sum_j gamma_j^(2^row) * z2^(k)[j].  The digest is w1's 2th symbols
   followed by the grid, row by row.

x_I and x_Ibar are run gathers: :func:`bits.project` reads the runs
that ``params.I`` and ``params.ibar`` found when built.  A column's t
Frobenius powers travel as lanes of one int (:func:`maps_t.pack_lanes`,
lane k at bit k * 3nbar): one carry-less product of x_Ibar with an
element's packed f-powers adds its z2 column, and one of
gamma_j^(2^row) with a column adds it to grid row ``row``; a column's t
row products share one comb table.  Products stay unreduced: a lane
sums products of at most three factors below 2^nbar, so with no
carries it stays below 2^(3nbar) and never reaches the next lane.  Each
lane of each row is folded once at the end, which gives the grid of
reduced products.  Under the table cap of :mod:`codes`, the rows of
:func:`maps_t.gamma`, syndromes and, when 2^|I| <= N, each
I-projection's :func:`maps_t.f_lanes` come from set-up.

:func:`decode_t` takes the xor of the two hosts' digests, recovers the
per-position f-value sums (stage 1), decomposes each into block
signatures, collapses every non-center position onto its block center
(the known offsets cancel out of the grid's row 0), solves a Moore
system over GF(2^nbar) for the center Ibar-parts, and reassembles the
blocks.  Both digest parts are linear in the set, so the blocks are the
difference exactly when they meet the promise and re-encode to the xor
(:func:`protocol.decode_digests` ends with :func:`params.accept`).
"""

from __future__ import annotations

from .bits import BitVector, place, project
from .codes import first_dependency
from .errors import DecodingError, InconsistentDigests
from .gf2 import comb_mul, comb_table
from .maps_t import (
    f_lanes, f_sum_decompose, gamma, map_E, map_M, pack_lanes, unpack_lanes,
)
from .params import Digest, Params


def _add_column(params: Params, grid, j: int, z: int):
    """grid[row] ^= gamma_j^(2^row) * z for packed lanes z (the t
    Frobenius powers of one grid column), the products left unreduced;
    each row of :func:`maps_t.gamma` is reduced, so every lane stays
    below 2^(3nbar).  The rows share z's comb table."""
    comb = comb_table(z)
    for r, g in zip(range(len(grid)), gamma(params, j)):
        grid[r] ^= comb_mul(g, comb)


def encode_t(params: Params, S) -> Digest:
    # Stage per position first: one grid column per occupied position
    # costs less than one per element.
    z1 = {}
    z2 = {}  # position -> packed f^(2^k) * embed(x_Ibar) summed, unreduced
    for x in S:
        j = map_M(params, x)
        fx, comb = f_lanes(params, project(x, params.I))
        z1[j] = z1.get(j, 0) ^ fx
        z2[j] = z2.get(j, 0) ^ comb_mul(project(x, params.ibar), comb)
    grid = [0] * params.t
    for j, col in z2.items():
        _add_column(params, grid, j, col)
    w1 = params.comp_rs.syndrome_sparse(z1)
    return Digest(w1 + sum((unpack_lanes(params, row) for row in grid), ()))


def decode_t(params: Params, d: Digest) -> tuple:
    """Candidate blocks (tuples of elements) for the digest sum d.
    Raises :class:`InconsistentDigests` when a step fails."""
    n, t, u = params.n, params.t, params.comp_rs.redundancy
    # a signature sigma = map_f(x_I) holds x_I itself in its lowest |I| bits
    xI_mask = (1 << len(params.I)) - 1

    # step 1: per-position f-value sums of the difference
    try:
        zdot = params.comp_rs.decode(d[:u])
    except DecodingError as exc:
        raise InconsistentDigests("stage-1 recovery failed") from exc

    # step 2: decompose each position's sum into block signatures
    try:
        decomposed = {i: f_sum_decompose(params, zdot[i]) for i in sorted(zdot)}
    except DecodingError as exc:
        raise InconsistentDigests("f-value decomposition failed") from exc

    # steps 3-5: center-collapse, cancelling known offsets from the
    # grid's row 0, the only row the center solve reads
    row0 = [pack_lanes(params, d[u:u + t])]
    members = {}  # sigma -> [(position, offset)], center first
    gsums = {}  # sigma -> sum of its members' gamma columns
    for i in sorted(decomposed):
        for sigma in decomposed[i]:
            gsums[sigma] = gsums.get(sigma, 0) ^ gamma(params, i)[0]
            block = members.setdefault(sigma, [])
            if not block:
                block.append((i, BitVector(0, n)))
                continue
            try:
                e = map_E(params, block[0][0], i)
            except DecodingError as exc:
                raise InconsistentDigests("offset recovery failed") from exc
            block.append((i, e))
            ebar = project(e, params.ibar)
            if ebar:
                comb = f_lanes(params, sigma & xI_mask)[1]
                _add_column(params, row0, i, comb_mul(ebar, comb))

    sigmas = sorted(members)
    # step 6: solve for the center Ibar-parts
    cbars = _solve_centers(params, sigmas, gsums, unpack_lanes(params, row0[0]))

    # steps 7-8: reassemble the blocks
    blocks = []
    for sigma in sigmas:
        # I and Ibar are disjoint, so XOR joins the two placements
        center = place(n, params.I, sigma & xI_mask)
        center ^= place(n, params.ibar, cbars[sigma])
        blocks.append(tuple(center ^ e for _, e in members[sigma]))
    return tuple(blocks)


def _solve_centers(params: Params, sigmas, gsums, row0):
    """Recover each block center's Ibar-part from the collapsed grid's
    row 0.

    Row 0 is a Moore system over GF(2^nbar) in the signature columns,
    each scaled by its gamma sum (one :func:`comb_mul` over its f lanes'
    comb table), with the centers as unknowns: row 0's dependency on the
    columns (:func:`codes.first_dependency`).  On a valid instance they
    are independent, as any <= 2t distinct f-values are F_2-linearly,
    and no gamma sum is zero, as a block's <= h <= 2s' gamma columns are
    independent; a zero sum gives a dependent zero column, and more than
    t signatures are dependent.  The other rows need no check here:
    :func:`params.accept` re-encodes the whole digest.
    """
    combs = (f_lanes(params, s & ((1 << len(params.I)) - 1))[1] for s in sigmas)
    cols = [unpack_lanes(params, comb_mul(gsums[s], c)) for s, c in zip(sigmas, combs)]
    dep = first_dependency(params.nbar_field, cols + [row0])
    if dep is None or dep[0] < len(sigmas):
        raise InconsistentDigests("center recovery failed")
    return dict(zip(sigmas, dep[1]))
