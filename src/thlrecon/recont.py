"""Multi-cluster reconciliation: digests and decoding for set pairs
whose symmetric difference forms up to t clusters of at most h strings,
pairwise within Hamming distance ell, constant and mutually distinct on
the agreed index set I.

Encoding (per host):

1. z1[j] = xor of f(x_I) over elements x with position M(x) = j;
   w1 = Reed-Solomon syndromes of z1 over the stage-1 symbol field.
2. z2^(k)[j] = xor of f(x_I)^(2^k) * embed(x_Ibar) over the same
   elements, in GF(2^nbar); w2 is the t x t grid with entry (row, k) =
   sum_j gamma_j^(2^row) * z2^(k)[j].

Decoding xors the digests, recovers the per-position f-value sums
(stage 1), decomposes each into block signatures, collapses every
non-center position onto its block center (the known offsets cancel
out of the grid), solves a Moore system over GF(2^nbar) for the center
Ibar-parts, and reassembles the blocks.  Both digest parts are linear
in the set, so the blocks are the difference exactly when they meet
the promise and re-encode to the xor (:func:`params.accept`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitVector, place, project
from .errors import DecodingError, InconsistentDigests
from .maps_t import f_inverse, f_sum_decompose, gamma, map_E, map_M, map_f
from .params import Params, accept


@dataclass(frozen=True)
class DigestT:
    """Transmitted sketch for the t>1 scheme.

    ``w1``: tuple of 2th stage-1 syndrome symbols (ints).
    ``w2``: t x t grid of GF(2^nbar) ints; w2[row][k] combines the
    gamma row ``row`` with the Frobenius power ``k`` of f-values.
    """

    w1: tuple
    w2: tuple

    def __xor__(self, other: "DigestT") -> "DigestT":
        w1 = tuple(a ^ b for a, b in zip(self.w1, other.w1))
        w2 = tuple(
            tuple(a ^ b for a, b in zip(ra, rb)) for ra, rb in zip(self.w2, other.w2)
        )
        return DigestT(w1, w2)


def _add_column(params: Params, grid, j: int, z):
    """grid[row][k] ^= gamma_j^(2^row) * z[k] over GF(2^nbar)."""
    spec = params.nbar_field
    g = gamma(params, j)
    for row in grid:
        for k, v in enumerate(z):
            if v:
                row[k] ^= spec.mul(g, v)
        g = spec.sqr(g)


def encode_t(params: Params, S) -> DigestT:
    if params.t < 2:
        raise ValueError("encode_t requires a t>1 configuration")
    spec = params.nbar_field
    t = params.t
    # Stage per position first: one grid column per occupied position
    # costs less than one per element.
    z1 = {}
    z2 = {}  # position -> [f^(2^k) * embed(x_Ibar) summed, k < t]
    for x in S:
        j = map_M(params, x)
        fx = map_f(params, project(x, params.I))
        z1[j] = z1.get(j, 0) ^ fx
        xibar = project(x, params.ibar)
        col = z2.setdefault(j, [0] * t)
        for k in range(t):  # fx is embedded into GF(2^nbar) by zero-padding
            col[k] ^= spec.mul(fx, xibar)
            fx = spec.sqr(fx)
    grid = [[0] * t for _ in range(t)]
    for j, col in z2.items():
        _add_column(params, grid, j, col)
    return DigestT(params.comp_rs.syndrome_sparse(z1), tuple(tuple(r) for r in grid))


def decode_t(params: Params, dA: DigestT, dB: DigestT):
    """Exact symmetric difference from the two hosts' digests.

    Raises :class:`InconsistentDigests` when the digests do not
    describe a valid multi-cluster instance.
    """
    d = dA ^ dB
    return accept(params, _decode_blocks(params, d), d, encode_t)


def _decode_blocks(params: Params, d: DigestT):
    """Candidate blocks (tuples of elements) for the digest sum d."""
    spec = params.nbar_field
    t = params.t

    # step 1: per-position f-value sums of the difference
    try:
        zdot = params.comp_rs.decode(d.w1)
    except DecodingError as exc:
        raise InconsistentDigests("stage-1 recovery failed") from exc

    # step 2: decompose each position's sum into block signatures
    try:
        decomposed = {
            i: f_sum_decompose(params, zdot[i], t) for i in sorted(zdot)
        }
    except DecodingError as exc:
        raise InconsistentDigests("f-value decomposition failed") from exc

    # steps 3-5: center-collapse, cancelling known offsets from the grid
    grid = [list(row) for row in d.w2]
    members = {}  # sigma -> [(position, offset)], center first
    for i in sorted(decomposed):
        for sigma in decomposed[i]:
            block = members.setdefault(sigma, [])
            if not block:
                block.append((i, BitVector(0, params.n)))
                continue
            try:
                e = map_E(params, block[0][0], i)
            except DecodingError as exc:
                raise InconsistentDigests("offset recovery failed") from exc
            block.append((i, e))
            ebar = project(e, params.ibar)
            if ebar:
                z = [spec.mul(spec.frob(sigma, k), ebar) for k in range(t)]
                _add_column(params, grid, i, z)

    sigmas = sorted(members)
    gsums = {}
    for sigma in sigmas:
        g = 0
        for i, _ in members[sigma]:
            g ^= gamma(params, i)
        gsums[sigma] = g

    # step 6: solve for the center Ibar-parts
    cbars = _solve_centers(params, sigmas, gsums, grid)

    # steps 7-8: reassemble the blocks
    blocks = []
    for sigma in sigmas:
        try:
            xI = f_inverse(params, sigma)
        except DecodingError as exc:
            raise InconsistentDigests("block signature not in image") from exc
        center = place(params.n, params.I, xI, params.ibar, cbars[sigma])
        blocks.append(tuple(center ^ e for _, e in members[sigma]))
    return tuple(blocks)


def _solve_centers(params: Params, sigmas, gsums, grid):
    """Recover each block center's Ibar-part from the collapsed grid.

    Row 0 of the grid is a Moore system in the signatures over
    GF(2^nbar), with unknowns gamma-sum times center.  On a valid
    instance it is nonsingular, since any <= 2t distinct f-values are
    F_2-linearly independent, and every gamma sum is nonzero, since a
    block's <= h <= 2s' gamma columns are independent too.  More than
    t signatures give more unknowns than rows, which the solve rejects.
    The other rows need no check here: :func:`params.accept`
    re-encodes the whole digest.
    """
    spec = params.nbar_field
    rows = [[spec.frob(s, k) for s in sigmas] for k in range(params.t)]
    sol = _field_solve(spec, rows, list(grid[0]), len(sigmas))
    if sol is None or not all(gsums[s] for s in sigmas):
        raise InconsistentDigests("center recovery failed")
    return {s: spec.div(d, gsums[s]) for s, d in zip(sigmas, sol)}


def _field_solve(spec, rows, rhs, ncols):
    """Gaussian elimination over an extension field; returns the unique
    solution or None when the system is singular/inconsistent."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    nrows = len(aug)
    piv = 0
    for col in range(ncols):
        sel = next((i for i in range(piv, nrows) if aug[i][col]), None)
        if sel is None:
            return None
        aug[piv], aug[sel] = aug[sel], aug[piv]
        inv = spec.inv(aug[piv][col])
        aug[piv] = [spec.mul(inv, v) for v in aug[piv]]
        for i in range(nrows):
            if i != piv and aug[i][col]:
                c = aug[i][col]
                aug[i] = [a ^ spec.mul(c, b) for a, b in zip(aug[i], aug[piv])]
        piv += 1
    for i in range(piv, nrows):
        if aug[i][ncols]:
            return None
    return [aug[i][ncols] for i in range(ncols)]


def digestT_cost_bits(params: Params) -> int:
    """Exact serialized digest size: 2th stage-1 symbols plus the
    t x t grid of nbar-bit entries."""
    return (
        params.comp_rs.redundancy * params.comp_field.degree
        + params.t * params.t * params.nbar
    )
