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
Ibar-parts, and reassembles the difference, re-validating everything
before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitVector, hamming, place, project
from .errors import DecodingError, InconsistentDigests
from .maps_t import f_inverse, f_sum_decompose, gamma, map_E, map_M, map_f
from .params import Params


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


@dataclass(frozen=True)
class Block:
    center: BitVector
    offsets: tuple  # BitVector offsets (zero first, one per element)
    sigma: int  # f-value signature of the block
    center_position: int


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple

    def elements(self):
        out = []
        for b in self.blocks:
            for e in b.offsets:
                out.append(b.center ^ e)
        return out


def encode_t(params: Params, S) -> DigestT:
    if params.t < 2:
        raise ValueError("encode_t requires a t>1 configuration")
    spec = params.nbar_field
    t = params.t
    z1 = {}
    z2 = [dict() for _ in range(t)]
    for x in S:
        j = map_M(params, x)
        fx = map_f(params, project(x, params.I))
        z1[j] = z1.get(j, 0) ^ fx
        xibar = project(x, params.ibar)
        fk = fx  # embedded into GF(2^nbar) by zero-padding
        for k in range(t):
            z2[k][j] = z2[k].get(j, 0) ^ spec.mul(fk, xibar)
            fk = spec.sqr(fk)
    w1 = params.comp_rs.syndrome_sparse({j: v for j, v in z1.items() if v})
    grid = [[0] * t for _ in range(t)]
    for j in set().union(*[zk.keys() for zk in z2]) if any(z2) else ():
        g = gamma(params, j)
        for row in range(t):
            for k in range(t):
                v = z2[k].get(j, 0)
                if v:
                    grid[row][k] ^= spec.mul(g, v)
            g = spec.sqr(g)
    return DigestT(tuple(w1), tuple(tuple(r) for r in grid))


def decode_t(params: Params, dA: DigestT, dB: DigestT):
    """Exact symmetric difference from the two hosts' digests.

    Raises :class:`InconsistentDigests` when the digests do not
    describe a valid multi-cluster instance.
    """
    decomp = _decode_blocks(params, dA, dB)
    delta = decomp.elements()
    _revalidate(params, decomp, delta, dA ^ dB)
    return frozenset(delta)


def _decode_blocks(params: Params, dA: DigestT, dB: DigestT) -> BlockDecomposition:
    spec = params.nbar_field
    t = params.t
    d = dA ^ dB

    # step 1: per-position f-value sums of the difference
    try:
        zdot = params.comp_rs.decode(d.w1)
    except DecodingError as exc:
        raise InconsistentDigests("stage-1 recovery failed") from exc
    if not zdot:
        if any(any(row) for row in d.w2):
            raise InconsistentDigests("empty stage 1 with nonzero grid")
        return BlockDecomposition(())

    # step 2: decompose each position's sum into block signatures
    try:
        decomposed = {
            i: f_sum_decompose(params, zdot[i], t) for i in sorted(zdot)
        }
    except DecodingError as exc:
        raise InconsistentDigests("f-value decomposition failed") from exc

    # steps 3-5: center-collapse, cancelling known offsets from the grid
    grid = [list(row) for row in d.w2]
    centers = {}  # sigma -> center position
    members = {}  # sigma -> [(position, offset BitVector)]
    for i in sorted(decomposed):
        for sigma in decomposed[i]:
            if sigma not in centers:
                centers[sigma] = i
                members[sigma] = [(i, None)]
                continue
            p = centers[sigma]
            try:
                e = map_E(params, p, i)
            except DecodingError as exc:
                raise InconsistentDigests("offset recovery failed") from exc
            members[sigma].append((i, e))
            ebar = project(e, params.ibar)
            if ebar:
                gi = gamma(params, i)
                for row in range(t):
                    sk = spec.mul(gi, ebar)
                    for k in range(t):
                        grid[row][k] ^= spec.mul(spec.frob(sigma, k), sk)
                    gi = spec.sqr(gi)

    sigmas = sorted(centers)
    if len(sigmas) > t:
        raise InconsistentDigests("more blocks than t")
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
        offsets = tuple(
            BitVector(0, params.n) if e is None else e for _, e in members[sigma]
        )
        blocks.append(Block(center, offsets, sigma, centers[sigma]))
    return BlockDecomposition(tuple(blocks))


def _solve_centers(params: Params, sigmas, gsums, grid):
    """Recover each block center's Ibar-part from the collapsed grid.

    Row 0 of the grid is a Moore system in the signatures over
    GF(2^nbar), with unknowns gamma-sum times center.  On a valid
    instance it is nonsingular, since any <= 2t distinct f-values are
    F_2-linearly independent, and every gamma sum is nonzero, since a
    block's <= h <= 2s' gamma columns are independent too.  The other
    rows need no check here: :func:`_revalidate` re-encodes the whole
    digest.
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


def _revalidate(params: Params, decomp: BlockDecomposition, delta, dsum: DigestT):
    if len(decomp.blocks) > params.t:
        raise InconsistentDigests("more blocks than t")
    if len(set(delta)) != len(delta):
        raise InconsistentDigests("reconstructed difference has repeats")
    proj_seen = set()
    for b in decomp.blocks:
        elems = [b.center ^ e for e in b.offsets]
        if len(elems) > params.h:
            raise InconsistentDigests("block larger than h")
        for i, x in enumerate(elems):
            for y in elems[:i]:
                if hamming(x, y) > params.ell:
                    raise InconsistentDigests("cluster distance bound violated")
        pI = project(b.center, params.I)
        if pI in proj_seen:
            raise InconsistentDigests("blocks share an I-projection")
        proj_seen.add(pI)
        for e in b.offsets:
            if project(e, params.I):
                raise InconsistentDigests("offset not constant on I")
    if delta:
        if encode_t(params, delta) != dsum:
            raise InconsistentDigests("digest re-encoding mismatch")


def digestT_cost_bits(params: Params) -> int:
    """Exact serialized digest size: 2th stage-1 symbols plus the
    t x t grid of nbar-bit entries."""
    return (
        params.comp_rs.redundancy * params.comp_field.degree
        + params.t * params.t * params.nbar
    )
