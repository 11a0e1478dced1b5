"""Brute-force references and the seeded instance generator.

Used by tests and the CLI ``gen``/``verify`` commands only; nothing
here is needed on the reconciliation path.
"""

from __future__ import annotations

import random

from .bits import BitVector, Positions, hamming, project
from .params import Params

# Exhaustive partition search is exponential in the difference size.
_MAX_DELTA = 12


def oracle_symdiff(SA, SB) -> frozenset:
    """Ground-truth symmetric difference by direct set operations."""
    return frozenset(set(SA) ^ set(SB))


def oracle_is_thl(SA, SB, t: int, h: int, ell: int, I=None):
    """Whether the pair's difference splits into <= t blocks of <= h
    elements, pairwise within distance ell (and, when I is given,
    constant on I within blocks and distinct on I across blocks).

    Returns (ok, witness) with witness a tuple of blocks (tuples of
    BitVector) when ok.  Exhaustive search; the difference must have
    at most 12 elements.
    """
    delta = sorted(oracle_symdiff(SA, SB), key=lambda x: x.value)
    if len(delta) > _MAX_DELTA:
        raise ValueError("difference too large for exhaustive search")
    if not delta:
        return True, ()
    I = Positions(I) if I else None

    def compatible(block, x):
        if len(block) >= h:
            return False
        if any(hamming(x, y) > ell for y in block):
            return False
        if I is not None and any(project(x, I) != project(y, I) for y in block):
            return False
        return True

    def place(idx, blocks):
        if idx == len(delta):
            return tuple(tuple(b) for b in blocks)
        x = delta[idx]
        for b in blocks:
            if compatible(b, x):
                b.append(x)
                found = place(idx + 1, blocks)
                b.pop()
                if found is not None:
                    return found
        if len(blocks) < t:
            if I is None or all(
                project(x, I) != project(b[0], I) for b in blocks
            ):
                blocks.append([x])
                found = place(idx + 1, blocks)
                blocks.pop()
                if found is not None:
                    return found
        return None

    witness = place(0, [])
    return (witness is not None), witness


def gen_instance(params: Params, seed: int, common_size: int = 0):
    """Seeded random valid instance: (SA, SB, ground-truth difference).

    Builds <= t blocks (distinct I-projections when t > 1) whose
    offsets share a support of at most ell positions (outside I when
    t > 1), so every pairwise distance is <= ell; splits the difference
    randomly between the two sides and adds shared random elements.
    Raises ValueError at once when common_size leaves no n-bit string
    for the difference, or when 200 attempts find no instance.
    """
    if common_size >= 1 << params.n:
        raise ValueError(f"no {params.n}-bit string left beside {common_size} shared")
    rng = random.Random(seed)
    for _ in range(200):
        out = _try_generate(params, rng, common_size)
        if out is not None:
            SA, SB, delta = out
            ok, _ = oracle_is_thl(
                SA, SB, params.t, params.h, params.ell, params.I or None
            )
            if ok and oracle_symdiff(SA, SB) == delta:
                return SA, SB, delta
    raise ValueError("instance generation retries exhausted")


def _try_generate(params: Params, rng, common_size):
    n, t, h, ell = params.n, params.t, params.h, params.ell
    free_positions = list(params.ibar) if params.t > 1 else list(range(1, n + 1))
    if len(free_positions) < 1:
        return None
    nblocks = rng.randint(1, t)
    max_block = min(h, 1 << min(ell, len(free_positions)))
    blocks = []
    proj_seen = set()
    elements = set()
    for _ in range(nblocks):
        center = BitVector(rng.getrandbits(n), n)
        if params.t > 1:
            pI = project(center, params.I)
            if pI in proj_seen:
                return None
            proj_seen.add(pI)
        support = rng.sample(free_positions, min(ell, len(free_positions)))
        size = rng.randint(1, max_block)
        offsets = {0}
        guard = 0
        while len(offsets) < size:
            guard += 1
            if guard > 100:
                break
            o = 0
            for p in support:
                if rng.getrandbits(1):
                    o |= 1 << (p - 1)
            offsets.add(o)
        block = [center ^ BitVector(o, n) for o in sorted(offsets)]
        if any(x in elements for x in block):
            return None
        elements.update(block)
        blocks.append(block)
    delta = frozenset(elements)

    SA, SB = set(), set()
    for x in delta:
        (SA if rng.getrandbits(1) else SB).add(x)
    if common_size + len(delta) > 1 << n:
        return None
    common = set()
    guard = 0
    while len(common) < common_size:
        guard += 1
        if guard > 50 * (common_size + 1):
            return None
        y = BitVector(rng.getrandbits(n), n)
        if y not in delta:
            common.add(y)
    SA |= common
    SB |= common
    return frozenset(SA), frozenset(SB), delta
