"""Workload definitions and the benchmark's own instance generator.

Instances are built from plain ints with ``random.Random(seed)`` and set
operations, independently of ``thlrecon.oracle``.  Every difference sits
exactly at the promise limit: ``t`` blocks of exactly ``h`` elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    t: int
    h: int
    ell: int
    shared: int  # elements both hosts hold
    instances: int  # instances per round; each gives two host sessions
    toy_shared: int  # sizes for the self-test
    toy_instances: int


WORKLOADS = {
    w.name: w
    for w in (
        # Long comp code (r=18); encode of several hundred elements dominates.
        Workload("t1-bulk", 511, 1, 4, 2, shared=300, instances=8,
                 toy_shared=6, toy_instances=1),
        # N=4096, dense Chien path; decode dominates.
        Workload("t1-limit", 63, 1, 4, 2, shared=8, instances=32,
                 toy_shared=4, toy_instances=2),
        # The only t>1 path: GF(2^120) encode, GF(2^24) RS decode.
        Workload("tT-limit", 127, 3, 2, 1, shared=200, instances=64,
                 toy_shared=4, toy_instances=2),
    )
}


@dataclass(frozen=True)
class Instance:
    """One planted reconciliation: host sets as ints, and the blocks."""

    set_a: frozenset
    set_b: frozenset
    blocks: tuple  # tuple of tuples of ints

    @property
    def delta(self) -> frozenset:
        return self.set_a ^ self.set_b


def _mask(positions) -> int:
    """Int mask of 1-based coordinate positions."""
    m = 0
    for p in positions:
        m |= 1 << (p - 1)
    return m


def make_instance(rng: random.Random, w: Workload, index_set, shared: int) -> Instance:
    """t blocks of h elements, each block spread over ell free
    coordinates (outside I when t > 1) around a random center, blocks
    with distinct I-projections, split at random between the hosts."""
    n = w.n
    imask = _mask(index_set)
    free = [p for p in range(1, n + 1) if not imask >> (p - 1) & 1]
    blocks, projections = [], set()
    while len(blocks) < w.t:
        center = rng.getrandbits(n)
        if center & imask in projections:
            continue
        support = rng.sample(free, w.ell)
        offsets = rng.sample(range(1 << w.ell), w.h)
        block = tuple(
            center ^ _mask(p for k, p in enumerate(support) if o >> k & 1)
            for o in offsets
        )
        projections.add(center & imask)
        blocks.append(block)
    delta = {x for b in blocks for x in b}
    common = set()
    while len(common) < shared:
        y = rng.getrandbits(n)
        if y not in delta:
            common.add(y)
    side_a = {x for x in delta if rng.getrandbits(1)}
    inst = Instance(
        frozenset(common | side_a), frozenset(common | (delta - side_a)), tuple(blocks)
    )
    check_promise(inst, w, index_set)
    return inst


def check_promise(inst: Instance, w: Workload, index_set):
    """Raise ValueError unless the planted blocks are the symmetric
    difference and meet the (t, h, ell, I) promise at its limit."""
    imask = _mask(index_set)
    elems = [x for b in inst.blocks for x in b]
    if len(set(elems)) != len(elems) or set(elems) != inst.delta:
        raise ValueError("blocks are not the symmetric difference")
    if len(inst.blocks) != w.t or any(len(b) != w.h for b in inst.blocks):
        raise ValueError("difference is not t blocks of h elements")
    for b in inst.blocks:
        for i, x in enumerate(b):
            for y in b[:i]:
                if bin(x ^ y).count("1") > w.ell:
                    raise ValueError("block wider than ell")
        if w.t > 1 and len({x & imask for x in b}) != 1:
            raise ValueError("block not constant on I")
    if w.t > 1 and len({b[0] & imask for b in inst.blocks}) != w.t:
        raise ValueError("blocks share an I-projection")
