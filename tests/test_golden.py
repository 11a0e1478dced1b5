"""Golden vectors: field moduli, parameter fingerprints, serialized
digests and decoded differences at five fixed configurations.

The first four were recorded from the implementation before the
decoders were merged onto one shared locator step, and (511, 1, 4, 2)
before the completion became one row reduction; it pins H_bar above
n = 127.  A refactor of the codes, the decoders or the set-up must
leave every one of them unchanged.  Digests and differences are pinned
by SHA-256 over fixed seeded instances.
"""

import hashlib
import random

import pytest

from thlrecon.bits import BitVector
from thlrecon.errors import ThlreconError
from thlrecon.oracle import gen_instance
from thlrecon.params import params_build
from thlrecon.protocol import (
    decode_digests,
    encode_digest,
    parse_digest,
    serialize_digest,
)

SEEDS = range(4)
COMMON = 12

GOLDEN = {
    (63, 1, 4, 2): {
        "moduli": {"cl": 0x43, "digest": 0x800000000004B, "comp": 0x201B},
        "fingerprint": "0996f9ea4833f0e10d5c0142e7c6adee729dfe431cb54896181736a01d1c43b0",
        "digests": "4a1c8398d7a89a72f594700f460a69a44a9da2b50e722dcba7cf6db759fc790a",
        "deltas": "8fa086f09195eaaeff248d17c853ac8d4fbbf3b972c698d8464417eb70a88ada",
    },
    (127, 1, 2, 1): {
        "moduli": {
            "cl": 0x83,
            "digest": 0x100000000000000000000000000001B,
            "comp": 0x11B,
        },
        "fingerprint": "f459fe42bb00ba666384495b34e54fb85942f26239df5bf048825843c0a8cd0f",
        "digests": "e25cd45015a71dfbc284b076b372c851e3753cf83471a6d5ac9aa6d69c8c4d5d",
        "deltas": "4a3e576d55f9fc7ba4a5df338a6f62d7310724e51a0bfc351643806bc66f5384",
    },
    (511, 1, 4, 2): {
        "moduli": {"cl": 0x203, "digest": (1 << 493) | 0x24F, "comp": 0x80027},
        "fingerprint": "b9b6c8ec8f4bb6c3b3989c8b8f8372902be6aa051b905125c501d1027474bbce",
        "digests": "77c34d75664a6ba092a36f32279ffd179cef1ea7a236f4a69432ffc1d9a55926",
        "deltas": "2a2bfec56c86a4831221251b5d7aad5fc50439db117fc67378108fbf604972a3",
    },
    (63, 2, 2, 1): {
        "moduli": {
            "cl": 0x43,
            "beta": 0x83,
            "comp": 0x4021,
            "nbar": 0x200000000000011,
            "delta": 0x83,
        },
        "fingerprint": "b58697a7f6c8e1d8c7579a01141d7e121b08776c2d4b66f5b18feb6705afae14",
        "digests": "581f7989275584bfaa1ccfb35cccdf791aae9f9217e71c732cbecd947b68f959",
        "deltas": "d40260a493d9d3efe6b6f1056f5715cac005cd39ddfca62dea775fde2b8f5369",
    },
    (127, 3, 2, 1): {
        "moduli": {
            "cl": 0x83,
            "beta": 0x11B,
            "comp": 0x100001B,
            "nbar": 0x100000000000000000000000000001B,
            "delta": 0x11B,
        },
        "fingerprint": "d09f9410c8b9a367808906982c28d9bda5ccd994a6ae24bd6a3ca04cfa5dfa15",
        "digests": "56fd2d82c438e3c9334d8570cdb52e2111a89d9d25a8d0811a393c9f220f8059",
        "deltas": "9a01868cb036d25e91599b733017ca3e253ba298d1c5e85f2986064888a19c8c",
    },
}


def _fields(p):
    if p.t == 1:
        return {"cl": p.cl.field, "digest": p.digest_field, "comp": p.comp.field}
    return {
        "cl": p.cl.field,
        "beta": p.beta_field,
        "comp": p.comp_rs.field,
        "nbar": p.nbar_field,
        "delta": p.delta_field,
    }


@pytest.mark.parametrize("point", sorted(GOLDEN))
def test_golden_vectors(point):
    want = GOLDEN[point]
    p = params_build(*point)
    assert {k: f.modulus for k, f in _fields(p).items()} == want["moduli"]
    assert p.fingerprint.hex() == want["fingerprint"]
    digests = hashlib.sha256()
    deltas = hashlib.sha256()
    for seed in SEEDS:
        SA, SB, delta = gen_instance(p, seed, COMMON)
        dA, dB = encode_digest(p, SA), encode_digest(p, SB)
        digests.update(serialize_digest(p, dA) + serialize_digest(p, dB))
        got = decode_digests(p, dA, dB)
        assert got == delta
        hexes = ",".join(x.hex() for x in sorted(got, key=lambda v: v.value))
        deltas.update(hexes.encode() + b"|")
    assert digests.hexdigest() == want["digests"]
    assert deltas.hexdigest() == want["deltas"]


# Rejections are pinned too: the outcome (decoded set, or exception
# class and text) of seeded inputs that break the promise and of valid
# digests with one to three bits flipped on the wire, at the four points
# above that predate (511, 1, 4, 2).  Recorded with the root finder that
# isolated the linear part by a gcd with x^(2^m) - x.
REJECTIONS = {
    (63, 1, 4, 2): "190a7b70e8a7a6a08d858590fd8480ad6d6a860caa0cf0fbae730cf8aa728be5",
    (127, 1, 2, 1): "e070895621f9e624e2e6fc3125f039f2602bbedca04aef0596fc0ebb6ad762a0",
    (63, 2, 2, 1): "754227e3a23d3363554112cb49eaafdf803d8e06cfdcbf8dacebe51299a9b574",
    (127, 3, 2, 1): "6fa2d02101ee1379c153ee40440505782b22ea8c255571e44e565cf3a764bf10",
}
REJECTION_SEEDS = range(40)


def _outcome(p, d_local, peer_bytes):
    try:
        got = decode_digests(p, d_local, parse_digest(p, peer_bytes))
    except ThlreconError as exc:
        return f"{type(exc).__name__}: {exc}"
    return ",".join(sorted(x.hex() for x in got))


def _promise_violation(p, rng):
    """t+1 .. t*h+1 random elements split between two hosts that share
    COMMON random ones: more clusters than the promise allows."""
    common = {BitVector(rng.getrandbits(p.n), p.n) for _ in range(COMMON)}
    extra = {BitVector(rng.getrandbits(p.n), p.n) for _ in range(p.t * p.h + 1)}
    extra = sorted(extra - common, key=lambda v: v.value)
    extra = extra[: rng.randint(p.t + 1, len(extra))]
    SA = {x for x in extra if rng.getrandbits(1)}
    return common | SA, common | (set(extra) - SA)


@pytest.mark.parametrize("point", sorted(REJECTIONS))
def test_golden_rejections(point):
    p = params_build(*point)
    outcomes = hashlib.sha256()
    for seed in REJECTION_SEEDS:
        rng = random.Random(seed)
        SA, SB = _promise_violation(p, rng)
        peer = serialize_digest(p, encode_digest(p, SB))
        outcomes.update(_outcome(p, encode_digest(p, SA), peer).encode() + b"|")
        SA, SB, _ = gen_instance(p, seed, COMMON)
        peer = serialize_digest(p, encode_digest(p, SB))
        flipped = int.from_bytes(peer, "little")
        for b in rng.sample(range(8 * len(peer)), rng.randint(1, 3)):
            flipped ^= 1 << b
        peer = flipped.to_bytes(len(peer), "little")
        outcomes.update(_outcome(p, encode_digest(p, SA), peer).encode() + b"|")
    assert outcomes.hexdigest() == REJECTIONS[point]
