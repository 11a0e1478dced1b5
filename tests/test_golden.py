"""Golden vectors: field moduli, parameter fingerprints, serialized
digests and decoded differences at four fixed configurations.

The values were recorded from the implementation before the decoders
were merged onto one shared locator step; a refactor of the codes or
the decoders must leave every one of them unchanged.  Digests and
differences are pinned by SHA-256 over fixed seeded instances.
"""

import hashlib

import pytest

from thlrecon.oracle import gen_instance
from thlrecon.params import params_build
from thlrecon.protocol import decode_digests, encode_digest, serialize_digest

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
        "comp": p.comp_field,
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
