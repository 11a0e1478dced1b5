"""Print informational timings of thlrecon at one (n,t,h,ell) point.

    python3 tools/timings.py setup|memory|encode|decode N,T,H,ELL

* ``setup``: the wall time of ``params_build``.
* ``memory``: tracemalloc's peak over ``params_build``, which tracing
  slows, so it is not taken with the time.
* ``encode``: the best of 20 in-process ``encode_digest`` calls on one
  seeded 300-element set, on a 10-element set (the t1-limit host-set
  size) and on a 4-element set (the size that ``params.accept``
  re-encodes), so an encoder's fixed cost shows.
* ``decode``: the best of 20 ``decode_digests`` calls on one seeded
  instance's two digests; at t > 1, the best of 20 stage-1
  ``comp_rs.decode`` calls on that instance's syndromes, by the lane
  scan under the position-table cap and by ``find_roots`` and ``dlog``
  above it; and the slowest of 100 ``decode_digests`` calls on seeded
  random digests, most of which the decoder rejects.

Set-up builds process-wide field caches, so ``setup`` and ``memory``
each need a fresh process per point.  One line per figure, in the order
above, ready for a CI step summary.
"""

import random
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from thlrecon import (  # noqa: E402
    BitVector, Digest, InconsistentDigests, decode_digests, gen_instance, params_build,
)
from thlrecon.params import digest_layout  # noqa: E402
from thlrecon.protocol import encode_digest  # noqa: E402


def best(call) -> float:
    """The least of 20 single calls, in seconds."""
    return min(timeit.repeat(call, number=1, repeat=20))


def setup(point, name):
    start = time.perf_counter()
    params_build(*point)
    print(f"params_build{point}: {(time.perf_counter() - start) * 1e3:.1f} ms")


def memory(point, name):
    tracemalloc.start()
    params_build(*point)
    print(f"params_build{point}: {tracemalloc.get_traced_memory()[1] / 1e6:.2f} MB peak traced")


def encode(point, name):
    p = params_build(*point)
    rng = random.Random(1)
    S = [BitVector(rng.getrandbits(p.n), p.n) for _ in range(300)]
    for k in (300, 10, 4):
        part = set(S[:k])
        ms = best(lambda: encode_digest(p, part)) * 1e3
        print(f"encode_digest({name}), {k} elements: {ms:.3f} ms")


def decode(point, name):
    p = params_build(*point)
    SA, SB, delta = gen_instance(p, 1, 300)
    dA, dB = encode_digest(p, SA), encode_digest(p, SB)
    ms = best(lambda: decode_digests(p, dA, dB)) * 1e3
    print(f"decode_digests({name}), {len(delta)}-element difference: {ms:.2f} ms")
    if p.t > 1:
        s1 = (dA ^ dB)[: p.comp_rs.redundancy]
        ms = best(lambda: p.comp_rs.decode(s1)) * 1e3
        how = "lane scan" if p.comp_rs.locator_lanes is not None else "find_roots and dlog"
        print(f"comp_rs.decode({name}), stage-1 syndromes by {how}: {ms:.3f} ms")
    widths = [w for section in digest_layout(p) for w in section]
    rng, worst, rejected = random.Random(1), 0.0, 0
    for _ in range(100):
        dA, dB = (Digest(rng.getrandbits(w) for w in widths) for _ in "AB")
        start = time.perf_counter()
        try:
            decode_digests(p, dA, dB)
        except InconsistentDigests:
            rejected += 1
        worst = max(worst, time.perf_counter() - start)
    print(
        f"decode_digests({name}), slowest of 100 random digests ({rejected} rejected): "
        f"{worst * 1e3:.2f} ms"
    )


STEPS = {"setup": setup, "memory": memory, "encode": encode, "decode": decode}


def main(argv):
    if len(argv) != 3 or argv[1] not in STEPS:
        sys.exit(__doc__.split("\n\n")[1])
    STEPS[argv[1]](tuple(map(int, argv[2].split(","))), argv[2])


if __name__ == "__main__":
    main(sys.argv)
