#!/usr/bin/env python3
"""thlrecon benchmark: one host's reconciliation session over loopback TCP.

Run from the root of a checkout:

    python3 thlbench/run.py --workload t1-limit --seed 1 --seconds 25 --trace 0

The timed unit is one host's ``protocol.session_run`` over a real
``TcpTransport``: connect and accept, HELLO and fingerprint check,
encode and serialize the host's digest, DIGEST, parse and decode.  The
peer's two frames are built beforehand with the library's own encoder
and written into the connection before the session clock starts, so no
timed call waits on another thread or process; the whole load runs in
this one process, one session at a time (a closed loop of one client).

Every session's output is checked: the returned difference must be the
planted one, and the bytes the host sent must be a HELLO frame carrying
the SHA-256 of the canonical parameter text followed by a DIGEST frame
byte-identical to the payload its peer was given.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the library's public functions are wrapped to record spans and the
metrics are per-layer self times and call counts.
"""

import time

# Set-up is timed from here, before any other import.
_T_START = time.perf_counter()

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import socket
import statistics
import struct
import subprocess
import sys
from pathlib import Path

from spans import Tracer
from speed import Speed
from workloads import WORKLOADS, make_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Timed sessions per run at least: 100 leave ten samples beyond p90.
MIN_SESSIONS = 100
# Set-ups per untraced run (this process plus fresh child processes);
# setup_s is their median.
SETUP_RUNS = 3
TOY_SETUP_RUNS = 2
# Speed-kernel runs after each set-up, for its scale (see speed.py).
SETUP_KERNEL_RUNS = 15

MAGIC, VERSION, MSG_HELLO, MSG_DIGEST = b"THLR", 1, 1, 2
HEADER = 10  # magic(4) + version(1) + type(1) + length(4)


def import_library():
    """Import thlrecon from this checkout's src/, and from nowhere else."""
    pkg = SRC / "thlrecon"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"thlbench: no thlrecon sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import thlrecon

    if Path(thlrecon.__file__).resolve().parent != pkg:
        raise SystemExit(f"thlbench: imported thlrecon from {thlrecon.__file__}")
    return thlrecon


@dataclasses.dataclass(frozen=True)
class Prepared:
    """An instance ready to run: each host's set, the frames each host
    sends (built by the library), and the difference to expect."""

    sets: tuple  # (host A set, host B set) as BitVector frozensets
    payloads: tuple  # serialized DIGEST payload of each host
    frames: tuple  # HELLO + DIGEST bytes of each host
    delta: frozenset  # planted difference as BitVectors


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    times_ns: list = dataclasses.field(default_factory=list)  # sessions that passed
    passed: list = dataclasses.field(default_factory=list)  # their attempt numbers
    kernel_ns: list = dataclasses.field(default_factory=list)  # one per attempt
    wire_bytes: list = dataclasses.field(default_factory=list)
    light: set = dataclasses.field(default_factory=set)  # attempts in light rounds

    def scaled_ms(self) -> list:
        """Session times in ms at the reference speed (see speed.py),
        each scaled by the kernel runs just before and just after it and
        one before those."""
        k = self.kernel_ns
        return [t / 1e6 * Speed.scale(k[max(0, j - 1): j + 2])
                for t, j in zip(self.times_ns, self.passed)]


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _recv_exact(sock, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed")
        buf.extend(chunk)
    return bytes(buf)


class Bench:
    """Runs host sessions against a loopback listener in this process."""

    def __init__(self, lib, params, tracer=None):
        self.lib = lib
        self.params = params
        self.tracer = tracer
        self.fingerprint = hashlib.sha256(
            params.canonical_text().encode("ascii")
        ).digest()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.addr = self.listener.getsockname()
        self.session_id = 0
        if tracer is not None:
            self.connect = tracer.wrap("bench.connect", self.connect)

    def connect(self):
        """A client socket connected to the listener, and its peer."""
        client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        client.connect(self.addr)
        server, _ = self.listener.accept()
        return client, server

    def close(self):
        self.listener.close()

    def prepare(self, inst) -> Prepared:
        """Encode both hosts' digests with the library, check that the
        digest of the planted difference is their XOR, build frames."""
        proto, n = self.lib.protocol, self.params.n
        bv = self.lib.BitVector

        def payload(S):
            return proto.serialize_digest(self.params, proto.encode_digest(self.params, S))

        sets = tuple(frozenset(bv(x, n) for x in S) for S in (inst.set_a, inst.set_b))
        delta = frozenset(bv(x, n) for x in inst.delta)
        payloads = tuple(payload(S) for S in sets)
        xor = bytes(a ^ b for a, b in zip(*payloads))
        if payload(delta) != xor:
            raise ValueError("digest of the difference is not the XOR of the hosts' digests")
        frames = tuple(
            proto.encode_frame(proto.MSG_HELLO, self.params.fingerprint)
            + proto.encode_frame(proto.MSG_DIGEST, p)
            for p in payloads
        )
        return Prepared(sets, payloads, frames, delta)

    def session(self, prep: Prepared, side: int, tally: Tally):
        """One timed host session for host ``side`` (0 = A, 1 = B)."""
        clock = time.perf_counter_ns
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_session(self.session_id)
        self.session_id += 1
        tally.attempted += 1
        t0 = clock()
        client, server = self.connect()
        t1 = clock()
        try:
            server.sendall(prep.frames[1 - side])
            transport = self.lib.TcpTransport(client)
            t2 = clock()
            try:
                got, stats = self.lib.session_run(transport, self.params, prep.sets[side])
            except self.lib.ThlreconError:
                tally.failed += 1
                return
            t3 = clock()
            wire = self._check_sent(server, prep.payloads[side])
            if got != prep.delta or wire is None or wire != stats.bytes_sent:
                tally.failed += 1
                tally.correct = False
                return
            tally.times_ns.append((t1 - t0) + (t3 - t2))
            tally.passed.append(tally.attempted - 1)
            tally.wire_bytes.append(wire)
        finally:
            # Reset instead of FIN, so thousands of sessions leave no TIME_WAIT.
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
            server.close()

    def _check_sent(self, server, payload: bytes):
        """Bytes the host sent, if they are exactly HELLO(fingerprint)
        then DIGEST(payload); None otherwise."""
        server.settimeout(5.0)
        total = 0
        try:
            for msg_type, body in ((MSG_HELLO, self.fingerprint), (MSG_DIGEST, payload)):
                head = MAGIC + bytes((VERSION, msg_type)) + len(body).to_bytes(4, "big")
                if _recv_exact(server, HEADER) != head or _recv_exact(server, len(body)) != body:
                    return None
                total += HEADER + len(body)
            server.setblocking(False)
            extra = server.recv(1)
        except BlockingIOError:  # nothing beyond the two frames
            return total
        except OSError:  # fewer bytes than the two frames
            return None
        return None if extra else total


def measure(bench: Bench, preps, seconds: float, min_sessions: int) -> Tally:
    """Whole rounds over ``preps``, both hosts of each, until at least
    ``seconds`` have passed and ``min_sessions`` sessions ran.  The
    speed kernel runs before every session.  A traced run alternates
    "session" and "light" rounds, at least one of each (see spans.py),
    and measures the wrappers' cost again before every session, so
    that its correction follows the machine's speed."""
    tracer = bench.tracer
    speed = Speed()
    tally = Tally()
    start = time.perf_counter()
    rounds = 0
    while True:
        light = rounds % 2 == 1
        if tracer is not None:
            tracer.set_phase("light" if light else "session")
        for prep in preps:
            for side in (0, 1):
                tally.kernel_ns.append(speed.sample_ns())
                if tracer is not None:
                    tracer.calibrate()
                    if light:
                        tally.light.add(tally.attempted)
                bench.session(prep, side, tally)
        rounds += 1
        if (time.perf_counter() - start >= seconds and tally.attempted >= min_sessions
                and (tracer is None or rounds >= 2)):
            return tally


def set_up(args, tracer=None):
    """Import, params_build and one warm-up session.  Returns the state
    and the raw and scaled set-up seconds, counted from the start of
    this process minus the benchmark's own work: generating the warm-up
    instance and preparing its frames (the encodes of both hosts' sets
    and of the difference).  No encode state is lazy (params_build
    builds the field tables), so that subtraction hides no first-use
    cost.  The speed kernel runs after set-up, for the scale."""
    lib = import_library()
    if tracer is not None:
        tracer.install(lib)
        tracer.set_phase("setup")
    w = WORKLOADS[args.workload]
    params = lib.params_build(w.n, w.t, w.h, w.ell)
    if tracer is not None:
        tracer.set_phase(None)
    g0 = time.perf_counter()
    rng = random.Random(f"{args.seed}/warm-up")
    inst = make_instance(rng, w, params.I, w.toy_shared if args.toy else w.shared)
    bench = Bench(lib, params, tracer)
    prep = bench.prepare(inst)
    harness_s = time.perf_counter() - g0
    if tracer is not None:
        tracer.set_phase("setup")
    warm = Tally()
    bench.session(prep, 0, warm)
    if warm.failed:
        raise SystemExit("thlbench: warm-up session failed")
    setup_s = time.perf_counter() - _T_START - harness_s
    if tracer is not None:
        tracer.set_phase(None)
    bench.session_id = 0
    speed = Speed()
    scale = speed.scale([speed.sample_ns() for _ in range(SETUP_KERNEL_RUNS)])
    return bench, (setup_s, setup_s * scale)


def setup_probe(args):
    """(raw, scaled) set-up seconds measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"] + (["--toy"] if args.toy else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(tally: Tally, setups) -> dict:
    """End-to-end metrics; times are at the reference speed."""
    ms = tally.scaled_ms()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "session_ms.p50": (statistics.median(ms), "ms"),
        "session_ms.p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "sessions_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "wire_bytes_per_session": (statistics.fmean(tally.wire_bytes), "B"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="self-test size")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up once, print it and exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    tracer = Tracer() if args.trace else None
    bench, setup_s = set_up(args, tracer)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        w = WORKLOADS[args.workload]
        rng = random.Random(args.seed)
        shared = w.toy_shared if args.toy else w.shared
        count = w.toy_instances if args.toy else w.instances
        preps = [bench.prepare(make_instance(rng, w, bench.params.I, shared))
                 for _ in range(count)]
        gc.collect()  # garbage from preparing instances is not the sessions' cost
        tally = measure(bench, preps, args.seconds, 0 if args.toy else MIN_SESSIONS)
        if tracer is not None:
            tracer.set_phase(None)
    finally:
        bench.close()
    if not tally.times_ns:
        raise SystemExit("thlbench: every session failed")

    if tracer is None:
        runs = TOY_SETUP_RUNS if args.toy else SETUP_RUNS
        setups = [setup_s] + [setup_probe(args) for _ in range(runs - 1)]
        metrics = end_to_end(tally, setups)
    else:
        setups = [setup_s]
        metrics = tracer.metrics()
    ms = [t / 1e6 for t in tally.times_ns]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "python": platform.python_version(),
        "cpus": os.cpu_count(), "git_sha": git_sha(),
        "attempted": tally.attempted, "failed": tally.failed,
        "sessions_per_round": 2 * len(preps),
        "setup_s.raw_and_scaled": setups,
        "kernel_ms.median": statistics.median(tally.kernel_ns) / 1e6,
        "session_ms.raw.p50": statistics.median(ms),
        "session_ms.raw.mean": statistics.fmean(ms),
    }
    if tracer is not None:
        info["wrapper_ns.inside_outside_count"] = (
            tracer.inside_ns, tracer.outside_ns, tracer.count_ns)
        for kind, in_light in (("session", False), ("light", True)):
            info[f"session_ms.raw.mean.{kind}"] = statistics.fmean(
                t for t, j in zip(ms, tally.passed) if (j in tally.light) == in_light)
    print(json.dumps({"info": info}))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}" + (".toy" if args.toy else "")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"info": info, "metrics": metrics, "session_ms.raw": ms,
                    "session_ms.scaled": tally.scaled_ms()}) + "\n"
    )
    if tracer is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "session", "name", "start_ns", "end_ns"), span
                ))) + "\n")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
