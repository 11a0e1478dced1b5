import queue
import random
import socket
import threading
import time

import pytest

from thlrecon.bits import BitVector
from thlrecon.errors import FrameError, InconsistentDigests, ParamMismatch
from thlrecon.oracle import gen_instance, oracle_symdiff
from thlrecon import protocol
from thlrecon.params import params_build
from thlrecon.protocol import (
    ERROR_ALLOWANCE,
    FRAME_OVERHEAD,
    MAGIC,
    MSG_DIGEST,
    MSG_ERROR,
    MSG_HELLO,
    VERSION,
    MemoryTransport,
    TcpTransport,
    digest_cost_bits,
    encode_digest,
    encode_frame,
    max_payload,
    parse_digest,
    read_set_text,
    serialize_digest,
    session_push,
    session_run,
    session_serve,
    write_set_text,
)
from thlrecon.recon1 import Digest1


@pytest.fixture(scope="module")
def p1():
    return params_build(63, 1, 3, 2)


@pytest.fixture(scope="module")
def pt():
    return params_build(63, 2, 2, 1)


def test_digest_serialization_roundtrip(p1, pt):
    import random

    rng = random.Random(0)
    for params in (p1, pt):
        for seed in range(20):
            SA, _, _ = gen_instance(params, seed, 5)
            d = encode_digest(params, SA)
            data = serialize_digest(params, d)
            assert parse_digest(params, data) == d
            assert len(data) == (digest_cost_bits(params) + 7) // 8 or params.t == 1
    # t=1 layout pads each section separately
    d = encode_digest(p1, [])
    data = serialize_digest(p1, d)
    u, tail = p1.comp.redundancy, p1.n - p1.r
    assert len(data) == (u + 7) // 8 + (tail + 7) // 8


def test_encode_reads_set_once(p1, pt):
    for params in (p1, pt):
        SA, _, _ = gen_instance(params, 8, 10)
        assert encode_digest(params, iter(SA)) == encode_digest(params, SA)


def test_parse_digest_rejects_garbage(p1):
    good = serialize_digest(p1, Digest1(1, 2))
    with pytest.raises(FrameError):
        parse_digest(p1, good[:-1])  # truncated
    with pytest.raises(FrameError):
        parse_digest(p1, good + b"\x00")  # trailing bytes


def test_frame_layout():
    f = encode_frame(0x02, b"abc")
    assert f[:4] == b"THLR"
    assert f[4] == 1 and f[5] == 2
    assert int.from_bytes(f[6:10], "big") == 3
    assert len(f) == FRAME_OVERHEAD + 3


def _run_pair(fn_a, fn_b):
    out = {}

    def run(key, fn):
        try:
            out[key] = fn()
        except Exception as exc:  # noqa: BLE001 - surfaced in asserts
            out[key] = exc

    ta = threading.Thread(target=run, args=("a", fn_a))
    tb = threading.Thread(target=run, args=("b", fn_b))
    ta.start(), tb.start()
    ta.join(10), tb.join(10)
    return out["a"], out["b"]


def test_memory_session(p1):
    SA, SB, delta = gen_instance(p1, 3, 10)
    ea, eb = MemoryTransport.pair()
    ra, rb = _run_pair(
        lambda: session_run(ea, p1, SA), lambda: session_run(eb, p1, SB)
    )
    (da, sa), (db, sb) = ra, rb
    assert da == db == delta
    assert sa.outcome == sb.outcome == "success"
    # two frames each: HELLO (32-byte payload) + DIGEST
    digest_bytes = len(serialize_digest(p1, encode_digest(p1, SA)))
    assert sa.bytes_sent == 2 * FRAME_OVERHEAD + 32 + digest_bytes
    assert sa.bytes_sent == sb.bytes_received


def test_param_mismatch_aborts_before_digest(p1):
    other = params_build(63, 1, 3, 1)
    SA, SB, _ = gen_instance(p1, 4, 0)
    ea, eb = MemoryTransport.pair()
    ra, rb = _run_pair(
        lambda: session_run(ea, p1, SA), lambda: session_run(eb, other, SB)
    )
    assert isinstance(ra, ParamMismatch) and isinstance(rb, ParamMismatch)
    # exactly HELLO + the ERROR reply hit the wire - never a digest
    err_len = len(b"parameter fingerprint mismatch")
    assert ea.bytes_sent == 2 * FRAME_OVERHEAD + 32 + err_len


def test_tcp_equals_memory(p1):
    SA, SB, delta = gen_instance(p1, 5, 10)
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]

    def serve():
        conn, _ = srv.accept()
        t = TcpTransport(conn)
        try:
            return session_run(t, p1, SB)
        finally:
            t.close()

    def connect():
        t = TcpTransport(socket.create_connection(("127.0.0.1", port)))
        try:
            return session_run(t, p1, SA)
        finally:
            t.close()

    ra, rb = _run_pair(connect, serve)
    srv.close()
    (da, sa), (db, sb) = ra, rb
    assert da == db == delta
    # identical wire behavior to the in-memory transport
    ea, eb = MemoryTransport.pair()
    ma, mb = _run_pair(
        lambda: session_run(ea, p1, SA), lambda: session_run(eb, p1, SB)
    )
    assert ma[0] == da and ma[1].bytes_sent == sa.bytes_sent


def test_asymmetric_session(pt):
    SA, SB, delta = gen_instance(pt, 6, 5)
    ea, eb = MemoryTransport.pair()
    ra, rb = _run_pair(
        lambda: session_push(ea, pt, SA), lambda: session_serve(eb, pt, SB)
    )
    assert ra == rb == delta


def test_asymmetric_failed_decode_sends_error(p1):
    # unrelated sets break the promise; the server must answer with an
    # error frame instead of leaving the client to time out
    rng = random.Random(20)
    SA = {BitVector(rng.getrandbits(63), 63) for _ in range(20)}
    SB = {BitVector(rng.getrandbits(63), 63) for _ in range(20)}
    ea, eb = MemoryTransport.pair()
    start = time.monotonic()
    ra, rb = _run_pair(
        lambda: session_push(ea, p1, SA), lambda: session_serve(eb, p1, SB)
    )
    assert time.monotonic() - start < 5
    assert isinstance(rb, InconsistentDigests)
    assert isinstance(ra, InconsistentDigests)


def test_asymmetric_param_mismatch(p1):
    other = params_build(63, 1, 3, 1)
    ea, eb = MemoryTransport.pair()
    ra, rb = _run_pair(
        lambda: session_push(ea, p1, set()), lambda: session_serve(eb, other, set())
    )
    assert isinstance(ra, ParamMismatch) and isinstance(rb, ParamMismatch)


def test_session_run_peer_decode_error(p1):
    # a failed decode reported after DIGEST is not a parameter mismatch
    SA, _, _ = gen_instance(p1, 9, 5)
    ea, eb = MemoryTransport.pair()
    eb.send_frame(MSG_HELLO, p1.fingerprint)
    eb.send_frame(MSG_ERROR, b"stage-1 recovery failed")
    with pytest.raises(InconsistentDigests, match="stage-1"):
        session_run(ea, p1, SA)
    eb.send_frame(MSG_HELLO, p1.fingerprint)
    eb.send_frame(MSG_ERROR, b"parameter fingerprint mismatch")
    with pytest.raises(ParamMismatch):
        session_run(ea, p1, SA)


def test_hostile_frame_length_rejected_before_read(p1, pt):
    for params in (p1, pt):
        limit = max_payload(params)
        digest = len(serialize_digest(params, encode_digest(params, [])))
        assert limit == max(32, digest, params.t * params.h * 8, ERROR_ALLOWANCE)
    ea, eb = MemoryTransport.pair()
    eb.send_frame(MSG_HELLO, p1.fingerprint)
    eb._send_raw(MAGIC + bytes((VERSION, MSG_DIGEST)) + (2**32 - 1).to_bytes(4, "big"))
    start = time.monotonic()
    with pytest.raises(FrameError, match="exceeds"):
        session_run(ea, p1, set())
    assert time.monotonic() - start < 5  # never waited for the payload


def test_server_error_text_truncated(p1, monkeypatch):
    def fail(*_):
        raise InconsistentDigests("x" * 1000)

    monkeypatch.setattr(protocol, "decode_digests", fail)
    ea, eb = MemoryTransport.pair()
    ea.send_frame(MSG_HELLO, p1.fingerprint)
    ea.send_frame(MSG_DIGEST, serialize_digest(p1, encode_digest(p1, [])))
    with pytest.raises(InconsistentDigests):
        session_serve(eb, p1, set())
    assert ea.recv_frame(max_payload(p1)) == (MSG_ERROR, b"x" * ERROR_ALLOWANCE)


def test_memory_transport_timeout_is_frame_error(monkeypatch):
    ea, _ = MemoryTransport.pair()
    monkeypatch.setattr(ea._inbox, "get", _raise_empty)
    with pytest.raises(FrameError):
        ea.recv_frame(100)


def _raise_empty(timeout=None):
    raise queue.Empty


def test_set_file_roundtrip(p1):
    SA, _, _ = gen_instance(p1, 7, 5)
    text = write_set_text(SA)
    assert read_set_text(text, 63) == SA
    assert read_set_text("# comment\n\n" + text, 63) == SA
    with pytest.raises(FrameError) as e:
        read_set_text("zz\n", 63)
    assert "line 1" in str(e.value)
