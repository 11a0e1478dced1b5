import functools
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thlrecon.bits import BitVector
from thlrecon.errors import (
    FrameError,
    InconsistentDigests,
    ParamMismatch,
    ThlreconError,
)
from thlrecon.oracle import gen_instance, oracle_symdiff
from thlrecon import protocol
from thlrecon.params import Digest, digest_cost_bits, digest_layout, params_build
from thlrecon.protocol import (
    ERROR_ALLOWANCE,
    FRAME_OVERHEAD,
    MAGIC,
    MISMATCH,
    MSG_DIGEST,
    MSG_ERROR,
    MSG_HELLO,
    VERSION,
    TcpTransport,
    Transport,
    decode_digests,
    encode_digest,
    encode_frame,
    max_payload,
    parse_digest,
    read_set_text,
    serialize_digest,
    session_run,
    write_set_text,
)


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
    good = serialize_digest(p1, Digest((1, 2)))
    with pytest.raises(FrameError):
        parse_digest(p1, good[:-1])  # truncated
    with pytest.raises(FrameError):
        parse_digest(p1, good + b"\x00")  # trailing bytes


def test_pad_bits_in_either_t1_section_rejected():
    p = params_build(63, 1, 4, 2)
    assert digest_layout(p) == ((52,), (51,))  # 4 and 5 pad bits
    good = int.from_bytes(serialize_digest(p, Digest((1, 2))), "little")
    for bit in (*range(52, 56), *range(56 + 51, 56 + 56)):
        with pytest.raises(FrameError, match="^nonzero pad bits$"):
            parse_digest(p, (good | 1 << bit).to_bytes(14, "little"))


def test_field_one_bit_too_wide_rejected(p1, pt):
    u, tail = p1.comp.redundancy, p1.n - p1.r
    serialize_digest(p1, Digest(((1 << u) - 1, (1 << tail) - 1)))
    for d in (Digest((1 << u, 0)), Digest((0, 1 << tail))):
        with pytest.raises(ValueError, match="value wider than field width"):
            serialize_digest(p1, d)
    d = encode_digest(pt, [])
    grid = (1 << pt.nbar, 0, 0, 0)
    with pytest.raises(ValueError, match="value wider than field width"):
        serialize_digest(pt, Digest(d[: pt.comp_rs.redundancy] + grid))
    w1 = (1 << pt.comp_rs.field.degree,) + d[1:]
    with pytest.raises(ValueError, match="value wider than field width"):
        serialize_digest(pt, Digest(w1))


def test_digest_of_the_other_scheme_rejected(p1, pt):
    with pytest.raises(ValueError, match="field layout"):
        serialize_digest(p1, encode_digest(pt, []))
    with pytest.raises(ValueError, match="field layout"):
        serialize_digest(pt, encode_digest(p1, []))
    d = encode_digest(pt, [])
    with pytest.raises(ValueError, match="field layout"):
        serialize_digest(pt, Digest(d[1:]))
    with pytest.raises(TypeError):
        serialize_digest(pt, tuple(d))


@pytest.mark.parametrize("point", [(63, 1, 4, 2), (511, 1, 4, 2), (127, 3, 2, 1)])
def test_decode_rejects_a_field_outside_its_width(point):
    # unchecked, such a field fails deep in a decoder as an IndexError
    # or an OverflowError
    p = params_build(*point)
    SA, _, _ = gen_instance(p, 0, 4)
    good = encode_digest(p, SA)
    widths = [w for section in digest_layout(p) for w in section]
    for i, width in enumerate(widths):
        for v in (1 << width, -1):
            bad = Digest(good[:i] + (v,) + good[i + 1:])
            for call in (
                lambda: decode_digests(p, bad, good),
                lambda: decode_digests(p, good, bad),
                lambda: serialize_digest(p, bad),
            ):
                with pytest.raises(ValueError, match="value wider than field width"):
                    call()


def test_xor_of_digests_with_different_layouts_rejected(p1, pt):
    # t=1 against t>1, and two t>1 grids of different sizes: no XOR
    # may drop the fields one side lacks
    p3 = params_build(63, 3, 2, 1)
    for a, b in ((p1, pt), (pt, p1), (pt, p3), (p3, pt)):
        with pytest.raises(ValueError, match="different layouts"):
            encode_digest(a, []) ^ encode_digest(b, [])


# The golden-vector points, two for each scheme.
FUZZ_POINTS = ((63, 1, 4, 2), (127, 1, 2, 1), (63, 2, 2, 1), (127, 3, 2, 1))


@pytest.mark.parametrize("point", FUZZ_POINTS + ((511, 1, 4, 2),))
def test_section_table_sizes(point):
    p = params_build(*point)
    if p.t == 1:
        layout = ((p.comp.redundancy,), (p.n - p.r,))
    else:
        layout = (
            (p.comp_rs.field.degree,) * p.comp_rs.redundancy
            + (p.nbar,) * (p.t * p.t),
        )
    assert digest_layout(p) == layout
    assert digest_cost_bits(p) == sum(map(sum, layout))
    SA, _, _ = gen_instance(p, 0, 12)
    data = serialize_digest(p, encode_digest(p, SA))
    assert len(data) == sum((sum(s) + 7) // 8 for s in layout)
    assert max_payload(p) >= len(data)


@functools.lru_cache(maxsize=None)
def _fuzz_case(point):
    """Params, a local digest and the serialized digest of its peer."""
    p = params_build(*point)
    SA, SB, _ = gen_instance(p, 0, 12)
    return p, encode_digest(p, SA), serialize_digest(p, encode_digest(p, SB))


def _decode_payload(point, payload):
    p, local, _ = _fuzz_case(point)
    try:
        decode_digests(p, local, parse_digest(p, payload))
    except ThlreconError:
        pass  # any other exception fails the property


@given(st.sampled_from(FUZZ_POINTS), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_random_payload_raises_only_package_errors(point, data):
    p, _, peer = _fuzz_case(point)
    payload = data.draw(
        st.binary(max_size=max_payload(p))
        | st.binary(min_size=len(peer), max_size=len(peer))
    )
    _decode_payload(point, payload)


@given(st.sampled_from(FUZZ_POINTS), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_flipped_digest_bits_raise_only_package_errors(point, data):
    _, _, peer = _fuzz_case(point)
    bits = st.integers(0, 8 * len(peer) - 1)
    flips = data.draw(st.lists(bits, min_size=1, max_size=3, unique=True))
    payload = int.from_bytes(peer, "little")
    for b in flips:
        payload ^= 1 << b
    _decode_payload(point, payload.to_bytes(len(peer), "little"))


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
    ea, eb = Transport.pair()
    with ea, eb:
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
    ea, eb = Transport.pair()
    with ea, eb:
        ra, rb = _run_pair(
            lambda: session_run(ea, p1, SA), lambda: session_run(eb, other, SB)
        )
    assert isinstance(ra, ParamMismatch) and isinstance(rb, ParamMismatch)
    # exactly HELLO + the ERROR reply hit the wire - never a digest
    err_len = len(b"parameter fingerprint mismatch")
    assert ea.bytes_sent == 2 * FRAME_OVERHEAD + 32 + err_len


def test_session_failures_carry_stats(p1):
    other = params_build(63, 1, 3, 1)
    ea, eb = Transport.pair()
    with ea, eb:
        ra, _ = _run_pair(
            lambda: session_run(ea, p1, set()), lambda: session_run(eb, other, set())
        )
    assert isinstance(ra, ParamMismatch)
    assert ra.stats.outcome == "param_mismatch"
    assert ra.stats.bytes_sent == 2 * FRAME_OVERHEAD + 32 + len(MISMATCH)
    assert ra.stats.bytes_received == FRAME_OVERHEAD + 32
    # unrelated sets break the promise, so both decodes fail
    rng = random.Random(20)
    SA = {BitVector(rng.getrandbits(63), 63) for _ in range(20)}
    SB = {BitVector(rng.getrandbits(63), 63) for _ in range(20)}
    ea, eb = Transport.pair()
    with ea, eb:
        ra, rb = _run_pair(
            lambda: session_run(ea, p1, SA), lambda: session_run(eb, p1, SB)
        )
    digest_bytes = len(serialize_digest(p1, encode_digest(p1, SA)))
    for exc in (ra, rb):
        assert isinstance(exc, InconsistentDigests)
        assert exc.stats.outcome == "inconsistent"
        assert exc.stats.bytes_sent == 2 * FRAME_OVERHEAD + 32 + digest_bytes
        assert exc.stats.bytes_received == exc.stats.bytes_sent


def test_bad_local_element_fails_before_sending(p1, pt):
    # the local digest is encoded before HELLO, so nothing goes out
    for params in (p1, pt):
        bad = {BitVector(1, params.n), BitVector(1, params.n - 1)}
        ea, eb = Transport.pair()
        with ea, eb:
            with pytest.raises(ValueError, match="element length"):
                session_run(ea, params, bad)
            assert ea.bytes_sent == 0


def test_tcp_equals_memory(p1):
    assert TcpTransport is Transport
    SA, SB, delta = gen_instance(p1, 5, 10)
    srv = socket.create_server(("127.0.0.1", 0))
    port = srv.getsockname()[1]

    def serve():
        conn, _ = srv.accept()
        with TcpTransport(conn) as t:
            return session_run(t, p1, SB)

    def connect():
        with TcpTransport(socket.create_connection(("127.0.0.1", port))) as t:
            return session_run(t, p1, SA)

    ra, rb = _run_pair(connect, serve)
    srv.close()
    (da, sa), (db, sb) = ra, rb
    assert da == db == delta
    # identical wire behavior to an in-process pair
    ea, eb = Transport.pair()
    with ea, eb:
        ma, mb = _run_pair(
            lambda: session_run(ea, p1, SA), lambda: session_run(eb, p1, SB)
        )
    assert ma[0] == da and ma[1].bytes_sent == sa.bytes_sent


def test_session_run_peer_decode_error(p1):
    # a failed decode reported after DIGEST is not a parameter mismatch
    SA, _, _ = gen_instance(p1, 9, 5)
    ea, eb = Transport.pair()
    with ea, eb:
        eb.send_frame(MSG_HELLO, p1.fingerprint)
        eb.send_frame(MSG_ERROR, b"stage-1 recovery failed")
        with pytest.raises(InconsistentDigests, match="stage-1"):
            session_run(ea, p1, SA)
        eb.send_frame(MSG_HELLO, p1.fingerprint)
        eb.send_frame(MSG_ERROR, b"parameter fingerprint mismatch")
        with pytest.raises(ParamMismatch):
            session_run(ea, p1, SA)


@pytest.mark.parametrize(
    "frames, error, text",
    [
        (lambda hello: b"XXXX" + bytes(FRAME_OVERHEAD - 4), FrameError, "bad magic"),
        (lambda hello: encode_frame(MSG_DIGEST, b""), FrameError, "expected HELLO"),
        (lambda hello: hello + hello, FrameError, "expected DIGEST"),
        (
            lambda hello: hello + MAGIC + bytes((VERSION + 1, MSG_DIGEST)) + bytes(4),
            FrameError,
            "unsupported version",
        ),
        (
            lambda hello: hello + MAGIC + bytes((VERSION, MSG_DIGEST)) + b"\xff" * 4,
            FrameError,
            "exceeds",
        ),
        (
            lambda hello: encode_frame(MSG_ERROR, b"peer gave up"),
            InconsistentDigests,
            "peer gave up",
        ),
        # the peer stops mid-frame: every byte it sent is counted
        (lambda hello: hello[:7], FrameError, "closed mid-frame"),
        (lambda hello: hello[:15], FrameError, "closed mid-frame"),
        (lambda hello: hello + hello[:12], FrameError, "closed mid-frame"),
    ],
    ids=[
        "magic", "digest-for-hello", "hello-for-digest", "version", "length", "error",
        "cut-hello-header", "cut-hello-payload", "cut-second-frame",
    ],
)
def test_bad_peer_frame_raises_at_once_with_stats(p1, frames, error, text):
    hello = encode_frame(MSG_HELLO, p1.fingerprint)
    canned = frames(hello)
    a, b = socket.socketpair()
    with Transport(a) as ea, b:
        b.sendall(canned)
        b.shutdown(socket.SHUT_WR)
        start = time.monotonic()
        with pytest.raises(error, match=text) as e:
            session_run(ea, p1, set())
        assert time.monotonic() - start < 1
    stats = e.value.stats
    assert stats.outcome == ("frame_error" if error is FrameError else "inconsistent")
    # a good HELLO is answered with the DIGEST before the bad frame shows
    sent = FRAME_OVERHEAD + 32
    if canned.startswith(hello):
        sent += FRAME_OVERHEAD + len(serialize_digest(p1, encode_digest(p1, [])))
    assert stats.bytes_sent == sent
    assert stats.bytes_received == len(canned)


def test_hostile_frame_length_rejected_before_read(p1, pt):
    for params in (p1, pt):
        limit = max_payload(params)
        digest = len(serialize_digest(params, encode_digest(params, [])))
        assert limit == max(32, digest, ERROR_ALLOWANCE)
    a, b = socket.socketpair()
    with Transport(a) as ea, b:
        b.sendall(
            encode_frame(MSG_HELLO, p1.fingerprint)
            + MAGIC
            + bytes((VERSION, MSG_DIGEST))
            + (2**32 - 1).to_bytes(4, "big")
        )
        start = time.monotonic()
        with pytest.raises(FrameError, match="exceeds"):
            session_run(ea, p1, set())
        assert time.monotonic() - start < 5  # never waited for the payload


def test_tcp_socket_errors_are_frame_errors(p1):
    a, b = socket.socketpair()
    b.close()
    with Transport(a) as t:
        with pytest.raises(FrameError) as e:
            session_run(t, p1, set())
        assert isinstance(e.value.__cause__, OSError)
    a, b = socket.socketpair()
    a.settimeout(0.05)
    with Transport(a) as t, b:
        with pytest.raises(FrameError) as e:
            t.recv_frame(100)
        assert isinstance(e.value.__cause__, OSError)


def test_silent_tcp_peer_is_frame_error(p1, monkeypatch):
    monkeypatch.setattr(protocol, "PEER_TIMEOUT", 0.2)
    a, b = socket.socketpair()  # b stays open and never writes
    t = Transport(a)
    assert a.gettimeout() == 0.2
    raised = []

    def run():
        try:
            session_run(t, p1, set())
        except FrameError as exc:
            raised.append(exc)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(5)
    try:
        assert not th.is_alive(), "session still waiting on a silent peer"
        assert len(raised) == 1 and isinstance(raised[0].__cause__, OSError)
    finally:
        b.close()
        th.join(5)
        t.close()


def test_set_file_roundtrip(p1):
    SA, _, _ = gen_instance(p1, 7, 5)
    text = write_set_text(SA)
    assert read_set_text(text, 63) == SA
    assert read_set_text("# comment\n\n" + text, 63) == SA
    with pytest.raises(FrameError) as e:
        read_set_text("zz\n", 63)
    assert "line 1" in str(e.value)


@pytest.mark.parametrize("line", ["0x12", "+012", "1_23"])
def test_set_file_line_that_is_not_hex_digits_rejected(line):
    # int(s, 16) reads all three, each with the four digits n=16 needs;
    # "0x12" would read as 0012
    with pytest.raises(ValueError, match="hex digits"):
        BitVector.from_hex(line, 16)
    with pytest.raises(FrameError, match="^set file line 2: "):
        read_set_text(f"0012\n{line}\n", 16)
