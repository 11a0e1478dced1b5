"""One-round digest-exchange protocol.

Frames are ``THLR`` + version byte + message-type byte + 4-byte
big-endian payload length + payload.  A session sends exactly two
frames (HELLO carrying the parameter fingerprint, then DIGEST) and
reads the peer's two; both hosts then decode locally.  Transports are
pluggable: an in-memory paired-queue transport for tests and a TCP
socket transport, both byte-identical on the wire.
"""

from __future__ import annotations

import queue
import socket
from dataclasses import dataclass

from .bits import BitVector
from .errors import FrameError, InconsistentDigests, ParamMismatch
from .params import Params
from .recon1 import Digest1, decode1, digest1_cost_bits, encode1
from .recont import DigestT, decode_t, digestT_cost_bits, encode_t
from . import bounds

MAGIC = b"THLR"
VERSION = 0x01
MSG_HELLO = 0x01
MSG_DIGEST = 0x02
MSG_RESULT = 0x03
MSG_ERROR = 0x7F
FRAME_OVERHEAD = 10  # magic(4) + version(1) + type(1) + length(4)
# MSG_ERROR payload for a fingerprint mismatch; any other MSG_ERROR
# reports a failed decode.
MISMATCH = b"parameter fingerprint mismatch"
# Longest MSG_ERROR text a session sends or accepts.
ERROR_ALLOWANCE = 256


# ---------------------------------------------------------------------------
# bit-stream packing (low bits first within the byte stream)


class BitWriter:
    def __init__(self):
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, width: int):
        if value < 0 or value >> width:
            raise ValueError("value wider than field width")
        self._acc |= value << self._nbits
        self._nbits += width

    def align(self):
        self._nbits = (self._nbits + 7) & ~7

    def getvalue(self) -> bytes:
        self.align()
        return self._acc.to_bytes(self._nbits // 8, "little")


class BitReader:
    def __init__(self, data: bytes):
        self._acc = int.from_bytes(data, "little")
        self._nbits = 8 * len(data)
        self._pos = 0

    def read(self, width: int) -> int:
        if self._pos + width > self._nbits:
            raise FrameError("truncated digest payload")
        v = (self._acc >> self._pos) & ((1 << width) - 1)
        self._pos += width
        return v

    def align(self):
        pad = (-self._pos) % 8
        if pad and self.read(pad):
            raise FrameError("nonzero pad bits")

    def finish(self):
        self.align()
        if self._pos != self._nbits:
            raise FrameError("trailing bytes after digest payload")


# ---------------------------------------------------------------------------
# digest serialization


def serialize_digest(params: Params, d) -> bytes:
    w = BitWriter()
    if params.t == 1:
        if not isinstance(d, Digest1):
            raise TypeError("t=1 params require a Digest1")
        w.write(d.w1, params.comp.redundancy)
        w.align()
        w.write(d.w2, params.n - params.r)
    else:
        if not isinstance(d, DigestT):
            raise TypeError("t>1 params require a DigestT")
        a = params.comp_field.degree
        for sym in d.w1:
            w.write(sym, a)
        for row in d.w2:
            for v in row:
                w.write(v, params.nbar)
    return w.getvalue()


def parse_digest(params: Params, data: bytes):
    r = BitReader(data)
    if params.t == 1:
        w1 = r.read(params.comp.redundancy)
        r.align()
        w2 = r.read(params.n - params.r)
        r.finish()
        return Digest1(w1, w2)
    a = params.comp_field.degree
    w1 = tuple(r.read(a) for _ in range(params.comp_rs.redundancy))
    w2 = tuple(
        tuple(r.read(params.nbar) for _ in range(params.t))
        for _ in range(params.t)
    )
    r.finish()
    return DigestT(w1, w2)


def digest_cost_bits(params: Params) -> int:
    if params.t == 1:
        return digest1_cost_bits(params)
    return digestT_cost_bits(params)


def max_payload(params: Params) -> int:
    """Longest frame payload a session accepts: the fingerprint, the
    serialized digest, t*h result elements or the error text."""
    if params.t == 1:  # the two digest parts are padded separately
        digest = (params.comp.redundancy + 7) // 8 + (params.n - params.r + 7) // 8
    else:
        digest = (digestT_cost_bits(params) + 7) // 8
    result = params.t * params.h * ((params.n + 7) // 8)
    return max(len(params.fingerprint), digest, result, ERROR_ALLOWANCE)


def encode_digest(params: Params, S):
    return encode1(params, S) if params.t == 1 else encode_t(params, S)


def decode_digests(params: Params, d_local, d_peer):
    if params.t == 1:
        return decode1(params, d_local, d_peer)
    return decode_t(params, d_local, d_peer)


# ---------------------------------------------------------------------------
# framing


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    return (
        MAGIC
        + bytes((VERSION, msg_type))
        + len(payload).to_bytes(4, "big")
        + payload
    )


class Transport:
    """Byte-stream endpoint; subclasses implement raw send/receive."""

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0

    def _send_raw(self, data: bytes):
        raise NotImplementedError

    def _recv_raw(self, n: int) -> bytes:
        raise NotImplementedError

    def send_frame(self, msg_type: int, payload: bytes):
        data = encode_frame(msg_type, payload)
        self._send_raw(data)
        self.bytes_sent += len(data)

    def recv_frame(self, limit: int):
        """(message type, payload); raises :class:`FrameError` before
        reading a payload longer than ``limit`` bytes."""
        header = self._recv_raw(FRAME_OVERHEAD)
        self.bytes_received += len(header)
        if header[:4] != MAGIC:
            raise FrameError("bad magic")
        if header[4] != VERSION:
            raise FrameError("unsupported version %d" % header[4])
        length = int.from_bytes(header[6:10], "big")
        if length > limit:
            raise FrameError(f"payload of {length} bytes exceeds {limit}")
        payload = self._recv_raw(length) if length else b""
        self.bytes_received += len(payload)
        return header[5], payload


class MemoryTransport(Transport):
    """Paired in-memory endpoints with identical framing to TCP."""

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue"):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self._buf = bytearray()

    @classmethod
    def pair(cls):
        a, b = queue.Queue(), queue.Queue()
        return cls(a, b), cls(b, a)

    def _send_raw(self, data: bytes):
        self._outbox.put(bytes(data))

    def _recv_raw(self, n: int) -> bytes:
        while len(self._buf) < n:
            try:
                chunk = self._inbox.get(timeout=10)
            except queue.Empty:
                raise FrameError("timed out waiting for the peer") from None
            self._buf.extend(chunk)
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out


class TcpTransport(Transport):
    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock

    def _send_raw(self, data: bytes):
        self._sock.sendall(data)

    def _recv_raw(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                raise FrameError("connection closed mid-frame")
            buf.extend(chunk)
        return bytes(buf)

    def close(self):
        self._sock.close()


# ---------------------------------------------------------------------------
# sessions


def _peer_error(payload: bytes):
    """The exception a MSG_ERROR payload from the peer stands for."""
    if payload == MISMATCH:
        return ParamMismatch(MISMATCH.decode())
    return InconsistentDigests(payload.decode("utf-8", "replace"))


@dataclass
class SessionStats:
    bytes_sent: int = 0
    bytes_received: int = 0
    digest_bits: int = 0
    baseline_bits: int = 0
    outcome: str = "success"


def session_run(transport: Transport, params: Params, local_set):
    """Symmetric one-round exchange: send HELLO, verify the peer's
    fingerprint, swap digests, decode locally.

    Returns (symmetric difference, SessionStats).  Raises
    :class:`ParamMismatch` before any digest bytes when fingerprints
    differ, and propagates :class:`InconsistentDigests` from decoding.
    """
    stats = SessionStats(
        digest_bits=digest_cost_bits(params),
        baseline_bits=bounds.baseline_bits(params),
    )
    limit = max_payload(params)
    transport.send_frame(MSG_HELLO, params.fingerprint)
    msg_type, payload = transport.recv_frame(limit)
    if msg_type == MSG_ERROR:
        raise _peer_error(payload)
    if msg_type != MSG_HELLO:
        raise FrameError("expected HELLO")
    if payload != params.fingerprint:
        transport.send_frame(MSG_ERROR, MISMATCH)
        stats.outcome = "param_mismatch"
        stats.bytes_sent = transport.bytes_sent
        stats.bytes_received = transport.bytes_received
        err = ParamMismatch(MISMATCH.decode())
        err.stats = stats
        raise err

    local_digest = encode_digest(params, local_set)
    transport.send_frame(MSG_DIGEST, serialize_digest(params, local_digest))
    msg_type, payload = transport.recv_frame(limit)
    if msg_type == MSG_ERROR:
        raise _peer_error(payload)
    if msg_type != MSG_DIGEST:
        raise FrameError("expected DIGEST")
    peer_digest = parse_digest(params, payload)

    stats.bytes_sent = transport.bytes_sent
    stats.bytes_received = transport.bytes_received
    try:
        delta = decode_digests(params, local_digest, peer_digest)
    except InconsistentDigests:
        stats.outcome = "inconsistent"
        raise
    return delta, stats


def session_push(transport: Transport, params: Params, local_set):
    """Asymmetric client: send HELLO + DIGEST, receive the difference."""
    transport.send_frame(MSG_HELLO, params.fingerprint)
    transport.send_frame(
        MSG_DIGEST, serialize_digest(params, encode_digest(params, local_set))
    )
    msg_type, payload = transport.recv_frame(max_payload(params))
    if msg_type == MSG_ERROR:
        raise _peer_error(payload)
    if msg_type != MSG_RESULT:
        raise FrameError("expected RESULT")
    return parse_result(params, payload)


def session_serve(transport: Transport, params: Params, local_set):
    """Asymmetric server: receive HELLO + DIGEST, reply with the
    decoded difference, or with an error frame when decoding fails."""
    limit = max_payload(params)
    msg_type, payload = transport.recv_frame(limit)
    if msg_type != MSG_HELLO:
        raise FrameError("expected HELLO")
    if payload != params.fingerprint:
        transport.send_frame(MSG_ERROR, MISMATCH)
        raise ParamMismatch(MISMATCH.decode())
    msg_type, payload = transport.recv_frame(limit)
    if msg_type != MSG_DIGEST:
        raise FrameError("expected DIGEST")
    peer_digest = parse_digest(params, payload)
    try:
        delta = decode_digests(params, encode_digest(params, local_set), peer_digest)
    except InconsistentDigests as exc:
        transport.send_frame(MSG_ERROR, str(exc).encode("utf-8")[:ERROR_ALLOWANCE])
        raise
    transport.send_frame(MSG_RESULT, serialize_result(params, delta))
    return delta


def serialize_result(params: Params, delta) -> bytes:
    out = bytearray()
    for x in sorted(delta, key=lambda v: v.value):
        out.extend(bytes.fromhex(x.hex()))
    return bytes(out)


def parse_result(params: Params, data: bytes) -> frozenset:
    nbytes = (params.n + 7) // 8
    if nbytes == 0 or len(data) % nbytes:
        raise FrameError("result payload length mismatch")
    return frozenset(
        BitVector.from_hex(data[i : i + nbytes].hex(), params.n)
        for i in range(0, len(data), nbytes)
    )


# ---------------------------------------------------------------------------
# set files: one element per line in hex, '#' comments allowed


def read_set_text(text: str, n: int) -> frozenset:
    out = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.add(BitVector.from_hex(line, n))
        except ValueError as exc:
            raise FrameError(f"set file line {lineno}: {exc}") from exc
    return frozenset(out)


def write_set_text(S) -> str:
    return "".join(
        x.hex() + "\n" for x in sorted(S, key=lambda v: v.value)
    )
