"""One-round digest-exchange protocol.

Frames are ``THLR`` + version byte + message-type byte + 4-byte
big-endian payload length + payload.  A session sends exactly two
frames (HELLO carrying the parameter fingerprint, then DIGEST) and
reads the peer's two; both hosts then decode locally with
:func:`decode_digests`, the one decoder of both schemes.  One section
table, ``params.digest_layout``, lays out the DIGEST payload, a
``params.Digest`` of fields in wire order, for serializing, parsing,
its cost in bits and the frame cap.  One ``Transport`` carries frames
over any connected stream socket, TCP or an in-process pair from
``Transport.pair()``.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from .bits import BitVector
from .errors import FrameError, InconsistentDigests, ParamMismatch, ThlreconError
from .params import Digest, Params, accept, check_digest
from .params import digest_layout
from .recon1 import decode1, encode1
from .recont import decode_t, encode_t

MAGIC = b"THLR"
VERSION = 0x01
MSG_HELLO = 0x01
MSG_DIGEST = 0x02
MSG_ERROR = 0x7F
FRAME_OVERHEAD = 10  # magic(4) + version(1) + type(1) + length(4)
# MSG_ERROR payload for a fingerprint mismatch, the only error frame a
# session sends; any other MSG_ERROR text is a peer's own failure.
MISMATCH = b"parameter fingerprint mismatch"
# Longest MSG_ERROR text a session accepts.
ERROR_ALLOWANCE = 256
# Seconds a transport waits on a silent peer before a FrameError.
PEER_TIMEOUT = 10.0


# ---------------------------------------------------------------------------
# digest serialization: fields low bits first, sections padded to bytes


def serialize_digest(params: Params, d) -> bytes:
    check_digest(params, d)
    values = iter(d)
    acc = pos = 0
    for section in digest_layout(params):
        pos = (pos + 7) & ~7
        for width, v in zip(section, values):
            acc |= v << pos
            pos += width
    return acc.to_bytes((pos + 7) // 8, "little")


def parse_digest(params: Params, data: bytes):
    values, start = [], 0
    for section in digest_layout(params):
        end = start + (sum(section) + 7) // 8
        if end > len(data):
            raise FrameError("truncated digest payload")
        acc = int.from_bytes(data[start:end], "little")
        start = end
        for width in section:
            values.append(acc & ((1 << width) - 1))
            acc >>= width
        if acc:
            raise FrameError("nonzero pad bits")
    if start != len(data):
        raise FrameError("trailing bytes after digest payload")
    return Digest(values)


def max_payload(params: Params) -> int:
    """Longest frame payload a session accepts: the fingerprint, the
    serialized digest or the error text."""
    digest = sum((sum(s) + 7) // 8 for s in digest_layout(params))
    return max(len(params.fingerprint), digest, ERROR_ALLOWANCE)


def encode_digest(params: Params, S):
    return encode1(params, S) if params.t == 1 else encode_t(params, S)


def decode_digests(params: Params, d_local, d_peer) -> frozenset:
    """Exact symmetric difference from the two hosts' digests.  Each must
    pass :func:`params.check_digest`; the scheme's decoder recovers
    candidate blocks from their xor, and :func:`params.accept` checks
    them.  Raises :class:`InconsistentDigests` when either step fails."""
    check_digest(params, d_local)
    check_digest(params, d_peer)
    d = d_local ^ d_peer
    blocks = decode1(params, d) if params.t == 1 else decode_t(params, d)
    return accept(params, blocks, d, encode_digest)


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
    """Frames over a connected stream socket.  A socket with no timeout
    gets ``PEER_TIMEOUT``; one already set is kept."""

    def __init__(self, sock: socket.socket):
        if sock.gettimeout() is None:
            sock.settimeout(PEER_TIMEOUT)
        self._sock = sock
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    def pair(cls):
        """Two connected in-process endpoints."""
        return tuple(map(cls, socket.socketpair()))

    def send_frame(self, msg_type: int, payload: bytes):
        data = encode_frame(msg_type, payload)
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise FrameError(f"send failed: {exc}") from exc
        self.bytes_sent += len(data)

    def _recv_exact(self, n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError as exc:
                raise FrameError(f"receive failed: {exc}") from exc
            if not chunk:
                raise FrameError("connection closed mid-frame")
            buf.extend(chunk)
            self.bytes_received += len(chunk)
        return bytes(buf)

    def recv_frame(self, limit: int):
        """(message type, payload); raises :class:`FrameError` before
        reading a payload longer than ``limit`` bytes."""
        header = self._recv_exact(FRAME_OVERHEAD)
        if header[:4] != MAGIC:
            raise FrameError("bad magic")
        if header[4] != VERSION:
            raise FrameError("unsupported version %d" % header[4])
        length = int.from_bytes(header[6:10], "big")
        if length > limit:
            raise FrameError(f"payload of {length} bytes exceeds {limit}")
        return header[5], self._recv_exact(length)

    def close(self):
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


TcpTransport = Transport  # earlier name, still used by thlbench/run.py


# ---------------------------------------------------------------------------
# sessions


def _peer_error(payload: bytes):
    """The exception a MSG_ERROR payload from the peer stands for: the
    mismatch frame, or any other text as the peer's own failure."""
    if payload == MISMATCH:
        return ParamMismatch(MISMATCH.decode())
    return InconsistentDigests(payload.decode("utf-8", "replace"))


_NAMES = {MSG_HELLO: "HELLO", MSG_DIGEST: "DIGEST"}


def _expect(transport: Transport, limit: int, msg_type: int) -> bytes:
    """Payload of the peer's next frame, which must be ``msg_type``; a
    MSG_ERROR frame raises the error it reports."""
    got, payload = transport.recv_frame(limit)
    if got == MSG_ERROR:
        raise _peer_error(payload)
    if got != msg_type:
        raise FrameError(f"expected {_NAMES[msg_type]}")
    return payload


@dataclass
class SessionStats:
    bytes_sent: int = 0
    bytes_received: int = 0
    outcome: str = "success"


def session_run(transport: Transport, params: Params, local_set):
    """Symmetric one-round exchange: send HELLO, verify the peer's
    fingerprint, swap digests, decode locally.

    Returns (symmetric difference, SessionStats): the bytes this host
    sent and received, and the outcome.  Raises
    :class:`ParamMismatch` before any digest bytes when fingerprints
    differ, :class:`FrameError` when the peer's frames are malformed or
    stop, and :class:`InconsistentDigests` from decoding; each carries
    the session's SessionStats as ``exc.stats``.  The local digest is
    encoded first, so an element of the wrong length raises
    ``ValueError`` (with no stats) before anything is sent.
    """
    local_digest = encode_digest(params, local_set)
    stats = SessionStats()
    limit = max_payload(params)
    try:
        transport.send_frame(MSG_HELLO, params.fingerprint)
        if _expect(transport, limit, MSG_HELLO) != params.fingerprint:
            transport.send_frame(MSG_ERROR, MISMATCH)
            raise ParamMismatch(MISMATCH.decode())
        transport.send_frame(MSG_DIGEST, serialize_digest(params, local_digest))
        peer_digest = parse_digest(params, _expect(transport, limit, MSG_DIGEST))
        delta = decode_digests(params, local_digest, peer_digest)
    except ThlreconError as exc:
        stats.outcome = (
            "param_mismatch" if isinstance(exc, ParamMismatch)
            else "frame_error" if isinstance(exc, FrameError)
            else "inconsistent"
        )
        exc.stats = stats
        raise
    finally:
        stats.bytes_sent = transport.bytes_sent
        stats.bytes_received = transport.bytes_received
    return delta, stats


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
