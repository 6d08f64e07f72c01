"""The fabric's wire protocol: length-prefixed, checksummed JSON frames.

The socket tier of the fabric (see :mod:`repro.fabric.remote`) speaks a
deliberately boring protocol — every message is one *frame*:

``magic (4 bytes) | body length (uint32 BE) | crc32 (uint32 BE) | body``

where the body is a UTF-8 JSON object.  Boring is the point: a frame is
either decodable in full or rejected with a structured
:class:`TransportError` reason — a truncated, corrupted or alien byte
stream can never hang the decoder or yield a partially decoded message.
The property tests in ``tests/properties/test_transport_properties.py``
hold the codec to exactly that contract.

On top of the codec:

* :class:`Transport` — blocking send/recv of whole frames over a socket,
  with a receive timeout surfaced as ``TransportError("timeout")``;
* :class:`NetworkChaos` + :class:`FaultyTransport` — the seeded
  network-fault injector of claim 17.  The chaos catalog mirrors what a
  real network does to you: ``drop-message`` (a frame silently
  vanishes), ``delay-message`` (a frame arrives late), ``duplicate-
  message`` (a frame arrives twice), ``corrupt-frame`` (a frame arrives
  damaged and must fail its checksum) and ``partition-worker`` (the
  connection dies under the peer).  Faults are injected at the
  coordinator's side of each connection, so every recovery path they
  exercise — client timeout, reconnect with backoff, resumable upload,
  stale-epoch rejection — is the same code a real outage would hit.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..runner.faults import NETWORK_FAULT_KINDS

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MAX_FRAME",
    "NETWORK_FAULT_KINDS",
    "PROTOCOL_VERSION",
    "FaultyTransport",
    "NetworkChaos",
    "Transport",
    "TransportError",
    "connect",
    "decode_frame",
    "encode_frame",
    "parse_address",
]

#: Version of the wire protocol; a coordinator rejects workers speaking
#: a different one during the handshake (see ``repro doctor --remote``).
#: Version 2 nests a task's pipeline checks under ``"checks"``.
PROTOCOL_VERSION = 2

MAGIC = b"RFAB"
_HEADER = struct.Struct(">4sII")
HEADER_SIZE = _HEADER.size

#: Hard ceiling on one frame's body; anything larger is an error, not an
#: allocation.  Unit payloads are far smaller (uploads are chunked).
MAX_FRAME = 32 * 1024 * 1024


class TransportError(Exception):
    """A wire-protocol failure, with a structured machine-readable reason.

    ``reason`` is one of: ``bad-magic``, ``truncated-header``,
    ``truncated-body``, ``oversized-frame``, ``checksum-mismatch``,
    ``malformed-json``, ``not-an-object``, ``timeout``, ``closed``,
    ``partitioned``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


# ----------------------------------------------------------------------
# The frame codec
# ----------------------------------------------------------------------
def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one message as a framed byte string."""
    body = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise TransportError(
            "oversized-frame", f"{len(body)} bytes exceeds the {MAX_FRAME} cap"
        )
    return _HEADER.pack(MAGIC, len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def decode_frame(data: bytes) -> Tuple[Dict[str, Any], int]:
    """Decode one frame from the head of ``data``.

    Returns ``(message, bytes_consumed)``.  Every malformation raises a
    :class:`TransportError` with a structured reason — the decoder never
    returns a partial message and never blocks.
    """
    if len(data) < HEADER_SIZE:
        raise TransportError(
            "truncated-header",
            f"{len(data)} byte(s) of a {HEADER_SIZE}-byte frame header",
        )
    magic, length, checksum = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise TransportError("bad-magic", repr(magic))
    if length > MAX_FRAME:
        raise TransportError(
            "oversized-frame", f"declared body of {length} bytes exceeds {MAX_FRAME}"
        )
    end = HEADER_SIZE + length
    if len(data) < end:
        raise TransportError(
            "truncated-body",
            f"{len(data) - HEADER_SIZE}/{length} body byte(s) present",
        )
    body = data[HEADER_SIZE:end]
    if zlib.crc32(body) & 0xFFFFFFFF != checksum:
        raise TransportError("checksum-mismatch", "frame body fails its crc32")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError("malformed-json", str(exc)) from exc
    if not isinstance(message, dict):
        raise TransportError("not-an-object", type(message).__name__)
    return message, end


# ----------------------------------------------------------------------
# Blocking socket transport
# ----------------------------------------------------------------------
class Transport:
    """Whole-frame send/recv over a connected socket."""

    def __init__(self, sock: socket.socket, timeout: Optional[float] = None):
        self.sock = sock
        self.sock.settimeout(timeout)
        self._send_lock = threading.Lock()

    def settimeout(self, timeout: Optional[float]) -> None:
        self.sock.settimeout(timeout)

    def send(self, message: Dict[str, Any]) -> None:
        frame = encode_frame(message)
        with self._send_lock:
            try:
                self.sock.sendall(frame)
            except socket.timeout as exc:
                raise TransportError("timeout", "send timed out") from exc
            except OSError as exc:
                raise TransportError("closed", str(exc)) from exc

    def _recv_exact(self, count: int, mid_frame: bool) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            try:
                piece = self.sock.recv(count - len(chunks))
            except socket.timeout as exc:
                raise TransportError("timeout", "receive timed out") from exc
            except OSError as exc:
                raise TransportError("closed", str(exc)) from exc
            if not piece:
                if chunks or mid_frame:
                    raise TransportError(
                        "truncated-body" if mid_frame else "truncated-header",
                        "peer closed mid-frame",
                    )
                raise TransportError("closed", "peer closed the connection")
            chunks.extend(piece)
        return bytes(chunks)

    def recv(self) -> Dict[str, Any]:
        header = self._recv_exact(HEADER_SIZE, mid_frame=False)
        magic, length, _checksum = _HEADER.unpack_from(header)
        if magic != MAGIC:
            raise TransportError("bad-magic", repr(magic))
        if length > MAX_FRAME:
            raise TransportError("oversized-frame", f"{length} bytes declared")
        body = self._recv_exact(length, mid_frame=True) if length else b""
        message, _consumed = decode_frame(header + body)
        return message

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Seeded network chaos
# ----------------------------------------------------------------------
@dataclass
class NetworkChaos:
    """Shared, thread-safe budget of network faults still to inject.

    Each fault kind carries a remaining count (the spec's ``times``);
    :meth:`take` atomically claims one firing.  The object is shared by
    every connection of one coordinator, so a two-worker chaos sweep
    fires each kind exactly as many times as the plan says — enough to
    demonstrate recovery, bounded enough to converge.
    """

    remaining: Dict[str, int] = field(default_factory=dict)
    seed: int = 0
    fired: Dict[str, int] = field(default_factory=dict)
    _lock: Any = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def from_plan(cls, plan: Optional[object]) -> "NetworkChaos":
        """Collect the network fault kinds out of a :class:`FaultPlan`."""
        remaining: Dict[str, int] = {}
        seed = 0
        if plan is not None:
            seed = int(getattr(plan, "seed", 0))
            for spec in getattr(plan, "specs", ()):  # FaultSpec duck-typed
                if spec.kind in NETWORK_FAULT_KINDS:
                    remaining[spec.kind] = remaining.get(spec.kind, 0) + spec.times
        return cls(remaining=remaining, seed=seed)

    def __bool__(self) -> bool:
        return any(count > 0 for count in self.remaining.values())

    def take(self, kind: str) -> bool:
        with self._lock:
            if self.remaining.get(kind, 0) <= 0:
                return False
            self.remaining[kind] -= 1
            self.fired[kind] = self.fired.get(kind, 0) + 1
            return True

    def exhausted(self) -> bool:
        return not self


class FaultyTransport:
    """A :class:`Transport` wrapper that injects network faults on send.

    Faults apply only to messages whose type is *not* in
    ``immune_types`` (handshake and probe responses stay clean, so a
    worker can always re-register after a fault — chaos must be
    recoverable, not a livelock).  ``partition-worker`` closes the
    socket under the peer; the others mutate the outgoing frame stream.
    """

    #: Message types never faulted: the recovery path itself.
    IMMUNE_TYPES = ("welcome", "error", "pong")

    def __init__(self, inner: Transport, chaos: NetworkChaos):
        self.inner = inner
        self.chaos = chaos

    def settimeout(self, timeout: Optional[float]) -> None:
        self.inner.settimeout(timeout)

    def recv(self) -> Dict[str, Any]:
        return self.inner.recv()

    def close(self) -> None:
        self.inner.close()

    def send(self, message: Dict[str, Any]) -> None:
        if message.get("type") in self.IMMUNE_TYPES or not self.chaos:
            self.inner.send(message)
            return
        if self.chaos.take("partition-worker"):
            # The network partitions: the connection dies under the peer,
            # response unsent.  The peer must reconnect and re-handshake.
            try:
                self.inner.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.inner.close()
            raise TransportError("partitioned", "injected network partition")
        if self.chaos.take("drop-message"):
            return  # the frame silently never arrives
        if self.chaos.take("corrupt-frame"):
            frame = bytearray(encode_frame(message))
            # Flip one body byte: the length stays intact (the stream
            # stays aligned) but the crc32 check must reject the frame.
            victim = HEADER_SIZE + (self.chaos.seed % max(1, len(frame) - HEADER_SIZE))
            frame[victim] ^= 0xFF
            with self.inner._send_lock:
                try:
                    self.inner.sock.sendall(bytes(frame))
                except OSError as exc:
                    raise TransportError("closed", str(exc)) from exc
            return
        if self.chaos.take("delay-message"):
            time.sleep(0.2)  # late, but intact — receivers must tolerate it
            self.inner.send(message)
            return
        if self.chaos.take("duplicate-message"):
            self.inner.send(message)
            self.inner.send(message)  # the same frame arrives twice
            return
        self.inner.send(message)


def connect(
    host: str, port: int, timeout: Optional[float] = None
) -> Transport:
    """Dial a coordinator and wrap the socket in a :class:`Transport`."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout as exc:
        raise TransportError("timeout", f"connect to {host}:{port} timed out") from exc
    except OSError as exc:
        raise TransportError("closed", f"connect to {host}:{port}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Transport(sock, timeout=timeout)


def parse_address(text: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``[HOST:]PORT`` into ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad address {text!r}; expected [HOST:]PORT")
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in {text!r}")
    return host, port
