"""Length-prefixed wire frames: the one framing every socket in repro uses.

A frame is a 4-byte big-endian payload length followed by the payload
bytes.  That is the whole format — no per-frame type tag (message kinds
live inside the payload, see :mod:`repro.fl.net.protocol`), no checksum
(TCP already guarantees integrity), no padding.

Sending is a scatter write: :func:`frame_views` turns the payload's parts
(a message header, its meta, raw array buffers) into one list of flat
byte views behind the prefix, and :func:`send_views` hands as much of it
as the kernel takes to one ``socket.sendmsg`` call — the parts are never
joined into one bytes object.  Receiving is an exact read:
:class:`FrameStream` reads the prefix, then ``recv_into`` the payload's
own buffer of exactly that size, and hands out a read-only ``memoryview``
of it, so nothing past the frame is ever read off the socket and nothing
is copied after the kernel's.  A payload from
:data:`_MMAP_FROM` bytes up lands in an anonymous ``mmap``, whose pages
commit only as ``recv_into`` writes them: a peer that announces a large
frame and stops costs the bytes it sent, not the bytes it announced.

The sans-io :class:`FrameDecoder` parses any byte chunks — down to one
byte at a time — for the request/response helper :func:`recv_frame` and
the fragmentation tests.  The tcp blob server reads and writes the same
frames over asyncio streams (:mod:`repro.fl.net.transport`), the one
place that imports asyncio.
"""

from __future__ import annotations

import mmap
import os
import socket
import struct
from typing import Iterable

__all__ = [
    "FrameDecoder",
    "FrameError",
    "FrameStream",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "frame_views",
    "send_views",
    "send_frame",
    "recv_frame",
    "recv_payload",
]

_HEADER = struct.Struct(">I")

#: Hard ceiling on a single frame's payload.  Broadcast blobs for
#: paper-scale models are a few MiB; a gigabyte-scale length prefix means
#: a corrupt or hostile peer, and refusing it early beats an OOM later.
MAX_FRAME_BYTES = 1 << 30

#: Payloads from this size up are received into an anonymous ``mmap``
#: (pages commit as they are written) instead of a zero-filled bytearray.
_MMAP_FROM = 1 << 20


def _iov_max() -> int:
    try:
        limit = os.sysconf("SC_IOV_MAX")
    except (AttributeError, ValueError, OSError):  # pragma: no cover
        limit = -1
    return limit if limit > 0 else 1024


#: Most parts one ``sendmsg`` call may carry; longer scatter lists go out
#: in chunks of this many.
_IOV_MAX = _iov_max()


class FrameError(ValueError):
    """A malformed frame: oversized length prefix, a peer that closed
    mid-frame (leaving an undecodable tail), or a payload that is not a
    protocol message (:func:`repro.fl.net.protocol.decode_message`)."""


def encode_frame(payload: "bytes | memoryview") -> bytes:
    """The on-wire bytes for one frame: ``>I`` length prefix + payload."""
    length = len(payload)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(length) + bytes(payload)


class FrameDecoder:
    """Incremental sans-io frame parser.

    >>> dec = FrameDecoder()
    >>> for byte in encode_frame(b"hi"):   # worst-case fragmentation
    ...     frames = dec.feed(bytes([byte]))
    >>> frames
    [b'hi']

    ``feed`` returns every frame completed by the chunk (zero or more);
    partial header/payload bytes are buffered until the rest arrives.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: "bytes | memoryview") -> "list[bytes]":
        self._buffer.extend(chunk)
        frames: "list[bytes]" = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame header announces {length} bytes, over the "
                    f"{MAX_FRAME_BYTES} cap — corrupt or hostile peer"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[_HEADER.size : end]))
            del self._buffer[:end]

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the not-yet-complete frame (0 when aligned)."""
        return len(self._buffer)


# -- scatter writes ------------------------------------------------------------


def frame_views(parts: "Iterable[object]") -> "list[memoryview]":
    """The on-wire scatter list of one frame whose payload is ``parts``
    back to back: the ``>I`` prefix, then each non-empty part as a flat
    byte view of its own memory (contiguous buffers only; nothing is
    copied)."""
    views = []
    for part in parts:
        view = memoryview(part)
        if view.nbytes:
            flat = view.format == "B" and view.ndim == 1
            views.append(view if flat else view.cast("B"))
    length = sum(view.nbytes for view in views)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return [memoryview(_HEADER.pack(length)), *views]


def send_views(
    sock: socket.socket, views: "list[memoryview]", flags: int = 0
) -> "list[memoryview]":
    """One ``sendmsg`` of the head of ``views`` (at most :data:`_IOV_MAX`
    parts); returns what is still to send.  A non-blocking attempt
    (``flags=socket.MSG_DONTWAIT``) that fits nothing raises
    ``BlockingIOError``."""
    sent = sock.sendmsg(views[:_IOV_MAX], (), flags)
    done = 0
    while done < len(views) and sent >= views[done].nbytes:
        sent -= views[done].nbytes
        done += 1
    rest = views[done:]
    if sent:
        rest[0] = rest[0][sent:]
    return rest


# -- blocking-socket shims -----------------------------------------------------


def send_frame(sock: socket.socket, *parts: object) -> int:
    """Write one frame, whose payload is ``parts`` back to back, to a
    blocking socket; returns bytes on the wire."""
    views = frame_views(parts)
    wire_bytes = sum(view.nbytes for view in views)
    while views:
        views = send_views(sock, views)
    return wire_bytes


def recv_frame(sock: socket.socket) -> "bytes | None":
    """Read exactly one frame from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameError` if the peer vanished mid-frame.
    """
    decoder = FrameDecoder()
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            if decoder.pending_bytes:
                raise FrameError(
                    f"peer closed mid-frame with {decoder.pending_bytes} bytes buffered"
                )
            return None
        frames = decoder.feed(chunk)
        if frames:
            if len(frames) > 1 or decoder.pending_bytes:
                # recv_frame is only used for strict request/response turns,
                # where the peer never pipelines a second frame.
                raise FrameError("unexpected pipelined bytes after frame")
            return frames[0]


def _recv_exact(sock: socket.socket, view: memoryview) -> int:
    """Fill ``view`` from ``sock``; returns the bytes read, short only at EOF."""
    got = 0
    while got < len(view):
        count = sock.recv_into(view[got:])
        if not count:
            break
        got += count
    return got


def recv_payload(sock: socket.socket, length: int) -> memoryview:
    """Exactly ``length`` bytes from ``sock``, received straight into their
    own buffer (an anonymous ``mmap`` from :data:`_MMAP_FROM` bytes up), as
    a read-only view; a :class:`FrameError` if the peer closes first."""
    buffer = mmap.mmap(-1, length) if length >= _MMAP_FROM else bytearray(length)
    view = memoryview(buffer)
    got = _recv_exact(sock, view)
    if got < length:
        raise FrameError(f"peer closed mid-frame: {got}/{length} payload bytes")
    return view.toreadonly()


class FrameStream:
    """A persistent framed view of one blocking socket.

    Unlike :func:`recv_frame` (strict request/response: one frame per
    turn, pipelined bytes are an error), a stream reads frame after frame,
    so a peer may pipeline them back-to-back — which the federation server
    does after the welcome (register, broadcast, and a burst of tasks can
    all be in flight at once).  Every read is exact (the prefix, then the
    payload into its own buffer), so a frame the peer sent is either
    returned or still in the socket: selector loops never have to drain
    anything decoded in user space.

    ``max_bytes`` caps the payload a prefix may announce; the server holds
    a peer to the small hello cap until it has welcomed it
    (:mod:`repro.fl.net.executor`).
    """

    def __init__(self, sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._sock = sock
        self.max_bytes = max_bytes
        self._prefix = bytearray(_HEADER.size)

    def next_frame(self) -> "memoryview | None":
        """The next frame's payload as a read-only view of its own buffer,
        blocking until it has arrived; ``None`` on a clean EOF at a frame
        boundary."""
        got = _recv_exact(self._sock, memoryview(self._prefix))
        if not got:
            return None
        if got < _HEADER.size:
            raise FrameError(f"peer closed mid-frame with {got} header bytes")
        (length,) = _HEADER.unpack(self._prefix)
        if length > self.max_bytes:
            raise FrameError(
                f"frame header announces {length} bytes, over the "
                f"{self.max_bytes} cap — corrupt or hostile peer"
            )
        return recv_payload(self._sock, length)

    def send(self, *parts: object) -> int:
        """Write one frame (payload: ``parts`` back to back) to the peer;
        returns bytes on the wire."""
        return send_frame(self._sock, *parts)
