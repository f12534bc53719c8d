"""Message vocabulary + handshake for the federation socket protocol.

Every frame payload (:mod:`repro.fl.net.frames`) is one message: a fixed
``struct`` header, a UTF-8 JSON *meta* object of plain fields, and zero
or more raw buffers, back to back::

    >BII        kind (index into KINDS), meta length, buffer count
    >I * count  each buffer's length
    meta        compact JSON object
    buffers     the buffers themselves, in order, each starting at the
                next multiple of 8 bytes into the payload (zero padding)

The alignment is what lets an array read in place from a received frame
(a registered client's images, a state frame's or an upload's tensors) be
an aligned numpy array: a frame's payload buffer itself starts aligned.

:func:`message_parts` returns those pieces as a scatter list — header,
meta and the caller's own buffers, never joined — which the lanes write
with one ``socket.sendmsg``; :func:`decode_message` parses a received
payload with ``struct`` and ``json`` only and hands the buffers out as
``memoryview`` slices of the frame.  Nothing here unpickles anything:
bytes that do not parse as a message are one typed
:class:`~repro.fl.net.frames.FrameError`.

========== ========= =====================================================
kind       direction meta / buffers
========== ========= =====================================================
hello      agent →   ``{version, name, codec?}``: protocol version and an
                     optional pinned codec
welcome    → agent   ``{version, codec, transport}`` + one buffer, the
                     pickled model template
reject     → agent   ``{reason}``: the handshake is refused
register   → agent   ``{clients: [{id, recipe} | {id, arrays}], evict:
                     [ids]}``; a ``recipe`` is ``{suite: {builder, args},
                     parts: [[domain, [rows]]]}``, rendered by the agent;
                     an ``arrays`` client's ``images`` / ``labels`` /
                     ``domain_ids`` are named in place (below) and come
                     as buffers, sent from the server's own arrays
                     (:class:`repro.fl.wire.Registration`)
registered agent →   ``{digests: [[suite, domain, sha256]]}``: installed
                     (the server waits), with each recipe domain's digest
broadcast  → agent   ``{round, handle?}`` + the strategy blob and, under
                     ``pipe``, the state frame as a second buffer; any
                     other transport's handle is ``meta["handle"]``
                     (shm segment and length; tcp host, port, blob id,
                     length)
state      → agent   ``{state}`` + its arrays: the round's codec-encoded
                     global state, published through the transport
                     (:func:`repro.fl.wire.encode_state_frame`)
task       → agent   ``{task, clients, round, seeds, fault}``; ``fault`` is
                     a :class:`~repro.fl.faults.FaultEvent`'s fields or
                     ``null``
upload     agent →   ``{task, updates}`` + their arrays: one row per
                     ``ClientUpdate`` of the task, its state codec-encoded
                     against the round's broadcast
                     (:func:`repro.fl.wire.encode_upload`)
error      agent →   ``{task, text}``: handling a message raised
                     (``task`` is ``null`` for a registration or broadcast);
                     ``text`` is the traceback
bye        → agent   clean shutdown; the agent exits its serve loop
========== ========= =====================================================

Arrays and blobs inside meta are named in place (:func:`encode_tree`):
an array as ``{"a": [dtype, shape]}``, a blob as ``{"b": nbytes}``, each
standing for the next buffer; a dict is ``{"d": [[key, value], ...]}``, so
integer keys survive.  :func:`decode_tree` reads them back as read-only
views of the buffers, refusing any dtype outside the wire's allow-list
(:func:`repro.fl.codec.wire_dtype`), a shape its bytes do not fill, and a
buffer count the meta does not name.  A registration's inline arrays, a
state frame and an upload all cross that way.  Two buffers are still
pickles (``encode_payload``; ROADMAP items 2b and 14): the welcome's model
template and the broadcast's strategy blob, which only an agent decodes,
from the server it dialled.  Every other field crosses as JSON or as raw
array bytes, so the server unpickles nothing.

The handshake is how every agent is configured, launched or remote: the
welcome carries the three values a :class:`repro.fl.wire.WorkerRuntime`
is built from (model blob, codec spec, transport spec).  An agent may
*pin* a codec spec in its hello (operators do this to refuse surprise
lossy codecs); a pin that differs from the server's negotiated spec is a
reject, not a silent override.  Until it is welcomed, a peer's frames are
capped at :data:`MAX_HELLO_BYTES`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.fl.codec import wire_dtype
from repro.fl.net.frames import FrameError
from repro.nn.serialize import encode_meta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.transport import Transport

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_HELLO_BYTES",
    "KINDS",
    "HELLO",
    "WELCOME",
    "REJECT",
    "REGISTER",
    "REGISTERED",
    "BROADCAST",
    "STATE",
    "TASK",
    "UPLOAD",
    "ERROR",
    "BYE",
    "Message",
    "HandshakeError",
    "message_parts",
    "encode_message",
    "decode_message",
    "encode_tree",
    "decode_tree",
    "message_nbytes",
    "hello_meta",
    "evaluate_hello",
    "broadcast_message",
    "broadcast_parts",
]

#: Bumped on any incompatible change to the message vocabulary, blob
#: encodings or codec references.  Both sides send it; a mismatch is a
#: handshake reject.
PROTOCOL_VERSION = 8

#: The largest frame a peer may send before it is welcomed.  A hello is
#: well under 1 KiB; the cap bounds what an unknown peer can make the
#: server allocate.
MAX_HELLO_BYTES = 1 << 16

HELLO = "hello"
WELCOME = "welcome"
REJECT = "reject"
REGISTER = "register"
REGISTERED = "registered"
BROADCAST = "broadcast"
STATE = "state"
TASK = "task"
UPLOAD = "upload"
ERROR = "error"
BYE = "bye"

#: Wire order of the kinds: the header carries the index.
KINDS = (
    HELLO, WELCOME, REJECT, REGISTER, REGISTERED, BROADCAST, TASK, UPLOAD, ERROR, BYE,
    STATE,
)
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

_HEAD = struct.Struct(">BII")
_LENGTH = struct.Struct(">I")
#: Every buffer starts at a multiple of this many bytes into the payload.
_ALIGN = 8
_PADDING = bytes(_ALIGN)


class HandshakeError(ConnectionError):
    """The peer rejected (or botched) the hello/welcome exchange."""


@dataclass
class Message:
    """One decoded protocol message: views of the frame's buffers."""

    kind: str
    meta: dict
    buffers: "tuple[memoryview, ...]" = ()

    @property
    def blob(self) -> "memoryview | None":
        """The first buffer (a welcome's only one)."""
        return self.buffers[0] if self.buffers else None


def message_parts(kind: str, meta: "dict | None" = None, *buffers: object) -> list:
    """One message as a scatter list: header, meta, then ``buffers``
    themselves (any contiguous bytes-like; none is copied)."""
    meta_bytes = encode_meta(meta or {})
    lengths = [memoryview(buffer).nbytes for buffer in buffers]
    head = _HEAD.pack(_KIND_CODES[kind], len(meta_bytes), len(lengths))
    parts = [head + struct.pack(f">{len(lengths)}I", *lengths), meta_bytes]
    offset = len(parts[0]) + len(meta_bytes)
    for buffer, length in zip(buffers, lengths):
        pad = -offset % _ALIGN
        if pad:
            parts.append(_PADDING[:pad])
        parts.append(buffer)
        offset += pad + length
    return parts


def encode_message(kind: str, meta: "dict | None" = None, *buffers: object) -> bytes:
    """One message as a single bytes payload: a state frame, which the
    transport publishes as one blob (the lanes send :func:`message_parts`
    without joining)."""
    return b"".join(message_parts(kind, meta, *buffers))


def decode_message(payload: "bytes | memoryview") -> Message:
    """Parse a frame payload back into a :class:`Message`, zero-copy: the
    buffers are views of ``payload``.

    Anything that is not a well-formed message — a short or unknown
    header, lengths that do not add up to the payload, meta that is not a
    UTF-8 JSON object — raises :class:`repro.fl.net.frames.FrameError`,
    one typed error for "this peer is not speaking the protocol", so no
    caller's read loop can be crashed by the bytes a peer chose to send.
    """
    view = memoryview(payload)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    if len(view) < _HEAD.size:
        raise FrameError(f"{len(view)}-byte payload is shorter than a message header")
    code, meta_length, count = _HEAD.unpack_from(view)
    if code >= len(KINDS):
        raise FrameError(f"unknown message kind {code}")
    offset = _HEAD.size + _LENGTH.size * count
    if offset + meta_length > len(view):
        raise FrameError(
            f"message header announces {count} buffer(s) and {meta_length} "
            f"meta bytes, beyond its {len(view)}-byte payload"
        )
    lengths = struct.unpack_from(f">{count}I", view, _HEAD.size)
    meta_view = view[offset : offset + meta_length]
    offset += meta_length
    starts = []
    for length in lengths:
        offset += -offset % _ALIGN
        starts.append(offset)
        offset += length
    if offset != len(view):
        raise FrameError(
            f"message parts add up to {offset} bytes, its payload is {len(view)}"
        )
    try:
        meta = json.loads(str(meta_view, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"message meta is not JSON: {exc!r}") from exc
    if not isinstance(meta, dict):
        raise FrameError(f"message meta is a {type(meta).__name__}, not an object")
    buffers = tuple(
        view[start : start + length] for start, length in zip(starts, lengths)
    )
    return Message(KINDS[code], meta, buffers)


def message_nbytes(meta: dict, buffers: "Sequence[object]") -> int:
    """What a message carries, as the wire accounting charges it: its
    meta's encoding plus its buffers."""
    return len(encode_meta(meta)) + sum(memoryview(b).nbytes for b in buffers)


def encode_tree(value: object, buffers: list) -> object:
    """``value`` as JSON meta, the bytes of its arrays and blobs appended to
    ``buffers`` (never copied, save a non-contiguous array made contiguous):
    an array as ``{"a": [dtype, shape]}``, a blob (``bytes`` or
    ``memoryview``) as ``{"b": nbytes}``, a dict as ``{"d": [[key, value],
    ...]}``, a list or tuple as a list, anything else as itself."""
    if isinstance(value, np.ndarray):
        shape = list(value.shape)
        value = np.ascontiguousarray(value)
        buffers.append(value.reshape(-1).view(np.uint8))
        return {"a": [value.dtype.str, shape]}
    if isinstance(value, (bytes, memoryview)):
        buffers.append(value)
        return {"b": memoryview(value).nbytes}
    if isinstance(value, dict):
        return {"d": [[key, encode_tree(item, buffers)] for key, item in value.items()]}
    if isinstance(value, (list, tuple)):
        return [encode_tree(item, buffers) for item in value]
    return value


def decode_tree(node: object, buffers: "Sequence[object]") -> object:
    """Inverse of :func:`encode_tree` over all of a message's ``buffers``:
    arrays and blobs come back as read-only views of them, tuples as lists.
    A :class:`ValueError` (or the ``TypeError`` of a node of the wrong
    type) if a node, dtype, shape or the buffer count does not fit."""
    rest = iter(buffers)
    value = _untree(node, rest)
    if next(rest, None) is not None:
        raise ValueError("message carries more buffers than its meta names")
    return value


def _untree(node: object, buffers: "Iterator") -> object:
    if isinstance(node, list):
        return [_untree(item, buffers) for item in node]
    if not isinstance(node, dict):
        return node
    ((tag, body),) = node.items()
    if tag == "d" and isinstance(body, list):
        return {key: _untree(item, buffers) for key, item in body}
    buffer = next(buffers, None)
    if buffer is None:
        raise ValueError("message carries fewer buffers than its meta names")
    if tag == "a" and isinstance(body, list) and len(body) == 2:
        return _array(*body, buffer)
    if tag == "b" and body == memoryview(buffer).nbytes:
        return memoryview(buffer).toreadonly()
    raise ValueError(f"malformed meta node {node!r}"[:200])


def _array(dtype: object, shape: object, buffer: object) -> np.ndarray:
    """The array of ``dtype`` and ``shape`` that ``buffer`` holds,
    read-only and zero-copy."""
    if not isinstance(shape, list) or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise ValueError(f"wire array shape {shape!r} is malformed")
    array = np.frombuffer(buffer, dtype=wire_dtype(dtype))
    if array.size != math.prod(shape):
        raise ValueError(f"wire array of shape {shape} arrived as {array.size} items")
    array = array.reshape(shape)
    array.flags.writeable = False
    return array


def hello_meta(name: str = "", codec: "str | None" = None) -> dict:
    """The meta dict an agent sends in its hello.  ``codec`` is an
    optional *pin*: the agent refuses to run under any other spec."""
    meta = {"version": PROTOCOL_VERSION, "name": name}
    if codec is not None:
        meta["codec"] = codec
    return meta


def evaluate_hello(meta: dict, *, codec_spec: str) -> "str | None":
    """Server-side hello check: the reject reason, or ``None`` to welcome.

    ``codec_spec`` is the server's negotiated spec (the string its welcome
    ships).
    """
    version = meta.get("version")
    if version != PROTOCOL_VERSION:
        return (
            f"protocol version mismatch: agent speaks {version!r}, "
            f"server speaks {PROTOCOL_VERSION}"
        )
    pinned_codec = meta.get("codec")
    if pinned_codec is not None and pinned_codec != codec_spec:
        return (
            f"codec mismatch: agent pinned {pinned_codec!r}, "
            f"server negotiated {codec_spec!r}"
        )
    return None


def broadcast_message(strategy_blob: bytes, handle: object, round_index: int) -> list:
    """One round's broadcast as a scatter list.  A ``pipe`` handle *is* the
    state frame, so it crosses as the second buffer; any other handle
    crosses as its plain fields in ``meta["handle"]``."""
    if isinstance(handle, (bytes, memoryview)):
        return message_parts(BROADCAST, {"round": round_index}, strategy_blob, handle)
    meta = {"round": round_index, "handle": asdict(handle)}
    return message_parts(BROADCAST, meta, strategy_blob)


def broadcast_parts(
    message: Message, transport: "Transport"
) -> "tuple[memoryview, object, int]":
    """``(strategy_blob, handle, round_index)`` of a broadcast message, the
    handle rebuilt for the agent's negotiated ``transport``."""
    fields = message.meta.get("handle")
    handle = message.buffers[1] if fields is None else transport.handle_type(**fields)
    return message.buffers[0], handle, message.meta["round"]
