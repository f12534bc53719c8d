"""Message vocabulary + handshake for the federation socket protocol.

Every frame payload (:mod:`repro.fl.net.frames`) is one pickled
``(kind, meta, blob)`` triple:

========== ========= =====================================================
kind       direction meaning
========== ========= =====================================================
hello      agent →   protocol version + optional pinned codec
welcome    → agent   negotiated codec/transport specs + the pickled model
reject     → agent   handshake refused; ``meta["reason"]`` says why
register   → agent   resident client registration blob (+ evictions)
registered agent →   the registration is installed (the server waits)
broadcast  → agent   round strategy blob + the state frame's handle: the
                     frame itself under ``pipe``, else ``meta["handle"]``
                     (shm segment / tcp host, port, blob id; length)
task       → agent   one ``(client_ids, round, seeds, fault)`` tuple
upload     agent →   ``encode_payload(list[ClientUpdate])`` for one task,
                     each state codec-encoded against the round's broadcast
error      agent →   ``meta["task"]`` failed (``None``: a registration or
                     broadcast did); ``meta["text"]`` is the traceback
bye        → agent   clean shutdown; the agent exits its serve loop
========== ========= =====================================================

``meta`` is a small plain dict (version numbers, spec strings, round
indices, handle fields); ``blob`` is an opaque byte string.  Blobs are
``encode_payload`` output with protocol-5 out-of-band buffers framed
inline, so the serializer round-trips untouched across the socket and
traces stay transport-invariant by construction.

The handshake is how every agent is configured, launched or remote: the
welcome carries the three values a :class:`repro.fl.wire.WorkerRuntime`
is built from (model blob, codec spec, transport spec).  An agent may
*pin* a codec spec in its hello (operators do this to refuse surprise
lossy codecs); a pin that differs from the server's negotiated spec is a
reject, not a silent override.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.fl.net.frames import FrameError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.transport import Transport

__all__ = [
    "PROTOCOL_VERSION",
    "HELLO",
    "WELCOME",
    "REJECT",
    "REGISTER",
    "REGISTERED",
    "BROADCAST",
    "TASK",
    "UPLOAD",
    "ERROR",
    "BYE",
    "Message",
    "HandshakeError",
    "encode_message",
    "decode_message",
    "hello_meta",
    "evaluate_hello",
    "broadcast_message",
    "broadcast_parts",
]

#: Bumped on any incompatible change to the message vocabulary, blob
#: encodings or codec references.  Both sides send it; a mismatch is a
#: handshake reject.
PROTOCOL_VERSION = 5

HELLO = "hello"
WELCOME = "welcome"
REJECT = "reject"
REGISTER = "register"
REGISTERED = "registered"
BROADCAST = "broadcast"
TASK = "task"
UPLOAD = "upload"
ERROR = "error"
BYE = "bye"


class HandshakeError(ConnectionError):
    """The peer rejected (or botched) the hello/welcome exchange."""


@dataclass
class Message:
    """One decoded protocol message."""

    kind: str
    meta: dict = field(default_factory=dict)
    blob: "bytes | None" = None


def encode_message(kind: str, meta: "dict | None" = None, blob: "bytes | None" = None) -> bytes:
    """Serialize one message into a frame payload."""
    return pickle.dumps(
        (kind, dict(meta or {}), None if blob is None else bytes(blob)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_message(payload: "bytes | memoryview") -> Message:
    """Parse a frame payload back into a :class:`Message`.

    Anything that is not a pickled ``(kind, meta, blob)`` triple of the
    documented types raises :class:`repro.fl.net.frames.FrameError` — one
    typed error for "this peer is not speaking the protocol", whatever the
    unpickler happened to choke on, so no caller's read loop can be crashed
    by the bytes a peer chose to send.
    """
    try:
        kind, meta, blob = pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"frame payload is not a protocol message: {exc!r}") from exc
    if (
        not isinstance(kind, str)
        or not isinstance(meta, dict)
        or not isinstance(blob, (bytes, type(None)))
    ):
        raise FrameError(
            f"malformed protocol message: ({type(kind).__name__}, "
            f"{type(meta).__name__}, {type(blob).__name__})"
        )
    return Message(kind=kind, meta=meta, blob=blob)


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


def broadcast_message(strategy_blob: bytes, handle: object, round_index: int) -> bytes:
    """One round's broadcast frame payload.  A ``pipe`` handle *is* the
    state frame, so it follows the strategy blob; any other handle crosses
    as its plain fields in ``meta["handle"]``."""
    meta = {"round": round_index, "strategy_bytes": len(strategy_blob)}
    if isinstance(handle, bytes):
        return encode_message(BROADCAST, meta, strategy_blob + handle)
    meta["handle"] = asdict(handle)
    return encode_message(BROADCAST, meta, strategy_blob)


def broadcast_parts(
    message: Message, transport: "Transport"
) -> "tuple[bytes, object, int]":
    """``(strategy_blob, handle, round_index)`` of a broadcast message, the
    handle rebuilt for the agent's negotiated ``transport``."""
    split, fields = message.meta["strategy_bytes"], message.meta.get("handle")
    handle = (
        message.blob[split:] if fields is None else transport.handle_type(**fields)
    )
    return message.blob[:split], handle, message.meta["round"]
