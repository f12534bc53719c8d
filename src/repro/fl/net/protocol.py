"""Message vocabulary + handshake for the federation socket protocol.

Every frame payload (:mod:`repro.fl.net.frames`) is one pickled
``(kind, meta, blob)`` triple:

========== ========= =====================================================
kind       direction meaning
========== ========= =====================================================
hello      agent →   protocol version + optional pinned codec
welcome    → agent   negotiated codec/transport specs + the pickled model
reject     → agent   handshake refused; ``meta["reason"]`` says why
register   → agent   pool-resident client registration blob (+ evictions)
broadcast  → agent   round strategy blob + codec-encoded global state
task       → agent   one ``(client_ids, round, seeds, fault)`` tuple
upload     agent →   ``encode_payload(list[ClientUpdate])`` for one task
bye        → agent   clean shutdown; the agent exits its serve loop
========== ========= =====================================================

``meta`` is a small plain dict (version numbers, spec strings, round
indices); ``blob`` is an opaque byte string.  Blobs are always the *same
bytes* the in-host engine would have put on its pipes —
``encode_payload`` output with protocol-5 out-of-band buffers framed
inline — so the serializer round-trips untouched across the socket and
traces stay transport-invariant by construction.

The handshake mirrors pool build: an in-host worker is configured by
``_worker_init(model_blob, codec_spec, transport_spec)`` initargs; a
remote agent gets the identical three values via hello/welcome.  An agent may *pin* a codec spec in its hello (operators
do this to refuse surprise lossy codecs); a pin that differs from the
server's negotiated spec is a reject, not a silent override.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.fl.net.frames import FrameError

__all__ = [
    "PROTOCOL_VERSION",
    "HELLO",
    "WELCOME",
    "REJECT",
    "REGISTER",
    "BROADCAST",
    "TASK",
    "UPLOAD",
    "BYE",
    "Message",
    "HandshakeError",
    "encode_message",
    "decode_message",
    "hello_meta",
    "evaluate_hello",
]

#: Bumped on any incompatible change to the message vocabulary or blob
#: encodings.  Both sides send it; a mismatch is a handshake reject.
PROTOCOL_VERSION = 3

HELLO = "hello"
WELCOME = "welcome"
REJECT = "reject"
REGISTER = "register"
BROADCAST = "broadcast"
TASK = "task"
UPLOAD = "upload"
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

    ``codec_spec`` is the server's negotiated spec (the same string an
    in-host pool would ship in initargs).
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
