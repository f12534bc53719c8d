"""Cross-machine federation: sockets under the same engine invariants.

This package takes the federated round loop across machine boundaries
while keeping every trace bit-identical to the in-host engines:

:mod:`repro.fl.net.frames`
    Length-prefixed wire frames — scatter writes (``sendmsg``), exact
    reads into one buffer per frame (:class:`FrameStream`), and a sans-io
    :class:`FrameDecoder` for the request/response helpers.
:mod:`repro.fl.net.protocol`
    Message vocabulary (a ``struct`` header, JSON meta, raw buffers — no
    pickle) + the version/codec handshake: an agent's HELLO is answered by
    WELCOME (negotiated codec and transport specs + model blob) or
    REJECT.
:mod:`repro.fl.net.transport`
    :class:`TcpTransport` — the ``tcp`` entry in the transport registry.
    One post-codec broadcast blob published to an in-process asyncio blob
    server; workers pull it (and push uploads back) over TCP.
:mod:`repro.fl.net.executor`
    The socket lane of the ``run_round`` contract over agents:
    :class:`RemoteExecutor` accepts them over TCP,
    :class:`ParallelExecutor` (the in-host pool) launches its own on
    socketpairs.  Registration, per-round broadcasts, task dispatch,
    arrival-order upload ingest, deadlines/quorum and lost-agent fault
    mapping, pipelined (broadcast / train / upload overlap across agents).
:mod:`repro.fl.net.serve` / :mod:`repro.fl.net.agent`
    The standalone daemon (``python -m repro.fl.net.serve``) and the
    client agent (``python -m repro.fl.net.agent``; the pool runs its serve
    loop in-host).

Everything here reuses the existing wire contract (`ClientUpdate`,
codec reference chains, `WireStats`, fault plans, deadlines, streaming
folds) — the socket is a new hop, not a new round protocol.  What crosses
it is plain: task fields and handles as JSON, a registration as JSON —
each suite-built client as a recipe its agent renders, any other client
with the raw bytes of its arrays, sent from the server's own memory.
The broadcast's state frame and each upload are typed messages too (their
arrays as buffers that decode straight from the received frame), so the
server unpickles nothing; the two blobs that are still ``encode_payload``
pickles (the welcome's model template, the broadcast's strategy) ride as
opaque buffers that only an agent decodes.
"""

from repro.fl.net.frames import (
    FrameDecoder,
    FrameError,
    FrameStream,
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.fl.net.protocol import (
    PROTOCOL_VERSION,
    HandshakeError,
    Message,
    decode_message,
    encode_message,
)
from repro.fl.net.transport import TcpHandle, TcpTransport
from repro.fl.net.executor import RemoteExecutor

__all__ = [
    "FrameDecoder",
    "FrameError",
    "FrameStream",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "recv_frame",
    "send_frame",
    "PROTOCOL_VERSION",
    "HandshakeError",
    "Message",
    "decode_message",
    "encode_message",
    "TcpHandle",
    "TcpTransport",
    "RemoteExecutor",
]
