"""``tcp``: socket broadcast behind the Transport API.

The server side runs a tiny in-process **blob server** — an asyncio
length-prefixed-frame service on a daemon thread, started lazily on the
first :meth:`TcpTransport.publish`.  Publishing stores the post-codec
broadcast blob once under a blob id; the handle shipped to each worker is
a :class:`TcpHandle` naming the endpoint, blob id, and length.  Workers
:meth:`~TcpTransport.fetch` by opening a plain blocking connection and
exchanging one request/response frame pair — so the bytes that cross are
exactly the bytes ``publish`` was given (a ``state`` message), received
into one buffer of their own, and traces stay bit-identical to pipe/shm by
construction.

The blob server only serves broadcasts: it answers a get and closes any
other request unanswered, so nothing a peer sends is stored.  Uploads ride
the agent's upload frame on its lane socket, as under every transport.

Spec forms: ``tcp`` binds loopback on an ephemeral port; ``tcp:host:port``
binds where told (``port`` may be 0 for ephemeral).  Worker-side endpoints
never bind at all — they dial whatever endpoint each handle names — so the
same spec string builds both roles, exactly like pipe/shm.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass

from repro.fl.net.frames import (
    MAX_FRAME_BYTES,
    FrameError,
    frame_views,
    recv_payload,
    send_frame,
)
from repro.fl.transport import Transport
from repro.utils.logging import get_logger

__all__ = ["TcpTransport", "TcpHandle", "parse_endpoint"]

_log = get_logger("fl.net.transport")

#: Seconds a worker waits to reach the blob server before declaring the
#: broadcast unfetchable (the blob only exists server-side).
_CONNECT_TIMEOUT = 10.0

_FOUND = b"\x01"
_MISSING = b"\x00"

#: The blob server's one request: the tag ``G`` + big-endian ``u64`` blob
#: id.  Plain bytes, never unpickled: anything that can reach the port can
#: send them.
_GET = b"G"
_BLOB_ID = struct.Struct(">Q")

#: What a worker reads of a reply before the blob: the frame's length
#: prefix and the status byte.
_REPLY_HEAD = struct.Struct(">Ic")
_FRAME_LENGTH = struct.Struct(">I")


def parse_endpoint(
    params: "str | None", default_host: str = "127.0.0.1"
) -> "tuple[str, int]":
    """``"host:port"`` -> ``(host, port)``; ``None``/empty means loopback
    ephemeral.  A bare ``"port"`` binds that port on the default host."""
    if not params:
        return (default_host, 0)
    host, sep, port_text = params.rpartition(":")
    if not sep:
        host, port_text = default_host, params
    if not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad tcp endpoint {params!r}: expected host:port with an integer port"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bad tcp endpoint {params!r}: port out of range")
    return (host, port)


@dataclass(frozen=True)
class TcpHandle:
    """What crosses the task pipe under tcp: where to dial and what to ask
    for.  Carrying the endpoint in the handle (rather than the spec) is
    what lets ephemeral-port servers and post-rebuild restarts work — the
    worker always dials whatever the *current* publish bound."""

    host: str
    port: int
    blob_id: int
    length: int


# The blob server's asyncio frame shims.  asyncio (and the ssl it imports)
# loads only when a blob server runs: every other process imports this
# package without it.


async def _read_frame(reader) -> "bytes | None":
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_FRAME_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"peer closed mid-frame with {len(exc.partial)} header bytes"
        ) from exc
    (length,) = _FRAME_LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame header announces {length} bytes, over the {MAX_FRAME_BYTES} cap"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"peer closed mid-frame: {len(exc.partial)}/{length} payload bytes"
        ) from exc


async def _write_frame(writer, *parts: object) -> None:
    """Write one frame, whose payload is ``parts`` back to back, to an
    asyncio stream and drain.  The parts are written as they are, never
    joined."""
    for view in frame_views(parts):
        writer.write(view)
    await writer.drain()


class _BlobServer:
    """The asyncio frame service backing one server-side TcpTransport.

    A request is ``_GET`` plus a blob id, answered with a status byte +
    blob; anything else closes the connection.  One request/response turn
    per connection per call keeps the worker side a dumb blocking socket
    with no demultiplexing.
    Runs its own event loop on a daemon thread so the executor's
    synchronous round loop never has to be async-aware.
    """

    def __init__(self, host: str, port: int) -> None:
        self._bind = (host, port)
        self._store: "dict[int, bytes]" = {}
        self._lock = threading.Lock()
        self._loop = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None
        self.address: "tuple[str, int] | None" = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-tcp-wire", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("tcp blob server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"tcp blob server could not bind {self._bind[0]}:{self._bind[1]}"
            ) from self._startup_error

    def _run(self) -> None:
        import asyncio

        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = None
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._serve_connection, *self._bind)
            )
            host, port = server.sockets[0].getsockname()[:2]
            self.address = (host, port)
            self._started.set()
            loop.run_forever()
        except Exception as exc:
            self._startup_error = exc
            self._started.set()
        finally:
            if server is not None:
                server.close()
                loop.run_until_complete(server.wait_closed())
            loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
        with self._lock:
            self._store.clear()

    # -- request handling ----------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    break
                op, body = frame[:1], frame[1:]
                if op == _GET and len(body) == _BLOB_ID.size:
                    (blob_id,) = _BLOB_ID.unpack(body)
                    with self._lock:
                        blob = self._store.get(blob_id)
                    if blob is None:
                        await _write_frame(writer, _MISSING)
                    else:
                        await _write_frame(writer, _FOUND, blob)
                else:
                    break
        except (FrameError, ConnectionError, OSError):
            pass  # a vanished peer is the caller's problem, not the server's
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- store ---------------------------------------------------------------

    def put_blob(self, blob_id: int, blob: bytes) -> None:
        with self._lock:
            self._store[blob_id] = blob

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


class TcpTransport(Transport):
    """Socket broadcast via the blob server; see the module docstring.

    One instance per endpoint role: the server's (created by the executor)
    lazily starts a :class:`_BlobServer` on first publish; each agent's
    (rebuilt from the same spec named in the handshake welcome) never binds
    anything and only dials the endpoints its handles name.
    """

    name = "tcp"
    handle_type = TcpHandle

    def __init__(self, params: "str | None" = None) -> None:
        self._params = params or None
        self._bind = parse_endpoint(self._params)
        self._server: "_BlobServer | None" = None
        self._next_blob_id = 0

    @property
    def spec(self) -> str:
        return "tcp" if self._params is None else f"tcp:{self._params}"

    # -- server role ---------------------------------------------------------

    def _ensure_server(self) -> _BlobServer:
        if self._server is None:
            server = _BlobServer(*self._bind)
            server.start()
            self._server = server
            _log.info(
                "tcp blob server listening on %s:%d", *server.address
            )
        return self._server

    def _advertise_host(self) -> str:
        host = self._server.address[0]
        # A wildcard bind is reachable on loopback for in-host pool workers
        # (remote agents never dial TcpHandles — their broadcasts arrive
        # inline on the agent connection).
        return "127.0.0.1" if host in ("0.0.0.0", "::") else host

    def publish(self, blob: bytes) -> TcpHandle:
        server = self._ensure_server()
        blob_id = self._next_blob_id
        self._next_blob_id += 1
        server.put_blob(blob_id, bytes(blob))
        return TcpHandle(
            host=self._advertise_host(),
            port=server.address[1],
            blob_id=blob_id,
            length=len(blob),
        )

    def handle_wire_bytes(self, handle: object) -> int:
        # Each worker pulls a full copy over its own connection, plus the
        # handle's fields in its broadcast message — honest per-worker
        # cost, same shape as pipe.
        return super().handle_wire_bytes(handle) + handle.length

    def end_round(self) -> None:
        # Same lifecycle as shm's segment unlink: once the round's uploads
        # are in, its blobs are dead weight.  A deadline-dropped task that
        # fetches after this point gets a ConnectionError on its own agent
        # (an error frame the server discards by id), exactly like one
        # attaching an unlinked segment.
        if self._server is not None:
            self._server.clear()

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- worker role ---------------------------------------------------------

    def fetch(self, handle: object) -> memoryview:
        """The blob, read off the socket straight into its own buffer (the
        reply's prefix and status byte first, then exactly the blob's
        bytes), so it is received once, not copied after."""
        if not isinstance(handle, TcpHandle):
            raise TypeError(
                f"tcp transport received a {type(handle).__name__} handle; "
                f"the endpoints negotiated different transports"
            )
        with socket.create_connection(
            (handle.host, handle.port), timeout=_CONNECT_TIMEOUT
        ) as sock:
            send_frame(sock, _GET + _BLOB_ID.pack(handle.blob_id))
            try:
                head = _REPLY_HEAD.unpack(recv_payload(sock, _REPLY_HEAD.size))
                if head == (handle.length + 1, _FOUND):
                    return recv_payload(sock, handle.length)
            except FrameError:
                pass  # the peer closed early: the blob is not there
        raise ConnectionError(
            f"broadcast blob {handle.blob_id} of {handle.length} bytes unavailable "
            f"at {handle.host}:{handle.port} (round already ended?)"
        )
