"""``tcp``: socket broadcast + upload streaming behind the Transport API.

The server side runs a tiny in-process **blob server** — an asyncio
length-prefixed-frame service on a daemon thread, started lazily on the
first :meth:`TcpTransport.publish`.  Publishing stores the post-codec
broadcast blob once under a blob id; the handle shipped to each worker is
a :class:`TcpHandle` naming the endpoint, blob id, and length.  Workers
:meth:`~TcpTransport.fetch` by opening a plain blocking connection and
exchanging one request/response frame pair — so the bytes that cross are
exactly the bytes ``publish`` was given, protocol-5 out-of-band framing
and all, and traces stay bit-identical to pipe/shm by construction.

Uploads stream back over the same socket: :meth:`~TcpTransport.send_upload`
pushes the encoded update blob to the blob server and returns a tiny
marker that rides the pool's result pipe; :meth:`~TcpTransport.recv_upload`
redeems the marker server-side.  If the push cannot reach the server (a
zombie straggler finishing after executor close, say) the blob falls back
to riding the result pipe inline — degraded accounting, never a wedge.

Spec forms: ``tcp`` binds loopback on an ephemeral port; ``tcp:host:port``
binds where told (``port`` may be 0 for ephemeral).  Worker-side endpoints
never bind at all — they dial whatever endpoint each handle names — so the
same spec string builds both roles, exactly like pipe/shm.
"""

from __future__ import annotations

import pickle
import secrets
import socket
import struct
import threading
from dataclasses import dataclass

from repro.fl.net.frames import recv_frame, send_frame
from repro.fl.transport import Transport
from repro.utils.logging import get_logger

__all__ = ["TcpTransport", "TcpHandle", "parse_endpoint"]

_log = get_logger("fl.net.transport")

#: Seconds a worker waits to reach the blob server before declaring the
#: broadcast unfetchable (a fetch failure, unlike an upload push failure,
#: has no inline fallback — the blob only exists server-side).
_CONNECT_TIMEOUT = 10.0

#: Marker prefix for redeemable uploads on the result pipe.  Distinct from
#: the serializer's ``RPB5`` magic, so the inline fallback (a raw
#: ``encode_payload`` blob) can never be mistaken for a marker.
_UPLOAD_MAGIC = b"RTU1"
_UPLOAD_HEAD = struct.Struct(">I")

_FOUND = b"\x01"
_MISSING = b"\x00"

#: The blob server's two requests: a one-byte op tag, then fixed fields —
#: ``G`` + big-endian ``u64`` blob id, ``P`` + upload token + blob.  Plain
#: bytes, never unpickled: anything that can reach the port can send them.
_GET = b"G"
_PUT = b"P"
_BLOB_ID = struct.Struct(">Q")
_TOKEN_BYTES = 16


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


class _BlobServer:
    """The asyncio frame service backing one server-side TcpTransport.

    Requests are a tag byte plus fixed fields (``_GET`` / ``_PUT``) — a get
    answered with a status byte + blob, a put with ``b"ok"``; anything else
    closes the connection — one request/response turn per connection per
    call, which keeps the worker side a dumb blocking socket with no
    demultiplexing.
    Runs its own event loop on a daemon thread so the executor's
    synchronous round loop never has to be async-aware.
    """

    def __init__(self, host: str, port: int) -> None:
        self._bind = (host, port)
        self._store: "dict[tuple[str, object], bytes]" = {}
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
        from repro.fl.net.frames import FrameError, read_frame, write_frame

        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                op, body = frame[:1], frame[1:]
                if op == _GET and len(body) == _BLOB_ID.size:
                    (blob_id,) = _BLOB_ID.unpack(body)
                    with self._lock:
                        blob = self._store.get(("blob", blob_id))
                    if blob is None:
                        await write_frame(writer, _MISSING)
                    else:
                        await write_frame(writer, _FOUND + blob)
                elif op == _PUT and len(body) >= _TOKEN_BYTES:
                    token, blob = body[:_TOKEN_BYTES], body[_TOKEN_BYTES:]
                    with self._lock:
                        self._store[("upload", token)] = blob
                    await write_frame(writer, b"ok")
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
            self._store[("blob", blob_id)] = blob

    def pop_upload(self, token: bytes) -> "bytes | None":
        with self._lock:
            return self._store.pop(("upload", token), None)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()


class TcpTransport(Transport):
    """Socket broadcast via the blob server; see the module docstring.

    One instance per endpoint role: the server's (created by the executor)
    lazily starts a :class:`_BlobServer` on first publish; each worker's
    (rebuilt from the same spec in ``_worker_init``) never binds anything
    and only dials the endpoints its handles name.
    """

    name = "tcp"

    def __init__(self, params: "str | None" = None) -> None:
        self._params = params or None
        self._bind = parse_endpoint(self._params)
        self._server: "_BlobServer | None" = None
        self._next_blob_id = 0
        # Worker role: the blob-server endpoint seen on the latest fetch —
        # uploads push back to wherever the broadcast came from.
        self._upload_endpoint: "tuple[str, int] | None" = None

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
        # pickled handle in its broadcast message — honest per-worker cost,
        # same shape as pipe.
        handle_len = len(pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL))
        return handle_len + getattr(handle, "length", 0)

    def end_round(self) -> None:
        # Same lifecycle as shm's segment unlink: once the round's uploads
        # are in, its blobs are dead weight, and any upload not redeemed by
        # round close belongs to a deadline-dropped zombie.  A zombie that
        # fetches after this point gets a ConnectionError in its own
        # worker, exactly like a zombie attaching an unlinked segment.
        if self._server is not None:
            self._server.clear()

    def close(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    # -- worker role ---------------------------------------------------------

    def fetch(self, handle: object) -> bytes:
        if not isinstance(handle, TcpHandle):
            raise TypeError(
                f"tcp transport received a {type(handle).__name__} handle; "
                f"the endpoints negotiated different transports"
            )
        self._upload_endpoint = (handle.host, handle.port)
        with socket.create_connection(
            (handle.host, handle.port), timeout=_CONNECT_TIMEOUT
        ) as sock:
            send_frame(sock, _GET + _BLOB_ID.pack(handle.blob_id))
            reply = recv_frame(sock)
        if not reply or reply[:1] != _FOUND:
            raise ConnectionError(
                f"broadcast blob {handle.blob_id} unavailable at "
                f"{handle.host}:{handle.port} (round already ended?)"
            )
        blob = reply[1:]
        if len(blob) != handle.length:
            raise ConnectionError(
                f"broadcast blob {handle.blob_id} truncated: "
                f"{len(blob)}/{handle.length} bytes"
            )
        return blob

    # -- upload channel ------------------------------------------------------

    def send_upload(self, blob: bytes) -> bytes:
        endpoint = self._upload_endpoint
        if endpoint is None:  # pragma: no cover - tasks always fetch first
            return blob
        token = secrets.token_hex(_TOKEN_BYTES // 2).encode("ascii")
        try:
            with socket.create_connection(endpoint, timeout=_CONNECT_TIMEOUT) as sock:
                send_frame(sock, _PUT + token + blob)
                reply = recv_frame(sock)
            if reply != b"ok":  # pragma: no cover - defensive
                return blob
        except OSError:
            # The blob server is gone (executor closed under a zombie
            # straggler) — ride the result pipe inline rather than wedge.
            return blob
        return _UPLOAD_MAGIC + _UPLOAD_HEAD.pack(len(blob)) + token

    def recv_upload(self, wire: bytes) -> bytes:
        if wire[: len(_UPLOAD_MAGIC)] != _UPLOAD_MAGIC:
            return wire  # inline fallback blob
        token = bytes(wire[len(_UPLOAD_MAGIC) + _UPLOAD_HEAD.size :])
        blob = self._server.pop_upload(token) if self._server is not None else None
        if blob is None:
            raise ConnectionError(f"upload {token!r} missing from the blob server")
        (length,) = _UPLOAD_HEAD.unpack_from(wire, len(_UPLOAD_MAGIC))
        if len(blob) != length:  # pragma: no cover - defensive
            raise ConnectionError(f"upload {token!r} truncated: {len(blob)}/{length}")
        return blob
