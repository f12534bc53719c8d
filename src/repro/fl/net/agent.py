"""Remote client agent: the worker process of a cross-machine federation.

``python -m repro.fl.net.agent --connect host:port`` dials a
:class:`repro.fl.net.executor.RemoteExecutor` (or the standalone daemon,
:mod:`repro.fl.net.serve`), performs the hello/welcome handshake, and
then serves the federation protocol until the server says goodbye:
registrations make clients resident, broadcasts install each round's
strategy and (lazily decoded) global state, tasks train co-resident
client groups, and each task's updates stream straight back as an
upload frame.

The entire training side is :class:`repro.fl.executor.WorkerRuntime` —
the same object a pool worker runs — built from the four negotiated
values the welcome carries (model blob, codec, transport, compute),
which are byte-for-byte the pool's initargs.  One runtime per
connection, held in locals rather than module globals, so
:func:`run_agent` is equally usable as a thread target (the in-process
tests run several agents in one interpreter) and as a process
entrypoint.
"""

from __future__ import annotations

import argparse
import pickle
import socket
import sys
import time

from repro.fl.executor import WorkerRuntime
from repro.fl.net.frames import FrameStream
from repro.fl.net.protocol import (
    BROADCAST,
    BYE,
    HELLO,
    REGISTER,
    REJECT,
    TASK,
    UPLOAD,
    WELCOME,
    HandshakeError,
    decode_message,
    encode_message,
    hello_meta,
)
from repro.fl.net.transport import parse_endpoint
from repro.utils.logging import get_logger

__all__ = ["run_agent", "main"]

_log = get_logger("fl.net.agent")

#: How long a starting agent keeps retrying the initial connect — agents
#: and the server race to start in CI, and the agent losing the race by a
#: second is routine, not an error.
_CONNECT_RETRY_SECONDS = 30.0
_CONNECT_RETRY_DELAY = 0.2


def _connect(host: str, port: int, retry_seconds: float) -> socket.socket:
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            return socket.create_connection((host, port), timeout=30.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(_CONNECT_RETRY_DELAY)


def run_agent(
    connect: "str | tuple[str, int]",
    name: str = "",
    codec: "str | None" = None,
    retry_seconds: float = _CONNECT_RETRY_SECONDS,
) -> int:
    """Serve one federation connection to completion; returns the number
    of tasks trained.

    ``connect`` is ``"host:port"`` (or a ready tuple).  ``codec`` is an
    optional *pin*: the agent refuses — and the server rejects the
    handshake — if the federation negotiated anything else.
    Raises :class:`repro.fl.net.protocol.HandshakeError` on a reject.
    """
    host, port = (
        parse_endpoint(connect) if isinstance(connect, str) else connect
    )
    sock = _connect(host, port, retry_seconds)
    tasks_served = 0
    try:
        sock.settimeout(None)
        stream = FrameStream(sock)
        stream.send(encode_message(HELLO, hello_meta(name=name, codec=codec)))
        frame = stream.next_frame()
        if frame is None:
            raise HandshakeError("server closed during handshake")
        message = decode_message(frame)
        if message.kind == REJECT:
            raise HandshakeError(
                message.meta.get("reason", "handshake rejected")
            )
        if message.kind != WELCOME:
            raise HandshakeError(
                f"expected welcome, got {message.kind!r}"
            )
        runtime = WorkerRuntime(
            message.blob,
            message.meta["codec"],
            message.meta.get("transport", "pipe"),
            message.meta["compute"],
        )
        _log.info(
            "agent %r joined %s:%d (codec=%s compute=%s)",
            name or "<anon>", host, port,
            message.meta["codec"], message.meta["compute"],
        )
        while True:
            frame = stream.next_frame()
            if frame is None:
                break  # server vanished; nothing left to serve
            message = decode_message(frame)
            if message.kind == REGISTER:
                runtime.register(message.blob)
            elif message.kind == BROADCAST:
                split = message.meta["strategy_bytes"]
                # The blob is strategy_blob + state_blob, split by length;
                # under the runtime's pipe transport the state blob *is*
                # the broadcast handle, so the lazy decode (and its
                # overlap accounting) works unchanged.
                runtime.broadcast(
                    message.blob[:split],
                    message.blob[split:],
                    message.meta["round"],
                )
            elif message.kind == TASK:
                wire = runtime.run_task(pickle.loads(message.blob))
                stream.send(
                    encode_message(
                        UPLOAD, {"task": message.meta["task"]}, wire
                    )
                )
                tasks_served += 1
            elif message.kind == BYE:
                break
            else:  # pragma: no cover - same-version servers never send this
                _log.warning("ignoring unexpected %r frame", message.kind)
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass
    return tasks_served


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fl.net.agent",
        description="Join a federation as a remote client agent.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="server endpoint to join",
    )
    parser.add_argument(
        "--name", default="", help="agent name shown in server logs"
    )
    parser.add_argument(
        "--codec", default=None,
        help="pin the wire codec: refuse any other negotiated spec",
    )
    args = parser.parse_args(argv)
    try:
        served = run_agent(args.connect, name=args.name, codec=args.codec)
    except HandshakeError as exc:
        print(f"handshake failed: {exc}", file=sys.stderr)
        return 2
    print(f"agent {args.name or '<anon>'} served {served} task(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover - process entrypoint
    sys.exit(main())
