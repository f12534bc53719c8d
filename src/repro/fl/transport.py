"""Pluggable wire transports: *how* encoded blobs cross the process boundary.

The codec stack (:mod:`repro.fl.codec`) decides *what* bytes represent a
state; this module decides how those bytes travel between the server and
its worker processes.  The split matters for the server→client hop: PARDON
ships **one** global model to every participant each round, so the
broadcast is a fan-out of identical bytes — exactly the pattern where a
single shared-memory copy beats N pickled pipe copies.

Three transports ship, selectable by spec string (``--transport`` on the
CLI, ``transport=`` on :class:`repro.eval.protocols.ExperimentSetting` and
:class:`repro.fl.executor.ParallelExecutor` — the engine owns it, not the
experiment's :class:`repro.fl.server.FederatedConfig`):

``pipe``
    The historical path: the encoded broadcast blob is pickled into each
    participating agent's broadcast frame — one full copy per agent.
``shm``
    Single-copy broadcast via :mod:`multiprocessing.shared_memory`: the
    server writes the post-codec blob **once** into a named segment and
    ships workers only a tiny :class:`ShmHandle`.  Workers map the segment
    and feed a *read-only, zero-copy* view straight into the serializer's
    protocol-5 out-of-band decode — no per-worker copy ever exists.

``tcp``
    Socket broadcast (:mod:`repro.fl.net.transport`): the server publishes
    the post-codec blob once to an in-process asyncio blob server and
    workers pull it over a loopback (or real) TCP connection — the
    single-host on-ramp to cross-machine federation.  Accepts an optional
    bind address: ``tcp`` (loopback, ephemeral port) or ``tcp:host:port``.

``auto`` (the default everywhere) resolves to ``shm`` when the platform
supports POSIX shared memory and degrades to ``pipe`` — with a logged
reason — otherwise.  All transports move byte-identical blobs, so run
traces are transport-invariant by construction — the engines' regression
tests assert it.

Segment lifecycle (shm)
-----------------------
The server owns every segment: one per distinct encoded broadcast blob per
round, unlinked as soon as the round's uploads are all in
(:meth:`Transport.end_round`), and unconditionally on
:meth:`Transport.close` — which closing (or re-templating) a
:class:`repro.fl.executor.ParallelExecutor` calls.  A
``weakref.finalize`` guard (which doubles as an atexit hook) unlinks
whatever is still live if the transport is dropped without a clean close,
so aborted runs cannot strand segments in ``/dev/shm``.  Workers only
*attach*; they retain the two most recent attachments (the current round's
segment plus the previous one, whose decoded views a stateful codec may
still reference) and mappings die with the worker process, so worker
crashes cannot leak either.

Upload channel
--------------
Uploads are per-client payloads with no fan-out redundancy, so ``pipe``
and ``shm`` pass them straight through the agent's upload frame
(:meth:`Transport.send_upload` / :meth:`Transport.recv_upload` are
identity hooks there).  ``tcp`` overrides both: a worker parks its upload
on the server's blob server and only a small reference crosses the pipe.
"""

from __future__ import annotations

import os
import secrets
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.utils.logging import get_logger

__all__ = [
    "Transport",
    "PipeTransport",
    "ShmTransport",
    "ShmHandle",
    "make_transport",
    "register_transport",
    "resolve_transport",
    "transport_usage",
    "validate_transport",
    "shm_supported",
    "SHM_SEGMENT_PREFIX",
]

_log = get_logger("fl.transport")

#: Every shm segment this library creates carries this name prefix, so leak
#: checks (and humans inspecting ``/dev/shm``) can tell ours apart.  Kept
#: short: POSIX shm names are capped near 30 chars on macOS.
SHM_SEGMENT_PREFIX = "repro-wire"

#: How many attachments a worker-side shm transport keeps open: the current
#: round's segment plus the previous one — zero-copy decoded views (e.g. the
#: identity codec's state, or a stateful codec's broadcast reference) may
#: still point into the previous round's mapping.
_WORKER_ATTACH_RETENTION = 2


@dataclass(frozen=True)
class ShmHandle:
    """What actually crosses the pipe under the shm transport: the segment
    name and the blob length (segments round up to page size, so the length
    cannot be recovered from the mapping)."""

    segment: str
    length: int


class Transport:
    """Downlink fan-out + upload channel for one executor's wire.

    One instance lives on the server (``publish`` / ``handle_wire_bytes`` /
    ``end_round`` / ``close`` / ``recv_upload``) and one per worker process
    (``fetch`` / ``send_upload``), negotiated by spec in the welcome exactly
    like the codec — both endpoints are built from the same name before any
    blob crosses.

    The contract: ``fetch(publish(blob))`` yields the same bytes in every
    worker, and a handle must stay fetchable until :meth:`end_round` is
    called for the round that published it.
    """

    #: Spec string this transport answers to in the registry.
    name = "transport"

    #: The frozen dataclass :meth:`publish` returns, rebuilt on an agent
    #: from the fields its broadcast message carries (``None``: the handle
    #: is the blob itself).
    handle_type: "type | None" = None

    @property
    def spec(self) -> str:
        """The full spec string that rebuilds an equivalent endpoint in a
        worker process (``name`` plus any instance parameters).  Shipped in
        the handshake welcome so both sides negotiate from the same string."""
        return self.name

    # -- server role ---------------------------------------------------------

    def publish(self, blob: bytes) -> object:
        """Make one encoded broadcast blob available to workers; returns the
        (small, picklable) handle to ship in their broadcast message."""
        raise NotImplementedError

    def publish_wire_bytes(self, blob: bytes) -> int:
        """Bytes the publish itself moved (0 when the blob only travels
        per-worker, i.e. inside the handles)."""
        return 0

    def handle_wire_bytes(self, handle: object) -> int:
        """Per-worker cost of shipping ``handle`` in a broadcast message."""
        raise NotImplementedError

    def end_round(self) -> None:
        """All of the round's uploads are in: release round-scoped
        resources (shm unlinks its published segments)."""

    def close(self) -> None:
        """Release everything.  Idempotent; called on executor close and on
        every agent-set rebuild."""

    # -- worker role ---------------------------------------------------------

    def fetch(self, handle: object) -> "bytes | memoryview":
        """The published blob for ``handle``, as a bytes-like the serializer
        can decode from directly (shm returns a read-only zero-copy view)."""
        raise NotImplementedError

    # -- upload channel ------------------------------------------------------

    def send_upload(self, blob: bytes) -> bytes:
        """Agent-side upload hook; stock transports pass through the agent's
        upload frame (per-client payloads have no fan-out redundancy)."""
        return blob

    def recv_upload(self, wire: bytes) -> bytes:
        """Server-side inverse of :meth:`send_upload`."""
        return wire

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PipeTransport(Transport):
    """The historical wire: the blob *is* the handle, so the pool pickles
    one full copy into every participating worker's pipe."""

    name = "pipe"

    def publish(self, blob: bytes) -> bytes:
        return blob

    def handle_wire_bytes(self, handle: object) -> int:
        return len(handle)  # the whole blob rides in each broadcast message

    def fetch(self, handle: object) -> bytes:
        return handle


def _unlink_segments(segments: list) -> None:
    """Best-effort close + unlink of server-owned segments; shared by the
    normal paths and the finalize/atexit guard."""
    for segment in segments:
        try:
            segment.close()
        except (BufferError, ValueError, OSError):  # pragma: no cover
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
    segments.clear()


class ShmTransport(Transport):
    """Single-copy broadcast through named shared-memory segments.

    The server writes each distinct encoded blob once
    (:meth:`publish`), workers map it zero-copy (:meth:`fetch`).  See the
    module docstring for the full lifecycle story; the short version is
    that the server owns and unlinks every segment (per round, on close,
    and via a ``weakref.finalize`` guard on abnormal teardown), while
    workers only attach and retain the last
    :data:`_WORKER_ATTACH_RETENTION` mappings.
    """

    name = "shm"
    handle_type = ShmHandle

    def __init__(self) -> None:
        # Server role: segments published since the last end_round().  The
        # list object is shared with the finalizer so cleanup always sees
        # the current contents.
        self._published: list = []
        self._finalizer = weakref.finalize(self, _unlink_segments, self._published)
        # Worker role: attach cache, insertion-ordered for LRU eviction.
        self._attached: "OrderedDict[str, object]" = OrderedDict()
        # Attachments whose buffers were still exported (numpy views alive)
        # when eviction tried to close them; retried on later evictions and
        # released with the process either way.
        self._zombies: list = []

    # -- server role ---------------------------------------------------------

    @staticmethod
    def _new_segment(size: int):
        from multiprocessing import shared_memory

        while True:
            name = f"{SHM_SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(3)}"
            try:
                return shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:  # pragma: no cover - 24-bit token clash
                continue

    def publish(self, blob: bytes) -> ShmHandle:
        segment = self._new_segment(max(1, len(blob)))
        segment.buf[: len(blob)] = blob
        self._published.append(segment)
        return ShmHandle(segment=segment.name, length=len(blob))

    def publish_wire_bytes(self, blob: bytes) -> int:
        return len(blob)  # the single copy into the segment

    def handle_wire_bytes(self, handle: object) -> int:
        import pickle

        return len(pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL))

    def end_round(self) -> None:
        _unlink_segments(self._published)

    def close(self) -> None:
        _unlink_segments(self._published)
        for name in list(self._attached):
            self._release_attachment(name)
        self._zombies = [z for z in self._zombies if not _try_close(z)]

    # -- worker role ---------------------------------------------------------

    @staticmethod
    def _attach(name: str):
        """Attach to a server-owned segment without adopting ownership.

        Python's resource tracker assumes whoever opens a segment must
        clean it up and would unlink (and warn about) the server's segments
        when the worker exits; 3.13 grew ``track=False`` for exactly this.
        Older versions share one tracker process across the whole fork
        tree, keyed by name alone — so an attach must not *register* in the
        first place (unregistering afterwards would knock out the server's
        own registration and make its later unlink a tracker error).
        """
        from multiprocessing import shared_memory

        try:
            return shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: suppress registration instead
            from multiprocessing import resource_tracker

            original = resource_tracker.register

            def register(rname: str, rtype: str) -> None:
                if rtype != "shared_memory":  # pragma: no cover
                    original(rname, rtype)

            resource_tracker.register = register
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original

    def _release_attachment(self, name: str) -> None:
        segment = self._attached.pop(name)
        try:
            segment.close()
        except BufferError:  # views still exported; retry on a later evict
            self._zombies.append(segment)
        self._zombies = [z for z in self._zombies if not _try_close(z)]

    def fetch(self, handle: object) -> memoryview:
        if not isinstance(handle, ShmHandle):
            raise TypeError(
                f"shm transport received a {type(handle).__name__} handle; "
                f"the endpoints negotiated different transports"
            )
        segment = self._attached.get(handle.segment)
        if segment is None:
            segment = self._attach(handle.segment)
            self._attached[handle.segment] = segment
            while len(self._attached) > _WORKER_ATTACH_RETENTION:
                self._release_attachment(next(iter(self._attached)))
        else:
            self._attached.move_to_end(handle.segment)
        return segment.buf.toreadonly()[: handle.length]


def _try_close(segment: object) -> bool:
    try:
        segment.close()
        return True
    except BufferError:
        return False


# -- registry -----------------------------------------------------------------

#: name -> (factory, parameterized).  A parameterized factory takes the
#: params string that followed ``name:`` in the spec (or ``None``); plain
#: factories take no arguments and their specs reject a params suffix.
_TRANSPORTS: "dict[str, tuple[Callable[..., Transport], bool]]" = {}


def register_transport(
    name: str, factory: Callable[..., Transport], *, parameterized: bool = False
) -> None:
    """Register a transport under a spec name (mirrors the codec registry).

    ``parameterized=True`` makes the spec accept a ``name:params`` suffix
    (e.g. ``tcp:host:port``) which is handed to ``factory(params)``.
    """
    _TRANSPORTS[name] = (factory, parameterized)


def _tcp_factory(params: "str | None" = None) -> Transport:
    from repro.fl.net.transport import TcpTransport

    return TcpTransport(params)


register_transport("pipe", PipeTransport)
register_transport("shm", ShmTransport)
register_transport("tcp", _tcp_factory, parameterized=True)


def transport_usage() -> tuple[str, ...]:
    """Human-oriented spec forms for error messages and ``--help``: every
    registered name, with ``[:params]`` marking the parameterized ones."""
    forms = ["auto"]
    for name in sorted(_TRANSPORTS):
        _, parameterized = _TRANSPORTS[name]
        forms.append(f"{name}[:host:port]" if parameterized else name)
    return tuple(forms)


def _split_spec(spec: str) -> "tuple[str, str | None]":
    """``"tcp:host:port"`` -> ``("tcp", "host:port")``; bare names get
    ``None`` params."""
    base, sep, params = spec.partition(":")
    return base, (params if sep else None)


_SHM_SUPPORTED: bool | None = None
_SHM_UNSUPPORTED_REASON: str = ""
_DEGRADE_LOGGED = False


def shm_supported() -> bool:
    """Whether this platform can create + attach POSIX shared memory.

    Probed once per process with a real (tiny) segment: import failures,
    missing ``/dev/shm``-style backing, and sandbox denials all land here
    as an honest ``False`` rather than a mid-run crash.
    """
    global _SHM_SUPPORTED, _SHM_UNSUPPORTED_REASON
    if _SHM_SUPPORTED is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _SHM_SUPPORTED = True
        except Exception as exc:
            _SHM_SUPPORTED = False
            _SHM_UNSUPPORTED_REASON = f"{type(exc).__name__}: {exc}"
    return _SHM_SUPPORTED


def _log_degrade(reason: str) -> None:
    """Log the shm -> pipe degradation once per process (``auto`` resolves
    each time an engine builds its transport)."""
    global _DEGRADE_LOGGED
    if not _DEGRADE_LOGGED:
        _DEGRADE_LOGGED = True
        _log.warning(
            "transport 'auto': shared memory unavailable (%s); degrading shm -> pipe",
            reason or "probe failed",
        )


def validate_transport(spec: str) -> None:
    """Check a spec string without touching the platform.

    This is what config validation calls, on every engine: ``auto`` and
    registered names pass (with a ``name:params`` suffix where the
    transport takes one), unknown names and stray params fail loudly with
    the full registered-spec list.  Nothing is probed — a serial run has
    no wire, and must not create a shm segment (or start
    :mod:`multiprocessing`'s resource tracker process) to learn that its
    default spec is well-formed.
    """
    if spec == "auto":
        return
    base, params = _split_spec(spec)
    if base not in _TRANSPORTS:
        raise ValueError(
            f"unknown transport {spec!r}; expected one of {transport_usage()}"
        )
    _, parameterized = _TRANSPORTS[base]
    if params is not None and not parameterized:
        raise ValueError(
            f"transport {base!r} takes no parameters (got {spec!r}); "
            f"expected one of {transport_usage()}"
        )


def resolve_transport(spec: str, supported: bool | None = None) -> str:
    """Resolve ``"auto"`` to a concrete transport name and validate the rest.

    ``auto`` prefers the single-copy ``shm`` broadcast whenever the
    platform supports it (``supported`` overrides the probe, for tests) and
    degrades to ``pipe`` — logging the probe's failure reason once —
    otherwise.  Concrete specs pass through (with any ``name:params``
    suffix intact) after :func:`validate_transport`.  Called where a
    transport is actually built (:func:`make_transport`), never to
    validate a config.
    """
    if spec == "auto":
        if supported is None:
            supported = shm_supported()
        if supported:
            return "shm"
        _log_degrade(_SHM_UNSUPPORTED_REASON if supported is False else "")
        return "pipe"
    validate_transport(spec)
    return spec


def make_transport(spec: "str | Transport") -> Transport:
    """Build a transport from its spec string (``auto`` resolves first).

    Accepts an already-built :class:`Transport` unchanged, so every API
    taking a transport accepts either form — same convention as
    :func:`repro.fl.codec.make_codec`.
    """
    if isinstance(spec, Transport):
        return spec
    if not isinstance(spec, str) or not spec:
        raise TypeError(f"transport spec must be a non-empty string, got {spec!r}")
    base, params = _split_spec(resolve_transport(spec))
    factory, parameterized = _TRANSPORTS[base]
    return factory(params) if parameterized else factory()
