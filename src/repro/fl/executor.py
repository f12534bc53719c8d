"""Client-execution engines: how one round's local updates actually run.

The round loop in :mod:`repro.fl.server` is *what* federated learning does
(sample, broadcast, locally train, aggregate); an engine is *how* the
local-training fan-out executes.  There is **one round lifecycle** — the
driver :meth:`repro.fl.round.Executor.run_round`, which no engine
overrides::

    plan ─▶ register ─▶ broadcast ─▶ group ─▶ dispatch ─▶ collect ─▶ close
     │        │            │           │         │           │          │
     │        │            │           │         │           │          └ RoundTimeoutError · deadline
     │        │            │           │         │           │            history · LRU eviction · stats
     │        │            │           │         │           └ arrival order; stops at: all answered ·
     │        │            │           │         │             accepted ≥ quorum · deadline · no live lane
     │        │            │           │         └ wave by wave (one wave unless ``pipelined=False``)
     │        │            │           └ one task per home under a batched backend, faulted clients alone
     │        │            └ encoded once per distinct reference chain, one handle per home
     │        └ newcomers (+ piggy-backed evictions), once per client per lane lifetime
     └ pinned replay, or fault-plan triage + crash victims

— and three *lane sets* that only know a mechanism:

==========  ==================  =========================  ==================  ===================
lane        crash victim        lost endpoint              deadline            quorum close
==========  ==================  =========================  ==================  ===================
in-process  skipped             —                          cooperative: an     first K in
(serial)                                                   over-budget hang    sampling order
                                                           never starts
pool        dispatched: the     slot rebuilt, clients      drop ``deadline``;  first K to arrive;
(parallel)  worker really       re-registered, full-frame  task absorbed as    the rest absorbed
            ``os._exit``s       re-broadcast, lost tasks   a zombie future     as zombie futures
                                re-run (victim / killed
                                twice: drop ``crash``)
socket      never dispatched    drop ``disconnect``; its   drop ``deadline``;  first K to arrive;
(remote)    (drop ``crash``)    clients re-home next       late upload         late uploads
                                round                      discarded by id     discarded by id
==========  ==================  =========================  ==================  ===================

All lanes return the same :class:`ClientUpdate` records in sampling order,
so aggregation — and therefore the whole run trace — is independent of the
engine.  Determinism holds because per-(client, round) RNG seeds are derived
from the :class:`repro.utils.rng.SeedTree` *before* dispatch and travel with
the task.  :class:`SerialExecutor` is the default everywhere;
:class:`ParallelExecutor` scales wall-clock with workers instead of with
the participant count (paper §IV-B-3's scalability axis);
:class:`repro.fl.net.executor.RemoteExecutor` speaks the pool's protocol
over framed sockets to agent processes on other machines.

What crosses a wire lane, and how both ends stay in lockstep, is
:mod:`repro.fl.wire` (registration → broadcast → task → upload,
byte-counted post-codec in :class:`WireStats`).  Three axes are negotiated
when the lanes open, each a registry with its own module: the **codec**
(:mod:`repro.fl.codec` — what bytes represent a state), the **transport**
(:mod:`repro.fl.transport` — how the broadcast blob reaches the workers;
its decode is lazy, at the round's first tensor touch, so it overlaps
other workers' training) and the **compute backend**
(:mod:`repro.fl.compute` — how co-resident clients train; per-client
results are bitwise independent of the grouping).  The driver also hosts
the fault-tolerance layer (:mod:`repro.fl.faults`): a seeded fault plan,
round deadlines and quorum early-close, with each round's casualties
written into its :class:`repro.fl.history.RoundRecord`.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor as _ProcessPool,
    TimeoutError as _FuturesTimeout,
    wait as _futures_wait,
)
from concurrent.futures.process import BrokenProcessPool as _BrokenPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fl.client import Client
from repro.fl.codec import Codec
from repro.fl.faults import (
    AdaptiveDeadline,
    FaultPlan,
    FixedDeadline,
    apply_update_fault,
    sleep_injected,
)
from repro.fl.round import LOST, Executor, time_left
from repro.fl.transport import Transport, make_transport, validate_transport
from repro.fl.wire import (
    WireStats,
    WorkerRuntime,
    _run_resident_task,
    _worker_broadcast,
    _worker_init,
    _worker_register,
)
from repro.nn.serialize import StateDict, encode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.round import _Row
    from repro.nn.models import FeatureClassifierModel

__all__ = [
    "ClientUpdate",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "WorkerRuntime",
    "WireStats",
    "make_executor",
]


@dataclass
class ClientUpdate:
    """Everything one client sends back after a local update.

    This is the upload half of the federated wire protocol: it must stay
    serializable (checked by the parallel engine on every hop), and it is the
    *only* channel through which a local update may influence the server.
    Strategies therefore put method-specific uploads — FPL's class
    prototypes, for instance — into ``payload`` instead of mutating strategy
    state from inside :meth:`repro.fl.strategy.Strategy.local_update`.  The
    client's scratch is not part of it: caches stay on the endpoint that
    built them, so PARDON's re-styled images never reach the server.

    ``train_seconds`` is the worker-measured wall clock of the update, so
    the timing report stays fair when updates overlap.  ``decode_seconds``
    is the worker-measured wall clock of the lazy broadcast decode, nonzero
    only on the task that performed it (the worker's first task of the
    round) — under the parallel engine this work overlaps other workers'
    training; the round driver sums both into the round's
    :class:`repro.fl.history.RoundRecord`, the decodes as its overlap
    window.  ``straggler_seconds`` is the injected
    fault-plan slowdown this update really slept through (zero outside
    chaos runs — see :mod:`repro.fl.faults`), kept out of
    ``train_seconds`` so per-update compute stays honest.  It is a
    per-update *diagnostic* only: the run-level
    ``TimingReport.straggler_seconds`` is derived from the plan instead,
    so cooperatively skipped stragglers (which never produce an update)
    count too.

    On the parallel engine's upload hop, ``state`` transiently holds the
    codec :class:`repro.fl.codec.Payload` instead of a state dict; the
    server decodes it before anything else sees the update.
    ``__wire_oob__`` opts the record into the serializer's protocol-5
    out-of-band framing, so every array it carries — wire tensors, FPL's
    prototype payload — decodes as a zero-copy view.
    """

    __wire_oob__ = True

    client_id: int
    num_samples: int
    state: StateDict
    loss: float
    payload: dict[str, object] = field(default_factory=dict)
    train_seconds: float = 0.0
    decode_seconds: float = 0.0
    straggler_seconds: float = 0.0

    @classmethod
    def from_client(
        cls,
        client: Client,
        state: StateDict,
        loss: float,
        payload: dict[str, object] | None = None,
    ) -> "ClientUpdate":
        """The standard way a strategy wraps its local-update result."""
        return cls(
            client_id=client.client_id,
            num_samples=client.num_samples,
            state=state,
            loss=float(loss),
            payload=payload or {},
        )


class SerialExecutor(Executor):
    """Train participants one after another on the server's workspace model.

    The in-process lane of the round driver.  The workspace pattern means
    zero copies: the global weights are loaded into ``model`` before each
    participant, so state never leaks between clients through the model
    object.

    There is no wire, so lossless codecs (identity, delta) are a strict
    no-op — states decode bit-exactly, and skipping the round-trip is what
    keeps this engine zero-copy.  Lossy codecs *are* round-tripped (one
    broadcast round-trip per round, one upload round-trip per update) so a
    quantized run traces identically here and on the wire lanes.

    Faults inject in-process (survivor stragglers really sleep, corrupted
    uploads are poisoned then rejected by the acceptance check every
    lane's uploads pass), and "arrival order" is sampling order, so a
    ``quorum`` deterministically keeps the first K accepted uploads — the
    canonical accepted set a wall-clock engine replays.
    """

    def open(self, model: "FeatureClassifierModel") -> None:
        self._model = model
        self._compute_backend(model)

    def home(self, client_id: int) -> int:
        return 0  # the whole round is one co-resident group in-process

    def send_broadcast(
        self, home: int, strategy: object, state: StateDict, round_index: int
    ) -> None:
        self._frame = (strategy, state, round_index)
        self._queued: "list[tuple[int, _Row]]" = []

    def submit(self, task_id: int, home: int, row: "_Row") -> None:
        self._queued.append((task_id, row))

    def poll(self, timeout: "float | None") -> "list[tuple[int, list[ClientUpdate]]]":
        """Train everything queued as ONE backend call — the ensemble
        backend fuses it into one (or a few) stacks; slice independence
        keeps each client's numerics identical to the per-client loop —
        and hand the updates back row by row, in dispatch order."""
        queued, self._queued = self._queued, []
        strategy, state, round_index = self._frame
        self._frame = None  # do not pin a (dequantized) model copy between rounds
        for _, row in queued:
            sleep_injected(row.fault)
        # One client per row in-process (see ``Executor._group``).
        updates = self._backend.run_group(
            strategy,
            self._model,
            state,
            [row.clients[0] for _, row in queued],
            round_index,
            [row.seeds[0] for _, row in queued],
        )
        for (_, row), update in zip(queued, updates):
            if row.fault is not None:
                apply_update_fault(update, row.fault, state)
            if not self.codec.lossless:
                # Mirror the upload hop: the server-side aggregation must
                # consume exactly what a decoded wire upload would hold.
                update.state = self.codec.roundtrip(update.state)
        return [(task_id, [update]) for (task_id, _), update in zip(queued, updates)]


def _default_start_method() -> str:
    # fork is cheapest and inherits the import state, but it is only
    # reliably safe on Linux (macOS system frameworks may abort or deadlock
    # in forked children — the reason CPython switched that platform's
    # default to spawn).  Everywhere else, trust the platform default.
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method()


class ParallelExecutor(Executor):
    """Fan sampled clients out to sticky worker processes.

    The pool lane of the round driver: one long-lived single-process pool
    per worker slot, real ``os._exit`` crash victims, slot rebuild in
    place, zombie absorption of abandoned tasks.

    Parameters
    ----------
    num_workers:
        Pool size.  Defaults to ``min(4, cpu_count)`` (at least 2 — a single
        worker is strictly worse than :class:`SerialExecutor`).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it.
    transport:
        How encoded broadcast blobs reach the workers
        (:mod:`repro.fl.transport`): ``"pipe"`` copies the blob into each
        participating worker's pipe, ``"shm"`` publishes one shared-memory
        copy per round, and ``"auto"`` (default) prefers ``shm`` when the
        platform supports it.  Negotiated at pool build like the codec;
        purely mechanical — traces are transport-invariant.
    max_resident:
        Bound on pool-resident clients: the longest-unsampled are evicted
        (server-side copy, upload reference chain, and — piggybacked on
        the slot's next registration — the worker-side copy) and
        re-register with a full frame when next sampled, so a bounded run
        traces identically to an unbounded one.
    codec, faults, deadline, compute, quorum:
        As on every engine (:class:`repro.fl.round.Executor`).  Specs ship
        to the workers at pool build and injected faults travel inside the
        task tuples, so workers need no plan of their own.  The round
        ``deadline`` is measured from the moment the round's tasks have
        all been dispatched; a task it (or a ``quorum`` close) leaves
        running is *absorbed*: the slot keeps FIFO order, so the zombie
        result is drained and discarded and the client re-registers before
        its next participation.

    Each worker slot is one single-worker
    :class:`~concurrent.futures.ProcessPoolExecutor`, and every client is
    pinned to slot ``client_id % num_workers``.  That gives deterministic
    task routing: submissions to a slot run FIFO in one long-lived process,
    so a client's home worker keeps its dataset, scratch, and the round's
    broadcast state without any cross-worker coordination — the slot's
    broadcast is guaranteed to run before its tasks, and the first
    not-yet-answered task of a dead slot is the one that was executing
    when it died.  Caches a worker builds in a client's scratch (PARDON's
    style-transferred images) stay in that worker; a rebuilt slot or a
    re-registered client recomputes them, which cannot move the trace.

    The pool is created lazily on the first round and rebuilt only when a
    different model *architecture* shows up, so one executor (and its warm
    pool + resident clients) serves consecutive runs — e.g. every split of a
    LODO sweep.
    """

    #: The plan's crash victim is dispatched: its worker really dies
    #: (``os._exit`` in :func:`repro.fl.wire._run_resident_task`).
    kills_crash_victims = True

    def __init__(
        self,
        num_workers: int | None = None,
        start_method: str | None = None,
        codec: "str | Codec" = "identity",
        transport: "str | Transport" = "auto",
        faults: "str | FaultPlan | None" = None,
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None" = None,
        compute: str = "auto",
        quorum: int | None = None,
        max_resident: int | None = None,
    ) -> None:
        super().__init__(
            codec=codec, faults=faults, deadline=deadline, compute=compute,
            quorum=quorum,
        )
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = max_resident
        self.num_workers = num_workers or max(2, min(4, os.cpu_count() or 2))
        self.start_method = start_method or _default_start_method()
        self.transport = make_transport(transport)
        self._pools: list[_ProcessPool] | None = None
        self._pool_architecture: tuple | None = None
        self._pool_initargs: tuple | None = None
        # task id -> (home, future) of every submitted, unanswered task.
        self._tasks: "dict[int, tuple[int, Future]]" = {}
        # (home, future) of broadcasts not yet resolved.
        self._broadcasts: "list[tuple[int, Future]]" = []
        # (home, future) pairs an abandoned task left behind: the slot's
        # FIFO order means they finish before anything later touches
        # their worker; their results are drained and discarded (the
        # client was dropped and re-registers before it trains again).
        # The home is remembered so close() can kill — rather than join —
        # a slot whose zombie turns out to be genuinely wedged.
        self._zombie_futures: "list[tuple[int, Future]]" = []

    # -- the lane set ---------------------------------------------------------

    def open(self, model: "FeatureClassifierModel") -> None:
        architecture = self._architecture_of(model)
        if self._pools is not None and self._pool_architecture != architecture:
            self.close()
        if self._pools is None:
            model_blob = encode_payload(model)
            # The negotiated compute backend: ``auto`` resolves against the
            # model here and its spec ships in the worker initargs, so both
            # endpoints agree before any task is dispatched.
            self._pool_initargs = (
                model_blob, self.codec.spec, self.transport.spec,
                self._compute_backend(model).spec,
            )
            self._pools = [
                self._new_slot_pool() for _ in range(self.num_workers)
            ]
            self._pool_architecture = architecture
            self.wire.registration_bytes += len(model_blob) * self.num_workers
            self.wire.unique_registration_bytes += len(model_blob)
        # Absorb abandoned tasks that have finished since: their results
        # (or errors) belong to rounds that already closed, and the dropped
        # clients were evicted from residency then, so nothing a zombie
        # computed can ever reach aggregation.
        self._zombie_futures = [
            (home, future) for home, future in self._zombie_futures
            if not future.done()
        ]

    def home(self, client_id: int) -> int:
        """Deterministic sticky affinity: a client always lands on the same
        worker slot, independent of sampling order or round."""
        return client_id % self.num_workers

    def send_register(self, home: int, blob: bytes) -> None:
        # Waited on, so registration errors surface before any task — and
        # a slot still chewing on an absorbed straggler finishes it here,
        # before the round's deadline clock starts.  A worker that died
        # outside any round (infrastructure failure, an external kill) is
        # indistinguishable from a warm slot until something is submitted
        # to it: its first task then fails the same way, and poll reports
        # the loss.
        try:
            self._pools[home].submit(_worker_register, blob).result()
        except _BrokenPool:
            pass

    def send_broadcast(
        self, home: int, strategy_blob: bytes, handle: object, round_index: int
    ) -> None:
        # Dispatched but NOT waited on: the slot runs FIFO, so its
        # broadcast runs before its tasks, and the decode itself is lazy
        # inside the first task (WorkerRuntime.ensure_round_state) — worker
        # A trains while worker B's blob is still in its pipe.
        try:
            self._broadcasts.append((
                home,
                self._pools[home].submit(
                    _worker_broadcast, strategy_blob, handle, round_index
                ),
            ))
        except _BrokenPool:
            pass  # the slot's first task fails the same way; see poll

    def submit(self, task_id: int, home: int, task: tuple) -> None:
        try:
            future = self._pools[home].submit(_run_resident_task, task)
        except _BrokenPool as exc:
            # The slot is already known dead: a failed future lets poll
            # report it like any other loss.
            future = Future()
            future.set_exception(exc)
        self._tasks[task_id] = (home, future)

    def poll(self, timeout: "float | None") -> "list[tuple[int, object]]":
        limit = None if timeout is None else time.perf_counter() + timeout
        # With the tasks already queued behind them, resolving the
        # broadcast futures costs no overlap; it surfaces transport errors
        # with their original traceback.  Under a deadline the wait is
        # bounded: a slot still stuck on an absorbed straggler is left to
        # finish as a zombie, and a slot that died is reported through its
        # tasks below.
        for home, future in self._broadcasts:
            try:
                future.result(timeout=time_left(limit))
            except _FuturesTimeout:
                self._zombie_futures.append((home, future))
            except _BrokenPool:
                pass
        self._broadcasts.clear()
        done, _ = _futures_wait(
            {future for _, future in self._tasks.values()},
            timeout=time_left(limit),
            return_when=FIRST_COMPLETED,
        )
        events: "list[tuple[int, object]]" = []
        dead: set[int] = set()
        # Dispatch order within the arrival batch (task ids only grow), so
        # the first failed future of a slot is the task that was executing
        # when its process died; every future queued behind it fails too.
        for task_id in sorted(self._tasks) if done else ():
            home, future = self._tasks[task_id]
            if future.done() and home not in dead:
                try:
                    events.append((task_id, future.result()))
                    del self._tasks[task_id]
                except _BrokenPool:
                    dead.add(home)
                    events.append((task_id, LOST))
        return events

    def abandon(self, task_id: int) -> None:
        # A task answered in the very batch that met the quorum is already
        # off the books (poll handed its result over): nothing to absorb.
        entry = self._tasks.pop(task_id, None)
        if entry is not None:
            self._zombie_futures.append(entry)

    def respawn(self, home: int) -> bool:
        """Tear down one slot's dead pool and stand up a fresh process from
        the saved init recipe; the model template re-ships with it."""
        self._pools[home].shutdown(wait=False)
        self._pools[home] = self._new_slot_pool()
        self.wire.registration_bytes += len(self._pool_initargs[0])
        self._tasks = {
            task_id: entry for task_id, entry in self._tasks.items()
            if entry[0] != home
        }
        return True

    # -- slots ----------------------------------------------------------------

    def _new_slot_pool(self) -> _ProcessPool:
        """One worker slot: a single-process pool built from the saved
        init recipe (also how a crashed slot is rebuilt mid-round)."""
        return _ProcessPool(
            max_workers=1,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_worker_init,
            initargs=self._pool_initargs,
        )

    def close(self) -> None:
        if self._pools is not None:
            # A slot still chewing on an absorbed task may be slow — or
            # genuinely wedged, which is exactly the failure the deadline
            # existed to survive.  Its result can never be used (the
            # client was dropped and evicted), so kill the process rather
            # than hand the hang to shutdown's join.  But grant a short
            # grace first: a kill that lands mid-result-write wedges the
            # pool's manager thread on a half-read message forever (fork
            # siblings keep the result pipe's write end open, so the
            # partial recv never sees EOF) — and absorbed quorum
            # survivors are *actively finishing*, not wedged; they clear
            # the grace in milliseconds.
            self._zombie_futures.extend(self._tasks.values())
            _futures_wait(
                {future for _, future in self._zombie_futures}, timeout=0.75
            )
            stuck = {
                home
                for home, future in self._zombie_futures
                if not future.done()
            }
            for home in stuck:
                processes = getattr(self._pools[home], "_processes", None) or {}
                for process in processes.values():
                    process.kill()
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None
        self.transport.close()
        self._tasks.clear()
        self._broadcasts.clear()
        self._zombie_futures.clear()  # joined (or killed) above
        super().close()


def make_executor(
    workers: int | None = None,
    codec: "str | Codec" = "identity",
    transport: "str | Transport" = "auto",
    faults: "str | FaultPlan | None" = None,
    deadline: "float | str | None" = None,
    quorum: int | None = None,
    max_resident: int | None = None,
) -> Executor:
    """Build an engine from the CLI/bench knobs (``--workers`` /
    ``--codec`` / ``--transport`` / ``--faults`` / ``--deadline`` /
    ``--quorum`` / ``--max-resident``).

    The engine is what the caller already said: parallel iff a ``workers``
    count or a ``max_resident`` bound is given, else serial.
    ``transport`` only applies to the parallel engine; the serial engine
    has no wire, so the spec is validated and then ignored.  ``faults``,
    ``deadline`` and ``quorum`` configure the fault-tolerance layer
    (:mod:`repro.fl.faults`) on either engine.
    """
    if isinstance(transport, str):
        validate_transport(transport)  # reject typos for either engine
    if workers is None and max_resident is None:
        return SerialExecutor(
            codec=codec, faults=faults, deadline=deadline, quorum=quorum
        )
    return ParallelExecutor(
        num_workers=workers, codec=codec, transport=transport, faults=faults,
        deadline=deadline, quorum=quorum, max_resident=max_resident,
    )
