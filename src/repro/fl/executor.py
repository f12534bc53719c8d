"""Client-execution engines: how one round's local updates actually run.

The round loop in :mod:`repro.fl.server` is *what* federated learning does
(sample, broadcast, locally train, aggregate); an engine is *how* the
local-training fan-out executes.  There is **one round lifecycle** — the
driver :meth:`repro.fl.round.Executor.run_round`, which no engine
overrides::

    plan ─▶ register ─▶ broadcast ─▶ group ─▶ dispatch ─▶ collect ─▶ close
     │        │            │           │         │           │          │
     │        │            │           │         │           │          └ RoundTimeoutError · deadline
     │        │            │           │         │           │            history · released-client eviction · stats
     │        │            │           │         │           └ arrival order; stops at: all answered ·
     │        │            │           │         │             accepted ≥ quorum · deadline · no live lane
     │        │            │           │         └ one wave: every home fed before any upload is awaited
     │        │            │           └ wire lanes: one task per home, faulted clients alone
     │        │            └ encoded once per distinct reference chain, one handle per home
     │        └ newcomers (+ piggy-backed evictions), once per client object per lane lifetime
     └ pinned replay, or fault-plan triage + crash victims

— and three *lane sets* that only know a mechanism:

==========  ==================  =========================  ==================  ===================
lane        crash victim        lost endpoint              deadline            quorum close
==========  ==================  =========================  ==================  ===================
in-process  skipped             —                          cooperative: an     first K in
(serial)                                                   over-budget hang    sampling order
                                                           never starts
pool        dispatched: the     agent relaunched and       drop ``deadline``;  first K to arrive;
(parallel)  agent really        re-helloed, clients        late upload         late uploads
            ``os._exit``s       re-registered, full-frame  discarded by id     discarded by id
                                re-broadcast, lost tasks
                                re-run (victim / killed
                                twice: drop ``crash``)
socket      never dispatched    drop ``disconnect``; its   drop ``deadline``;  first K to arrive;
(remote)    (drop ``crash``)    clients re-home next       late upload         late uploads
                                round                      discarded by id     discarded by id
==========  ==================  =========================  ==================  ===================

The pool and socket rows are one lane kind (:mod:`repro.fl.net.executor`):
agents serving framed sockets, which the pool launches itself on
socketpairs and the socket engine accepts over TCP.

All lanes return the same :class:`ClientUpdate` records in sampling order,
so aggregation — and therefore the whole run trace — is independent of the
engine.  Determinism holds because per-(client, round) RNG seeds are derived
from the :class:`repro.utils.rng.SeedTree` *before* dispatch and travel with
the task.  :class:`SerialExecutor` is the default everywhere;
:class:`ParallelExecutor` scales wall-clock with workers instead of with
the participant count (paper §IV-B-3's scalability axis);
:class:`repro.fl.net.executor.RemoteExecutor` speaks the same protocol to
agent processes on other machines.

What crosses a wire lane, and how both ends stay in lockstep, is
:mod:`repro.fl.wire` (registration → broadcast → task → upload,
byte-counted post-codec in :class:`WireStats`).  Two axes are negotiated
when the lanes open, each a registry with its own module: the **codec**
(:mod:`repro.fl.codec` — what bytes represent a state) and the
**transport** (:mod:`repro.fl.transport` — how the broadcast blob reaches
the workers; its decode is lazy, at the round's first tensor touch, so it
overlaps other workers' training).  How co-resident clients train is not
an axis: every endpoint runs the one trainer (:mod:`repro.fl.compute`),
which stacks what it can and loops over the rest, and per-client results
are bitwise independent of the grouping.  The driver also hosts
the fault-tolerance layer (:mod:`repro.fl.faults`): a seeded fault plan,
round deadlines and quorum early-close, with each round's casualties
written into its :class:`repro.fl.history.RoundRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fl.client import Client
from repro.fl.codec import Codec
from repro.fl.compute import EnsembleBackend
from repro.fl.faults import (
    AdaptiveDeadline,
    FaultPlan,
    FixedDeadline,
    apply_update_fault,
    sleep_injected,
)
from repro.fl.net.executor import ParallelExecutor
from repro.fl.round import Executor
from repro.fl.transport import Transport, validate_transport
from repro.fl.wire import WireStats, WorkerRuntime
from repro.nn.serialize import StateDict

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
    state from inside :meth:`repro.fl.strategy.Strategy.train_group`.  The
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

    ``compute`` is kept only because the frozen benchmark harness passes
    ``compute="auto"``; it accepts nothing else (ROADMAP item 6).
    """

    def __init__(
        self,
        codec: "str | Codec" = "identity",
        faults: "str | FaultPlan | None" = None,
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None" = None,
        compute: str = "auto",
        quorum: int | None = None,
    ) -> None:
        if compute != "auto":
            raise ValueError(
                f"compute={compute!r}: every engine trains through the one "
                f"ensemble trainer; the keyword only accepts 'auto' until "
                f"ROADMAP item 6 drops it"
            )
        super().__init__(codec=codec, faults=faults, deadline=deadline, quorum=quorum)
        # Kept across rounds so its stacked clone survives the round loop.
        self._trainer = EnsembleBackend()
        self._release()

    def _release(self) -> None:
        """Forget the round in flight: its frame (do not pin a dequantized
        model copy between rounds), its queued rows and its stacks."""
        self._frame = None
        self._queued: "list[tuple[int, _Row]]" = []
        self._stacks = None
        self._trained: "dict[int, ClientUpdate]" = {}
        self._answered = 0

    def open(self, model: "FeatureClassifierModel") -> None:
        self._model = model

    def home(self, client_id: int) -> int:
        return 0  # the whole round is one co-resident group in-process

    def send_broadcast(
        self, home: int, strategy: object, state: StateDict, round_index: int
    ) -> None:
        self._release()
        self._frame = (strategy, state, round_index)

    def submit(self, task_id: int, home: int, row: "_Row") -> None:
        self._queued.append((task_id, row))

    def poll(self, timeout: "float | None") -> "list[tuple[int, list[ClientUpdate]]]":
        """Train the next stack of the queued rows and hand back, in
        dispatch order, every row answered up to the first untrained one.

        The trainer takes the round as one group but trains it one stack at
        a time, so :meth:`Executor._collect` folds and frees a stack's
        states before the next stack trains, and a quorum close (:meth:`abandon`) keeps the
        stacks past it from training at all.  Its stacks run in order of
        their first row, so each call answers at least that row: arrival
        order is dispatch order, mixed dataset sizes included.  Faults
        apply as rows are handed back; the wait never times out (an
        in-process deadline is cooperative, see :meth:`Executor._plan`).
        """
        strategy, state, round_index = self._frame
        if self._stacks is None:
            # One client per row in-process (see ``Executor._group``).
            self._stacks = self._trainer.train_stacks(
                strategy,
                self._model,
                state,
                [row.clients[0] for _, row in self._queued],
                round_index,
                [row.seeds[0] for _, row in self._queued],
            )
        positions, updates = next(self._stacks)
        self._trained.update(zip(positions, updates))
        events = []
        while self._answered in self._trained:
            update = self._trained.pop(self._answered)
            task_id, row = self._queued[self._answered]
            self._answered += 1
            sleep_injected(row.fault)
            if row.fault is not None:
                apply_update_fault(update, row.fault, state)
            if not self.codec.lossless:
                # Mirror the upload hop: the server-side aggregation must
                # consume exactly what a decoded wire upload would hold.
                update.state = self.codec.roundtrip(update.state)
            events.append((task_id, [update]))
        if self._answered == len(self._queued):
            self._release()
        return events

    def abandon(self, task_id: int) -> None:
        # Only a closing round abandons: the rows still queued never train.
        self._release()


def make_executor(
    workers: int | None = None,
    codec: "str | Codec" = "identity",
    transport: "str | Transport" = "auto",
    faults: "str | FaultPlan | None" = None,
    deadline: "float | str | None" = None,
    quorum: int | None = None,
) -> Executor:
    """Build an engine from the CLI/bench knobs (``--workers`` /
    ``--codec`` / ``--transport`` / ``--faults`` / ``--deadline`` /
    ``--quorum``).

    The engine is what the caller already said: parallel iff a ``workers``
    count is given, else serial.
    ``transport`` only applies to the parallel engine: the serial engine
    has no wire, so any spec but ``auto`` is a ``ValueError`` there rather
    than silently ignored.  ``faults``, ``deadline`` and ``quorum``
    configure the fault-tolerance layer (:mod:`repro.fl.faults`) on either
    engine.
    """
    if isinstance(transport, str):
        validate_transport(transport)  # reject typos for either engine
    if workers is None:
        if transport != "auto":
            raise ValueError(
                f"transport {getattr(transport, 'spec', transport)!r} needs "
                f"the parallel engine (give workers); the serial engine has "
                f"no wire"
            )
        return SerialExecutor(
            codec=codec, faults=faults, deadline=deadline, quorum=quorum
        )
    return ParallelExecutor(
        num_workers=workers, codec=codec, transport=transport, faults=faults,
        deadline=deadline, quorum=quorum,
    )
