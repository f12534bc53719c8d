"""Both halves of the wire protocol: what crosses to a lane, as bytes.

Mirrors the per-round-traffic argument PARDON makes against cross-sharing
methods (§IV-B-3, Fig. 4b): clients keep their data, only model updates
travel.

1. **Registration** (once per client object per lane lifetime): the
   client's id and dataset ship to its home — a pickled :class:`Client`
   carries an empty scratch.  Ids evicted from the home since ride along
   (clients their population released, clients that moved to another
   home), so endpoint copies are freed without a message.
2. **Broadcast** (once per participating home per round): the strategy
   blob and the codec-encoded global weights; workers cache the strategy
   decode keyed on the blob bytes and decode the weights lazily.
3. **Task** (per co-resident group per round):
   ``(client_ids, round_index, seeds, fault)``.  A home's fault-free
   participants share one task, which the endpoint's trainer
   (:mod:`repro.fl.compute`) stacks where it can; faulted clients always
   ride alone.
4. **Upload** (per group per round): the list of ``ClientUpdate`` records
   in group order — state (codec-encoded) plus method payload, nothing
   else.  Scratch caches (PARDON's style-transferred images) stay on the
   endpoint that built them: they never cross the wire, and an endpoint
   that starts without them recomputes them.

Codec and transport specs are negotiated before any of this: they travel
in the handshake welcome (:mod:`repro.fl.net.protocol`), so both
endpoints build the same pipeline before any state crosses.
Stateful codecs (``delta``) diff against states both endpoints hold, and
the only per-endpoint one is the previous broadcast per home, which resets
with its endpoint: a rebuilt lane restarts its broadcast chain from a full
frame.  Uploads diff against the round's broadcast, which the endpoint
just decoded and the server still holds, so no state is kept per client
and even a newcomer's first upload is a delta.

:class:`WireServer` is the server half, every byte it produces counted in
:class:`WireStats`; the round driver (:class:`repro.fl.round.Executor`)
inherits it and decides *when* each step happens, a lane only moves the
resulting blobs, and the in-process lane never calls it.
:class:`WorkerRuntime` is the training endpoint's half: every agent
(:mod:`repro.fl.net.agent`), launched by the pool or dialling in from
another machine, builds one per connection from its welcome.
"""

from __future__ import annotations

import pickle
import time
import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.fl.client import Client
from repro.fl.codec import Codec, Payload, make_codec
from repro.fl.compute import EnsembleBackend
from repro.fl.faults import FaultEvent, apply_update_fault, sleep_injected
from repro.fl.transport import Transport, make_transport
from repro.nn.serialize import StateDict, decode_payload, encode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.executor import ClientUpdate
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel

__all__ = ["WireServer", "WireStats", "WorkerRuntime"]

#: ``(client_ids, round_index, seeds, fault)`` — see
#: :meth:`WorkerRuntime.run_task`.
Task = "tuple[tuple[int, ...], int, tuple[int, ...], FaultEvent | None]"


@dataclass
class WireStats:
    """Cumulative bytes an engine moved across the process boundary.

    ``registration_bytes`` also counts the per-worker model template — the
    whole one-time cost of making a pool resident.  Serial execution has no
    wire, so its stats stay zero.

    The ``unique_*`` counters deduplicate the fan-out: each distinct
    payload counts once regardless of how many workers received it — the
    model template once (not once per worker), each round's strategy blob
    and each distinct encoded broadcast blob once (not once per
    participating worker).  ``bytes_down`` is what the endpoints actually
    saw and therefore transport-dependent (the pipe transport really does
    copy the broadcast per worker); ``unique_bytes_down`` is the
    information-content floor both transports share, and the gap between
    the two is exactly what the shm transport's single-copy broadcast
    eliminates.
    """

    registration_bytes: int = 0
    broadcast_bytes: int = 0
    task_bytes: int = 0
    upload_bytes: int = 0
    unique_registration_bytes: int = 0
    unique_broadcast_bytes: int = 0

    @property
    def bytes_down(self) -> int:
        """Server → worker traffic (registration + broadcast + tasks)."""
        return self.registration_bytes + self.broadcast_bytes + self.task_bytes

    @property
    def unique_bytes_down(self) -> int:
        """Downlink traffic with fan-out duplicates counted once (each
        distinct broadcast blob once per round, the model template once)."""
        return (
            self.unique_registration_bytes
            + self.unique_broadcast_bytes
            + self.task_bytes
        )

    @property
    def bytes_up(self) -> int:
        """Worker → server traffic (delta uploads)."""
        return self.upload_bytes


class _Row:
    """One task: a co-resident client group bound for one home.

    ``positions`` are the clients' indices in the round's dispatch order
    (what results are keyed by); ``fault`` the group's injected event —
    faulted clients always ride alone, so the per-task fault protocol stays
    unambiguous.
    """

    __slots__ = ("clients", "seeds", "positions", "home", "fault", "task_id")

    def __init__(self, home: object, fault: "FaultEvent | None") -> None:
        self.clients: "list[Client]" = []
        self.seeds: "list[int]" = []
        self.positions: "list[int]" = []
        self.home = home
        self.fault = fault
        #: Assigned when the row is first handed to its lane.
        self.task_id: "int | None" = None


class WireServer:
    """Server-side wire state and codecs of one engine (see the module
    docstring).  ``home`` is whatever the lane set keys its lanes by."""

    #: The wire transport.  ``None`` marks the in-process lane: nothing is
    #: serialized, registered or byte-counted, because there is no process
    #: boundary to cross.
    transport: "Transport | None" = None

    def __init__(self, codec: "str | Codec" = "identity") -> None:
        self.codec = make_codec(codec)
        self.wire = WireStats()
        # client_id -> (home, weak reference to the object resident there).
        # Identity decides re-registration, and a weak reference never
        # answers for a recycled id.  It also bounds the map by what the
        # population holds: a released client is evicted at round close.
        self._resident: "dict[int, tuple[object, weakref.ref[Client]]]" = {}
        # Eviction ids queued per home, piggybacked on that home's next
        # registration blob so the endpoint's own copies are freed without
        # a dedicated message.
        self._pending_evictions: "dict[object, list[int]]" = {}
        # Server half of the stateful-codec broadcast chain (see
        # WorkerRuntime): home -> last broadcast state.  Populated only
        # when ``codec.stateful``.
        self._bcast_refs: "dict[object, StateDict]" = {}

    def wire_stats(self) -> WireStats:
        """Snapshot of the engine's cumulative wire traffic (zero when the
        engine moves nothing across a process boundary)."""
        return replace(self.wire)

    def _newcomers(self, rows: "list[_Row]") -> "dict[object, list[Client]]":
        """The clients of ``rows`` that are not resident at their row's
        home yet, per home.  Residency is keyed on client *identity*: a run
        that builds fresh :class:`Client` objects (even with the same ids)
        re-registers them, so a stale dataset can never leak between
        runs."""
        newcomers: "dict[object, list[Client]]" = {}
        for row in rows:
            for client in row.clients:
                resident = self._resident.get(client.client_id)
                if resident is not None:
                    home, ref = resident
                    if home != row.home:
                        # The lane layout moved under the id (an agent
                        # vanished): free the stale copy where it was,
                        # whichever object it is.  Re-registering at the
                        # same home replaces it in place.
                        self._pending_evictions.setdefault(home, []).append(
                            client.client_id
                        )
                    elif ref() is client:
                        continue
                newcomers.setdefault(row.home, []).append(client)
        return newcomers

    def _registration(self, home: object, clients: "list[Client]") -> bytes:
        """One registration blob for ``home``.  Eviction ids queued for the
        home ride along in the same blob (see ``WorkerRuntime.register``);
        either half may be empty."""
        evict_ids = tuple(self._pending_evictions.pop(home, ()))
        blob = encode_payload((clients, evict_ids))
        self.wire.registration_bytes += len(blob)
        # Each client ships to exactly one home, so the blob is already
        # fan-out-free and counts unchanged toward the unique floor.
        self.wire.unique_registration_bytes += len(blob)
        for client in clients:
            self._resident[client.client_id] = (home, weakref.ref(client))
        return blob

    def _publish(
        self,
        global_state: StateDict,
        ref: "StateDict | None",
        published: "dict[int, object]",
    ) -> object:
        """The transport handle of the global state encoded against
        ``ref`` — encoded and published once per distinct reference (cached
        in ``published``, keyed by the reference's identity), so
        lanes whose chains point at the same state (the common case: every
        participating lane saw the last broadcast) share one encode and,
        under shm, one written blob."""
        handle = published.get(id(ref))
        if handle is None:
            blob = encode_payload(self.codec.encode(global_state, ref))
            handle = published[id(ref)] = self.transport.publish(blob)
            self.wire.unique_broadcast_bytes += len(blob)
            self.wire.broadcast_bytes += self.transport.publish_wire_bytes(blob)
        return handle

    def _broadcast_handle(
        self,
        home: object,
        global_state: StateDict,
        strategy_blob: bytes,
        published: "dict[int, object]",
    ) -> object:
        """The state-frame handle to ship ``home`` this round, advancing
        its reference chain and charging the per-home broadcast bytes."""
        handle = self._publish(global_state, self._bcast_refs.get(home), published)
        if self.codec.stateful:
            self._bcast_refs[home] = global_state
        self.wire.broadcast_bytes += len(
            strategy_blob
        ) + self.transport.handle_wire_bytes(handle)
        return handle

    def _task(self, round_index: int, row: "_Row") -> tuple:
        """The constant-size task tuple for one row; a fault-plan event for
        the group rides inside it, so endpoints need no plan state."""
        for client, seed in zip(row.clients, row.seeds):
            # Count each client's fixed task fields exactly; the group
            # tuple's framing is charged to noise like the blob framing —
            # so the accounting stays invariant to the grouping and the
            # lane count.
            self.wire.task_bytes += len(
                pickle.dumps(
                    (client.client_id, round_index, seed, row.fault),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
        return (
            tuple(client.client_id for client in row.clients),
            round_index,
            tuple(row.seeds),
            row.fault,
        )

    def _decode_upload(
        self, blob: bytes, global_state: StateDict
    ) -> "list[ClientUpdate]":
        """Unwrap one upload frame's blob: codec-decode each state against
        the round's broadcast ``global_state``, the reference the endpoint
        encoded against (stateful codecs are lossless, so the endpoint's
        decoded broadcast is bit-identical to it)."""
        self.wire.upload_bytes += len(blob)
        updates: "list[ClientUpdate]" = decode_payload(blob)
        for update in updates:
            # Restore the codec-encoded state before anything downstream
            # (aggregation, benches) touches the update.
            update.state = self.codec.decode(update.state, global_state)
        return updates

    def _forget_home(self, home: object) -> None:
        """The endpoint at ``home`` is gone, and everything resident on it
        with it: its clients re-register before their next task, its
        broadcast chain restarts from a full frame, and evictions queued
        for it are moot."""
        for client_id in [
            cid for cid, (at, _) in self._resident.items() if at == home
        ]:
            del self._resident[client_id]
        self._bcast_refs.pop(home, None)
        self._pending_evictions.pop(home, None)

    def _evict_released(self) -> None:
        """Drop every resident whose client object its population has
        released, and queue the endpoint-side eviction for its home's next
        registration blob."""
        for client_id in [
            cid for cid, (_, ref) in self._resident.items() if ref() is None
        ]:
            home, _ = self._resident.pop(client_id)
            self._pending_evictions.setdefault(home, []).append(client_id)

    def close(self) -> None:
        """Release any worker resources.  Idempotent; lanes that can be
        rebuilt lazily may be reused after closing.  Everything the
        endpoints held dies with them: residency, queued evictions and the
        broadcast chains restart from full frames."""
        for store in (self._resident, self._pending_evictions, self._bcast_refs):
            store.clear()


class WorkerRuntime:
    """The training endpoint's half of the wire protocol.

    Holds everything a worker keeps between messages: the decoded model
    template, the negotiated codec and transport, its one trainer,
    resident clients, the current round's (lazily decoded) broadcast, and
    the stateful-codec reference — the previous decoded broadcast, which
    advances in lockstep with the server's chain for this home because
    lossless decoding is bit-exact (that invariant is why stateful codecs
    must be lossless).

    Construction *is* negotiation: the three arguments are what an agent
    receives in its handshake welcome, so every endpoint builds the same
    pipeline from the same strings before any state crosses the wire.
    """

    def __init__(
        self, model_blob: bytes, codec_spec: str, transport_spec: str
    ) -> None:
        self.model: "FeatureClassifierModel" = decode_payload(model_blob)
        self.codec: Codec = make_codec(codec_spec)  # the negotiated wire codec
        self.transport: Transport = make_transport(transport_spec)  # ...and transport
        self.trainer = EnsembleBackend()
        self.clients: dict[int, Client] = {}
        self.strategy_blob: "bytes | None" = None
        self.strategy: "Strategy | None" = None
        self.state: StateDict | None = None
        self.round_index: "int | None" = None
        # The not-yet-decoded broadcast: (transport handle, round index).
        # The broadcast handler only records it; the decode runs lazily at
        # the round's first tensor touch (see ensure_round_state) so it
        # overlaps the server's dispatch and the other workers' training
        # instead of serializing behind a per-round barrier.
        self.pending: "tuple[object, int] | None" = None
        self.bcast_ref: StateDict | None = None

    def register(self, clients_blob: bytes) -> int:
        """Make the shipped clients resident; replaces same-id residents.

        The blob also carries the ids the server evicted from this endpoint
        since the last registration — piggybacked here so worker-side
        copies are freed without a dedicated message.  Either half may be
        empty: a pure-eviction flush ships no clients, a pure registration
        no evictions.
        """
        clients, evict_ids = decode_payload(clients_blob)
        for client_id in evict_ids:
            self.clients.pop(client_id, None)
        for client in clients:
            self.clients[client.client_id] = client
        return len(clients)

    def broadcast(
        self, strategy_blob: bytes, handle: object, round_index: int
    ) -> None:
        """Record one round's strategy + broadcast handle.

        Deliberately does *not* decode the weights — that happens lazily at
        the round's first tensor touch (:meth:`ensure_round_state`),
        overlapping the decode with the server's task dispatch and the
        other workers' training.
        """
        if strategy_blob != self.strategy_blob:  # decode cached on the bytes
            self.strategy = decode_payload(strategy_blob)
            self.strategy_blob = strategy_blob
        self.pending = (handle, round_index)

    def ensure_round_state(self, round_index: int) -> float:
        """Decode the pending broadcast if this task is the round's first
        tensor touch on this endpoint; returns the decode wall clock (0.0
        when the round state is already installed)."""
        decode_seconds = 0.0
        if self.pending is not None and self.pending[1] == round_index:
            handle, pending_round = self.pending
            start = time.perf_counter()
            # fetch() is a pipe no-op / a zero-copy shm view / a tcp pull;
            # decode_payload reads it out-of-band, so the codec decodes
            # straight from the transport's buffer without an intermediate
            # copy.
            payload: Payload = decode_payload(self.transport.fetch(handle))
            self.state = self.codec.decode(payload, self.bcast_ref)
            if self.codec.stateful:
                self.bcast_ref = self.state
            self.round_index = pending_round
            self.pending = None
            decode_seconds = time.perf_counter() - start
        if self.state is None or self.round_index != round_index:  # pragma: no cover
            raise RuntimeError(
                f"task for round {round_index} arrived without its broadcast "
                f"(endpoint is at round {self.round_index})"
            )
        return decode_seconds

    def run_task(self, task: "Task") -> bytes:
        """Train one co-resident client group and upload its updates.

        ``task`` carries the group's client ids, their per-client seeds and
        at most one fault event.  Faulted clients always dispatch as
        singleton groups (the server enforces this), so a fault applies to
        ``client_ids[0]`` unambiguously; fault-free clients of one endpoint
        share a group, which the trainer stacks where it can.  The upload
        is always a *list* of updates, in group order.

        Crash faults never get here: a launched agent hard-exits first
        (:mod:`repro.fl.net.agent`), and the other lanes never dispatch a
        crash victim.
        """
        client_ids, round_index, seeds, fault = task
        if self.strategy is None:  # pragma: no cover - protocol violation
            raise RuntimeError("endpoint received a task before init/broadcast")
        decode_seconds = self.ensure_round_state(round_index)
        clients: list[Client] = []
        for client_id in client_ids:
            client = self.clients.get(client_id)
            if client is None:  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"client {client_id} is not resident on this endpoint"
                )
            clients.append(client)
        # Injected slowness, slept before the update so train_seconds
        # keeps measuring genuine compute.
        sleep_injected(fault)
        updates = self.trainer.run_group(
            self.strategy, self.model, self.state, clients,
            round_index, list(seeds),
        )
        # The lazy broadcast decode ran inside this task; stamp it once, on
        # the group's first update, so the round record's summed
        # ``decode_seconds`` counts it exactly once per endpoint per round.
        if updates:
            updates[0].decode_seconds = decode_seconds
        if fault is not None:
            # Faulted clients dispatch as singleton groups, so the fault
            # targets updates[0]; the adversary (or the corruption) acts
            # on the honest update pre-codec, against the broadcast this
            # endpoint decoded.
            apply_update_fault(updates[0], fault, self.state)
        # Codec-encode each upload against the broadcast it trained from;
        # ``update.state`` carries the Payload across the wire and the
        # server restores a decoded state before anyone else sees the
        # update.
        for update in updates:
            update.state = self.codec.encode(update.state, self.state)
        return encode_payload(updates)
