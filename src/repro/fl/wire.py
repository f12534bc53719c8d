"""Both halves of the wire protocol: what crosses to a lane, as bytes.

Mirrors the per-round-traffic argument PARDON makes against cross-sharing
methods (§IV-B-3, Fig. 4b): clients keep their data, only model updates
travel.

1. **Registration** (once per client object per lane lifetime): the
   client's id and data ship to its home as a :class:`Registration`, never
   its scratch.  A client partitioned from a generated suite ships as a
   *recipe* — the suite's spec and its rows — which the endpoint checks
   and renders itself (keeping each domain it renders for as long as a
   resident reads it), so its images never cross the wire; any other
   client ships the raw bytes of its three arrays.  The endpoint answers
   with the sha256 of every domain its recipes read, and the server drops
   a lane whose bytes differ from its reference (:meth:`WireServer._check_digests`).
   Ids evicted from the home since ride along (clients their population
   released, clients that moved to another home), so endpoint copies are
   freed without a message.
2. **Broadcast** (once per participating home per round): the strategy
   blob and the codec-encoded global weights as a ``state`` message
   (:func:`encode_state_frame`), published through the transport; workers
   cache the strategy decode keyed on the blob bytes and decode the
   weights lazily.
3. **Task** (per co-resident group per round):
   ``(client_ids, round_index, seeds, fault)``, crossing as the plain
   fields of :func:`task_fields`.  A home's fault-free
   participants share one task, which the endpoint's trainer
   (:mod:`repro.fl.compute`) stacks where it can; faulted clients always
   ride alone.
4. **Upload** (per group per round): the ``ClientUpdate`` records in
   group order — state (codec-encoded) plus method payload, nothing else
   — as one typed message (:func:`encode_upload`): scalars and codec meta
   as JSON, every array as a buffer.  The server reads it back through the
   wire's dtype allow-list and checks it against the round's broadcast;
   anything malformed drops the group's clients as ``corrupt``.  Scratch
   caches (PARDON's style-transferred images) stay on the endpoint that
   built them: they never cross the wire, and an endpoint that starts
   without them recomputes them.

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

import time
import weakref
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.partition import SuiteRows
from repro.data.registry import RecipeError, check_render, spec_key, suite_from_spec
from repro.data.synthetic import DomainSuite, LabeledDataset
from repro.fl.client import Client
from repro.fl.codec import Codec, Payload, make_codec
from repro.fl.compute import EnsembleBackend
from repro.fl.faults import FaultEvent, apply_update_fault, sleep_injected
from repro.fl.net.protocol import (
    STATE,
    Message,
    decode_message,
    decode_tree,
    encode_message,
    encode_tree,
    message_nbytes,
)
from repro.fl.transport import Transport, make_transport
from repro.nn.serialize import StateDict, decode_payload, encode_meta

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.executor import ClientUpdate
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel

__all__ = [
    "Registration",
    "WireServer",
    "WireStats",
    "WorkerRuntime",
    "decode_state_frame",
    "decode_upload",
    "encode_state_frame",
    "encode_upload",
    "task_fields",
    "task_from_fields",
]

#: ``(client_ids, round_index, seeds, fault)`` — see
#: :meth:`WorkerRuntime.run_task`.
Task = "tuple[tuple[int, ...], int, tuple[int, ...], FaultEvent | None]"


def task_fields(
    client_ids: "Sequence[int]",
    round_index: int,
    seeds: "Sequence[int]",
    fault: "FaultEvent | None",
) -> dict:
    """A task's plain fields, as its wire message carries them."""
    return {
        "clients": list(client_ids),
        "round": round_index,
        "seeds": list(seeds),
        "fault": None if fault is None else asdict(fault),
    }


def task_from_fields(fields: dict) -> "Task":
    """The task tuple :func:`task_fields` describes."""
    fault = fields["fault"]
    return (
        tuple(fields["clients"]),
        fields["round"],
        tuple(fields["seeds"]),
        None if fault is None else FaultEvent(**fault),
    )


#: A client's dataset arrays, in the order a registration carries them.
_DATASET_ARRAYS = ("images", "labels", "domain_ids")


def _payload_fields(payload: Payload) -> list:
    return [payload.codec, payload.kind, payload.tensors, payload.meta, payload.blob]


def _payload(codec: str, kind: str, tensors: dict, meta: dict, blob: object) -> Payload:
    """A codec payload from its read-back fields, each checked for its type."""
    if not (
        type(codec) is type(kind) is str and type(tensors) is type(meta) is dict
        and all(type(key) is str for key in tensors)
        and all(isinstance(value, np.ndarray) for value in tensors.values())
        and (blob is None or isinstance(blob, memoryview))
    ):
        raise ValueError("malformed codec payload")
    return Payload(codec, kind, tensors, meta, blob)


def encode_upload(updates: "Sequence[ClientUpdate]") -> "tuple[dict, list]":
    """The meta and buffers of one upload message (sent unjoined): per
    update a row ``[client_id, num_samples, floats, state, payload]`` as
    :func:`~repro.fl.net.protocol.encode_tree` writes it.  ``floats`` is
    the loss and the three timings as one float64 array, so an upload's
    byte count does not vary with the timings it reports; ``state`` is the
    codec payload's fields."""
    buffers: list = []
    rows = [
        [
            update.client_id, update.num_samples,
            np.array([update.loss, update.train_seconds, update.decode_seconds,
                      update.straggler_seconds], dtype=np.float64),
            _payload_fields(update.state), update.payload,
        ]
        for update in updates
    ]
    return {"updates": encode_tree(rows, buffers)}, buffers


def decode_upload(meta: dict, buffers: "Sequence[object]") -> "list[ClientUpdate]":
    """The updates an upload message carries, their states still codec
    payloads and every array a read-only view of its buffer.  Meta that
    does not read back as :func:`encode_upload`'s rows, a buffer count or
    shape that does not match, or a dtype outside the allow-list raises (a
    :class:`ValueError`, or the error of a field of the wrong type)."""
    # Imported here: repro.fl.executor imports this module.
    from repro.fl.executor import ClientUpdate

    updates = []
    for client_id, num_samples, floats, state, payload in decode_tree(
        meta.get("updates"), buffers
    ):
        if not (
            type(client_id) is type(num_samples) is int and type(payload) is dict
            and isinstance(floats, np.ndarray) and floats.shape == (4,)
            and floats.dtype == np.float64
        ):
            raise ValueError("malformed upload row")
        loss, *seconds = floats.tolist()
        state = _payload(*state)
        updates.append(ClientUpdate(client_id, num_samples, state, loss, payload, *seconds))
    return updates


def encode_state_frame(payload: Payload) -> bytes:
    """One broadcast's codec payload as a ``state`` message, joined into
    the one blob a transport publishes."""
    buffers: list = []
    fields = encode_tree(_payload_fields(payload), buffers)
    return encode_message(STATE, {"state": fields}, *buffers)


def decode_state_frame(frame: "bytes | memoryview") -> Payload:
    """The codec payload a state frame carries, its arrays views of
    ``frame``."""
    message = decode_message(frame)
    if message.kind != STATE:
        raise ValueError(f"expected a state frame, got {message.kind!r}")
    return _payload(*decode_tree(message.meta.get("state"), message.buffers))


def _recipe_parts(
    recipe: object, suites: "dict[str, DomainSuite]", max_domain_bytes: int
) -> "tuple[DomainSuite, list[tuple[int, np.ndarray]]]":
    """The suite and parts ``recipe`` (``{suite, parts}``) names, checked
    before anything renders: an allowed builder with bounded arguments
    (:func:`repro.data.registry.suite_from_spec`), domains that exist and
    render within ``max_domain_bytes``, and rows that are integers, in
    range and distinct.  Anything else is a :class:`RecipeError`.
    ``suites`` caches the suites built so far, by spec."""
    if not isinstance(recipe, dict) or set(recipe) != {"suite", "parts"}:
        raise RecipeError(f"malformed recipe {recipe!r}")
    if not isinstance(recipe["parts"], list):
        raise RecipeError(f"recipe parts {recipe['parts']!r} are not a list")
    key = spec_key(recipe["suite"])
    suite = suites.get(key) or suite_from_spec(recipe["suite"])
    suites[key] = suite
    parts, taken = [], {}
    for part in recipe["parts"]:
        if not (
            isinstance(part, list) and len(part) == 2 and isinstance(part[1], list)
        ):
            raise RecipeError(f"malformed recipe part {part!r}")
        domain, rows = part
        check_render(suite, domain, max_domain_bytes)
        length = len(suite.datasets[domain])
        if not all(type(row) is int and 0 <= row < length for row in rows):
            raise RecipeError(
                f"recipe rows of domain {domain} are not all integers in "
                f"[0, {length})"
            )
        rows = np.array(rows, dtype=np.int64)
        seen = taken.setdefault(domain, np.zeros(length, dtype=bool))
        if np.unique(rows).size != rows.size or seen[rows].any():
            raise RecipeError(f"recipe repeats a row of domain {domain}")
        seen[rows] = True
        parts.append((domain, rows))
    return suite, parts


@dataclass(eq=False)
class Registration:
    """One home's registration as it crosses the wire: plain fields
    (``meta``) plus the raw bytes of the dataset arrays of every client
    that has no recipe (``buffers``, three per such client, in ``meta``
    order, each named in meta as
    :func:`repro.fl.net.protocol.encode_tree` names an array).

    Built by the server with :meth:`of`: a client whose dataset is a
    :class:`repro.data.partition.SuiteRows` of a generated suite goes as
    its ``recipe``, and ``domains`` maps each domain the recipes read to
    the server's own suite (for :meth:`WireServer._check_digests`); any
    other client's buffers are flat byte views of its own arrays (a
    non-contiguous array is made contiguous first, the one copy it
    needs).  Rebuilt on an endpoint from a ``register`` message's meta and
    buffers, whose arrays :meth:`clients` reads in place.  Nothing in it
    is pickled.
    """

    meta: dict
    buffers: "Sequence[object]"
    #: ``(spec key, domain)`` -> the server's suite of that domain.
    domains: "dict[tuple[str, int], DomainSuite]" = field(default_factory=dict)

    @classmethod
    def of(
        cls, clients: "Sequence[Client]", evict_ids: "Sequence[int]"
    ) -> "Registration":
        entries, buffers, domains = [], [], {}
        for client in clients:
            recipe = getattr(client.dataset, "recipe", None)
            if recipe is not None:
                entries.append({"id": client.client_id, "recipe": recipe})
                key = spec_key(recipe["suite"])
                for domain, _ in recipe["parts"]:
                    domains[key, domain] = client.dataset.suite
                continue
            arrays = [getattr(client.dataset, name) for name in _DATASET_ARRAYS]
            entries.append({"id": client.client_id, "arrays": encode_tree(arrays, buffers)})
        return cls({"clients": entries, "evict": list(evict_ids)}, buffers, domains)

    @property
    def nbytes(self) -> int:
        """What crosses: the meta's encoding plus every array's bytes."""
        return message_nbytes(self.meta, self.buffers)

    def clients(
        self, suites: "dict[str, DomainSuite] | None" = None
    ) -> "list[Client]":
        """The registered clients.  Inline arrays are read-only views of
        the buffers; a recipe client's dataset is a :class:`SuiteRows`
        over a suite from ``suites`` (built there from its spec if new),
        holding its domains rendered.  Every entry is checked before any
        domain renders: anything malformed raises, a ``ValueError`` where
        a field has the right type (:class:`RecipeError` for a recipe,
        whose domains may each render at most a frame's bound,
        ``MAX_FRAME_BYTES``; an id that is not an int, or a buffer count,
        dtype or shape that does not match)."""
        # Imported here: repro.fl.net imports this module.
        from repro.fl.net.frames import MAX_FRAME_BYTES

        suites = {} if suites is None else suites
        entries = self.meta["clients"]
        if not all(isinstance(entry, dict) for entry in entries):
            raise ValueError(f"malformed registration entries {entries!r}")
        inline = [entry.get("arrays") for entry in entries if "recipe" not in entry]
        inline = iter(decode_tree(inline, self.buffers))
        checked = []
        for entry in entries:
            client_id = entry.get("id")
            if type(client_id) is not int:
                raise ValueError(f"malformed registration entry {entry!r}")
            if "recipe" in entry:
                checked.append(
                    (client_id, _recipe_parts(entry["recipe"], suites, MAX_FRAME_BYTES))
                )
                continue
            arrays = next(inline)
            if not (
                isinstance(arrays, list) and len(arrays) == len(_DATASET_ARRAYS)
                and all(isinstance(array, np.ndarray) for array in arrays)
            ):
                raise ValueError(f"malformed registration entry {entry!r}")
            checked.append((client_id, LabeledDataset(*arrays)))
        return [
            Client(
                client_id,
                dataset if isinstance(dataset, LabeledDataset)
                else SuiteRows(*dataset).hold(),
            )
            for client_id, dataset in checked
        ]


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
        # registration so the endpoint's own copies are freed without
        # a dedicated message.
        self._pending_evictions: "dict[object, list[int]]" = {}
        # Server half of the stateful-codec broadcast chain (see
        # WorkerRuntime): home -> last broadcast state.  Populated only
        # when ``codec.stateful``.
        self._bcast_refs: "dict[object, StateDict]" = {}
        # (spec key, domain) -> the first digest a lane reported for it,
        # the reference for domains this process never rendered.
        self._digests: "dict[tuple[str, int], str]" = {}
        # Homes refused for rendering a domain to other bytes, until the
        # round driver drops their clients (reason "mismatch").
        self._mismatched: "set[object]" = set()

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

    def _registration(self, home: object, clients: "list[Client]") -> Registration:
        """One registration for ``home``.  Eviction ids queued for the home
        ride along in it (see ``WorkerRuntime.register``); either half may
        be empty."""
        registration = Registration.of(clients, self._pending_evictions.pop(home, ()))
        self.wire.registration_bytes += registration.nbytes
        # Each client ships to exactly one home, so the registration is
        # already fan-out-free and counts unchanged toward the unique floor.
        self.wire.unique_registration_bytes += registration.nbytes
        for client in clients:
            self._resident[client.client_id] = (home, weakref.ref(client))
        return registration

    def _check_digests(self, registration: Registration, digests: object) -> bool:
        """Whether a lane rendered the domains ``registration``'s recipes
        read to the reference bytes: this process's own render of a domain
        if it made one, else the first digest any lane reported for it.
        ``digests`` is the lane's answer, ``[[spec, domain, sha256], ...]``.
        Only what it reports is checked: the guard catches lanes whose
        numpy renders differently, not a peer that lies."""
        for entry in digests if isinstance(digests, list) else ():
            if not (
                isinstance(entry, list) and len(entry) == 3
                and type(entry[1]) is int and type(entry[2]) is str
            ):
                return False
            spec, domain, digest = entry
            key = (spec_key(spec), domain)
            suite = registration.domains.get(key)
            if suite is None:
                continue  # not a domain this registration reads
            own = suite.datasets.digests.get(domain)
            if digest != (own or self._digests.setdefault(key, digest)):
                return False
        return True

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
            blob = encode_state_frame(self.codec.encode(global_state, ref))
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
            # Count each client's fields as the meta of a task of its own
            # would carry them; the group's shared framing (and its task
            # id) is charged to noise like the blob framing — so the
            # accounting stays invariant to the grouping and the lane count.
            fields = task_fields([client.client_id], round_index, [seed], row.fault)
            self.wire.task_bytes += len(encode_meta(fields))
        return (
            tuple(client.client_id for client in row.clients),
            round_index,
            tuple(row.seeds),
            row.fault,
        )

    def _decode_upload(
        self, upload: Message, global_state: StateDict, row: "_Row"
    ) -> "list[ClientUpdate]":
        """Read one row's upload message: its updates, one per client of
        the row and in its order (with that client's sample count), each
        state codec-decoded against the
        round's broadcast ``global_state`` — the reference the endpoint
        encoded against (stateful codecs are lossless, so the endpoint's
        decoded broadcast is bit-identical to it) — and holding exactly its
        keys, shapes and dtypes.  Anything else raises (see
        :func:`decode_upload`)."""
        # The task id is framing, charged to noise as a task's is, so the
        # count does not depend on which ids the tasks drew.
        self.wire.upload_bytes += message_nbytes(
            {"updates": upload.meta.get("updates")}, upload.buffers
        )
        updates = decode_upload(upload.meta, upload.buffers)
        if [(update.client_id, update.num_samples) for update in updates] != [
            (client.client_id, client.num_samples) for client in row.clients
        ]:
            raise ValueError("upload is not one update per client of its task")
        for update in updates:
            # Restore the codec-encoded state before anything downstream
            # (aggregation, benches) touches the update.
            state = self.codec.decode(update.state, global_state)
            if state.keys() != global_state.keys() or any(
                state[key].shape != value.shape or state[key].dtype != value.dtype
                for key, value in global_state.items()
            ):
                raise ValueError("uploaded state does not match the broadcast")
            update.state = state
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
        registration."""
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
        #: Spec key -> the suite recipes were rendered from; each domain
        #: stays rendered while a resident holds it.
        self.suites: "dict[str, DomainSuite]" = {}
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

    def register(self, registration: Registration) -> int:
        """Make the shipped clients resident; replaces same-id residents.

        The registration also carries the ids the server evicted from this
        endpoint since the last one — piggybacked here so worker-side
        copies are freed without a dedicated message.  Either half may be
        empty: a pure-eviction flush ships no clients, a pure registration
        no evictions.
        """
        clients = registration.clients(self.suites)
        for client_id in registration.meta["evict"]:
            self.clients.pop(client_id, None)
        for client in clients:
            self.clients[client.client_id] = client
        return len(clients)

    def digests(self) -> "list[list]":
        """``[spec, domain, sha256]`` of every domain this endpoint has
        rendered from a recipe, for the server to check against its
        reference."""
        return [
            [suite.spec, domain, digest]
            for suite in self.suites.values()
            for domain, digest in sorted(suite.datasets.digests.items())
        ]

    def broadcast(
        self, strategy_blob: "bytes | memoryview", handle: object, round_index: int
    ) -> None:
        """Record one round's strategy + broadcast handle.

        Deliberately does *not* decode the weights — that happens lazily at
        the round's first tensor touch (:meth:`ensure_round_state`),
        overlapping the decode with the server's task dispatch and the
        other workers' training.
        """
        if strategy_blob != self.strategy_blob:  # decode cached on the bytes
            self.strategy = decode_payload(strategy_blob)
            # Its own copy: a view would hold the whole broadcast frame.
            self.strategy_blob = bytes(strategy_blob)
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
            # the state frame's arrays are views of it, so the codec
            # decodes straight from the transport's buffer without an
            # intermediate copy.
            payload = decode_state_frame(self.transport.fetch(handle))
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

    def run_task(self, task: "Task") -> "tuple[dict, list]":
        """Train one co-resident client group; its upload message's meta
        and buffers (:func:`encode_upload`).

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
        return encode_upload(updates)
