"""The round lifecycle: one driver, whatever the lane.

:class:`Executor` owns *what happens in a round* — who is dispatched, who
is dropped and why, what is folded into aggregation — once, for every
engine (the lifecycle diagram is in :mod:`repro.fl.executor`).  An engine
is reduced to a *lane set*: the methods at the bottom of :class:`Executor`,
which only know a mechanism — a function call, framed sockets to agents,
or a scripted fake in ``tests/test_fl_round.py``.
A *home* is one lane of the set (an agent); every client has
exactly one home per round.  Lanes never decide membership: they move
bytes and report ``(task_id, upload)`` or ``(task_id, LOST)``.

The collector waits for uploads in *arrival order*.  That is safe because
results are keyed by dispatch position, every upload decodes against the
round's broadcast and folds into :meth:`AggregationStream.fold` at its
dispatch position (the mean is order-invariant; the other rules reduce in
position order) — so the bits (and, under a deadline, the membership:
everything finished by the deadline is accepted) do not depend on it.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.fl.client import Client
from repro.fl.codec import Codec
from repro.fl.faults import (
    AdaptiveDeadline,
    FaultEvent,
    FaultPlan,
    FixedDeadline,
    RoundTimeoutError,
    make_deadline_policy,
    make_fault_plan,
    state_is_corrupt,
)
from repro.fl.history import RoundRecord
from repro.fl.wire import Registration, WireServer, WireStats, _Row
from repro.nn.ensemble import check_stackable
from repro.nn.serialize import StateDict, encode_payload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.aggregate import AggregationStream
    from repro.fl.executor import ClientUpdate
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel

__all__ = ["Executor", "LOST", "time_left"]

#: What :meth:`Executor.poll` reports in place of an upload when the lane
#: carrying a task is gone (a dead pool process, a vanished agent).
LOST = object()

#: What reading a peer's upload raises when its fields are malformed or
#: of the wrong type (:meth:`WireServer._decode_upload`): a typed drop.
_MALFORMED = (ValueError, TypeError, KeyError, IndexError, RecursionError)


def time_left(limit: "float | None") -> "float | None":
    """Seconds until the ``perf_counter`` reading ``limit``, floored at
    zero — the ``timeout`` every bounded wait takes (``None``: unbounded)."""
    return None if limit is None else max(0.0, limit - time.perf_counter())


@dataclass
class _Round:
    """The working set of one round in flight."""

    index: int
    strategy: "Strategy"
    global_state: StateDict
    record: RoundRecord
    stream: "AggregationStream | None"
    #: Live round control; both stay ``None`` while replaying.
    deadline: "float | None" = None
    quorum: "int | None" = None
    injected: "dict[int, FaultEvent]" = field(default_factory=dict)
    strategy_blob: bytes = b""
    #: id(reference state) -> published handle of the frame encoded against
    #: it, so lanes whose chains point at the same state share one encode.
    published: "dict[int, object]" = field(default_factory=dict)
    deadline_at: "float | None" = None
    #: task id -> row, for every task submitted and not yet answered.
    outstanding: "dict[int, _Row]" = field(default_factory=dict)
    #: dispatch position -> accepted update.
    results: "dict[int, ClientUpdate]" = field(default_factory=dict)
    #: Clients whose task was executing when its lane died once already.
    suspects: "set[int]" = field(default_factory=set)

    @property
    def quorum_met(self) -> bool:
        return self.quorum is not None and len(self.results) >= self.quorum


class Executor(WireServer):
    """Engine contract: run one round's sampled clients, in sampling order.

    ``participants`` and ``seeds`` are aligned; ``model`` is the server's
    architecture template (the in-process lane trains on it directly, wire
    lanes ship it to their endpoints).  :meth:`run_round` returns one
    :class:`ClientUpdate` per *accepted* participant, in sampling order,
    with decoded (post-codec) states.

    ``codec`` is the wire codec for weight payloads (a spec string or a
    built :class:`repro.fl.codec.Codec`).  The round trace is
    *codec-invariant for lossless codecs* and *engine-invariant for every
    codec*: an in-process lane reproduces a lossy wire by round-tripping
    states through the codec, exactly as a worker would see them.
    Every endpoint trains its co-resident client groups through the one
    trainer (:mod:`repro.fl.compute`), whose per-client numerics are
    bitwise independent of the grouping.

    ``faults`` injects a deterministic chaos schedule
    (:class:`repro.fl.faults.FaultPlan`, or its spec string), ``deadline``
    bounds each round's wall clock and ``quorum`` closes it early; all
    default to off.  Such a round may return *fewer* updates than
    participants — the survivors, still in sampling order.  Who survives is
    engine-invariant: the chaos tests compare traces bit-for-bit under one
    plan.

    Every round, failed ones included, leaves its
    :class:`repro.fl.history.RoundRecord` in :attr:`last_round`: who was
    dropped and why, the summed upload timings, the wall clock and the
    wire bytes.  The server completes it and appends it to the history.

    Subclasses implement the lane set (:meth:`open` … :meth:`respawn`) and
    never override :meth:`run_round`.
    """

    #: Whether a plan's crash victim is dispatched so its lane really dies
    #: (the pool's launched agent exits and is relaunched).  Otherwise the
    #: victim is dropped at dispatch — an agent is not the server's process
    #: to kill, and an in-process lane would take the server with it.
    kills_crash_victims = False

    def __init__(
        self,
        codec: "str | Codec" = "identity",
        faults: "str | FaultPlan | None" = None,
        deadline: "float | str | FixedDeadline | AdaptiveDeadline | None" = None,
        quorum: int | None = None,
    ) -> None:
        super().__init__(codec)
        self.fault_plan = make_fault_plan(faults)
        #: The round-deadline policy (:mod:`repro.fl.faults`): ``None`` for
        #: no deadline, :class:`FixedDeadline` for the historical constant
        #: budget, :class:`AdaptiveDeadline` for percentile-of-recent-rounds.
        self.deadline_policy = make_deadline_policy(deadline)
        if quorum is not None and int(quorum) < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        #: Early-close floor: the round closes at the first ``quorum``
        #: accepted uploads (``None`` = wait for everyone).
        self.quorum = None if quorum is None else int(quorum)
        #: The most recent round's record, published even when it raised.
        self.last_round: RoundRecord | None = None
        # Measured durations of recent completed rounds, as many as an
        # adaptive deadline policy's window reads (none for other policies).
        self._round_durations: "deque[float]" = deque(
            maxlen=getattr(self.deadline_policy, "window", 0)
        )
        # round_index -> (accepted client ids, recorded drop map): when set,
        # run_round replays exactly that membership instead of running its
        # own round control.  See set_replay.
        self._replay: (
            "dict[int, tuple[tuple[int, ...], dict[int, str]]] | None"
        ) = None
        # Task ids are unique per engine lifetime, not per round: a late
        # upload from a closed round must never match a live task.
        self._task_ids = itertools.count()

    def set_replay(self, history: object) -> None:
        """Pin future rounds to a recorded accepted-set per round.

        ``history`` is a :class:`repro.fl.history.RunHistory` (or any
        iterable of :class:`repro.fl.history.RoundRecord`) whose records
        carry :attr:`~repro.fl.history.RoundRecord.accepted` — i.e. they
        came from a quorum / adaptive-deadline run.  A replayed round
        dispatches exactly the recorded accepted clients (in sampling
        order), copies the recorded drop map verbatim, and applies no
        deadline or quorum logic of its own, so the trace is bit-identical
        to the recorded run on *any* engine — even though the original
        membership was decided by a wall-clock race.
        """
        records = getattr(history, "records", history)
        replay: "dict[int, tuple[tuple[int, ...], dict[int, str]]]" = {}
        for record in records:
            if record.accepted is None:
                raise ValueError(
                    f"round {record.round_index} has no recorded accepted "
                    f"set; only quorum/adaptive-deadline runs record one"
                )
            replay[record.round_index] = (
                tuple(record.accepted),
                dict(record.dropped),
            )
        self._replay = replay

    def clear_replay(self) -> None:
        """Return to live round control after :meth:`set_replay`."""
        self._replay = None

    def _current_deadline(self) -> float | None:
        """This round's wall-clock budget under the configured policy."""
        if self.deadline_policy is None:
            return None
        return self.deadline_policy.resolve(tuple(self._round_durations))

    def _observe_round_duration(self, seconds: float) -> None:
        """Feed a completed round's duration to adaptive deadline policies
        (the window of any other policy holds nothing)."""
        self._round_durations.append(float(seconds))

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the round ------------------------------------------------------------

    def run_round(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        global_state: StateDict,
        participants: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
        stream: "AggregationStream | None" = None,
    ) -> "list[ClientUpdate]":
        """Run one round's local updates; with ``stream`` each *accepted*
        upload is folded into the round's aggregation stream as membership
        resolves — at its dispatch position, weighted by
        ``strategy.upload_weight`` — and its ``state`` freed: the returned
        updates then carry ``state=None`` and the caller finalizes the
        stream.  ``stream.count`` always equals the number of returned
        updates, which is how :meth:`repro.fl.strategy.Strategy.aggregate`
        cross-checks that the engine and the stream saw the same round.

        A participant without samples is a ``ValueError``: it has nothing
        to train on and no weight to fold with."""
        # Refused here, before any lane opens: inside a lane the trainer's
        # ``ensemble_of`` would raise it on every agent instead.
        check_stackable(model)
        empty = [
            client.client_id for client in participants if not client.num_samples
        ]
        if empty:
            raise ValueError(
                f"round {round_index}: participants {empty} hold no samples"
            )
        start, wire_before = time.perf_counter(), self.wire_stats()
        record = RoundRecord(
            round_index, 0.0, [client.client_id for client in participants]
        )
        rnd = _Round(round_index, strategy, global_state, record, stream)
        try:
            self.open(model)
            round_start = time.perf_counter()
            rows = self._group(rnd, self._plan(rnd, participants, seeds))
            homes = sorted({row.home for row in rows})
            self._encode_broadcast(rnd, homes)
            dispatch_start = time.perf_counter()
            # One wave carries every home: each lane trains while the next
            # one is still being fed, and uploads are taken as they arrive.
            self._dispatch(rnd, homes, rows)
            if rnd.deadline is not None:
                # The deadline clock starts once the round is in flight, so
                # time spent absorbing a previous round's straggler into
                # registration does not eat this round's budget.
                rnd.deadline_at = time.perf_counter() + rnd.deadline
            self._collect(rnd)
            self._close_unanswered(rnd, rows)
            remote_seconds = time.perf_counter() - dispatch_start
        finally:
            # A round that raised leaves no task live: a late answer of it
            # is discarded by id, never taken for a later round's.
            for task_id in rnd.outstanding:
                self.abandon(task_id)
            # Release round-scoped wire resources (shm segments) even when
            # dispatch, a lane, or an upload failed — callers that catch
            # the error must not retain blob-sized shared memory until the
            # next successful round or close().
            if self.transport is not None:
                self.transport.end_round()
            updates = [update for _, update in sorted(rnd.results.items())]
            self._fill_record(record, updates, wire_before, start)
        unreachable = tuple(
            client_id
            for client_id, reason in record.dropped.items()
            if reason in ("deadline", "disconnect", "mismatch")
        )
        if (unreachable and self._replay is None) and (
            not updates or (rnd.quorum is not None and not rnd.quorum_met)
        ):
            # The round closed on a deadline (or on vanished lanes) with
            # nothing at all to aggregate — or, under a quorum, below the
            # configured floor: a failed round, not a gracefully partial
            # one.
            raise RoundTimeoutError(
                round_index,
                unreachable,
                quorum=rnd.quorum,
                accepted=tuple(update.client_id for update in updates),
            )
        self.note_round(record, updates, remote_seconds)
        self._evict_released()
        self._observe_round_duration(time.perf_counter() - round_start)
        return updates

    def _fill_record(
        self,
        record: RoundRecord,
        updates: "list[ClientUpdate]",
        wire_before: WireStats,
        start: float,
    ) -> None:
        """Write what the round's uploads and clocks say into its record
        and publish it — also when the round is about to raise."""
        wire = self.wire_stats()
        losses = [update.loss for update in updates]
        record.mean_local_loss = float(np.mean(losses)) if losses else 0.0
        if (
            self.quorum is not None
            or self._replay is not None
            or (self.deadline_policy is not None and self.deadline_policy.adaptive)
        ):
            # Membership was a wall-clock race or a replay: record exactly
            # who reached aggregation, so the run replays bit-identically.
            record.accepted = [update.client_id for update in updates]
        record.train_seconds = sum(update.train_seconds for update in updates)
        record.decode_seconds = sum(update.decode_seconds for update in updates)
        record.wall_seconds = time.perf_counter() - start
        record.bytes_up = wire.bytes_up - wire_before.bytes_up
        record.bytes_down = wire.bytes_down - wire_before.bytes_down
        record.unique_bytes_down = (
            wire.unique_bytes_down - wire_before.unique_bytes_down
        )
        self.last_round = record

    def _plan(
        self, rnd: _Round, participants: Sequence[Client], seeds: Sequence[int]
    ) -> "list[tuple[Client, int]]":
        """Decide who is dispatched, and with which injected fault: a
        pinned replay, or the fault plan's triage plus the crash-victim /
        cooperative-deadline rules of lanes that cannot kill or preempt."""
        record, plan = rnd.record, self.fault_plan
        ids = [client.client_id for client in participants]
        keep = set(ids)
        if self._replay is not None:
            # Pinned membership: dispatch exactly the recorded accepted
            # set and run no deadline or quorum logic — the recorded drop
            # map, copied verbatim, already says who fell.  Only
            # update-level faults (sleeps, corrupt and byzantine payloads)
            # are re-injected; in particular the plan's crash victim is
            # *not* re-picked — it would deterministically select a fresh
            # victim from the narrowed accepted set.
            if rnd.index not in self._replay:
                raise ValueError(
                    f"replay is set but has no entry for round {rnd.index}"
                )
            accepted, recorded = self._replay[rnd.index]
            keep &= set(accepted)
            record.dropped.update(recorded)
            if plan is not None:
                events = {
                    cid: plan.fault_for(cid, rnd.index) for cid in ids if cid in keep
                }
                rnd.injected = {
                    cid: event for cid, event in events.items()
                    if event is not None and event.kind != "dropout"
                }
                record.straggler_seconds += sum(
                    event.delay_seconds for event in rnd.injected.values()
                    if event.kind in ("straggler", "hang")
                )
        else:
            rnd.deadline, rnd.quorum = self._current_deadline(), self.quorum
            if plan is not None:
                actions = plan.actions_for_round(ids, rnd.index, rnd.deadline)
                record.straggler_seconds = actions.straggler_seconds
                # Plan-skipped clients (dropouts, over-deadline stragglers)
                # never dispatch: they neither register nor receive a
                # task, exactly as an unreachable client would behave.
                record.dropped.update(actions.skipped)
                keep -= actions.skipped.keys()
                rnd.injected = actions.injected
        pairs = []
        for client, seed in zip(participants, seeds):
            if client.client_id not in keep:
                continue
            fault = rnd.injected.get(client.client_id)
            if fault is not None:
                if fault.kind == "crash" and not self.kills_crash_victims:
                    record.dropped[client.client_id] = "crash"
                    continue
                if (
                    fault.kind == "hang"
                    and self.transport is None
                    and rnd.deadline is not None
                    and fault.delay_seconds >= rnd.deadline
                ):
                    # No preemption in-process — the wall-clock deadline
                    # cannot cut a running update loose — so approximate
                    # it with the cooperative rule.
                    record.dropped[client.client_id] = "deadline"
                    continue
            pairs.append((client, seed))
        return pairs

    def _group(
        self, rnd: _Round, pairs: "list[tuple[Client, int]]"
    ) -> "list[_Row]":
        """Pack the dispatched clients into task rows.

        On a wire lane a home's fault-free participants share ONE row (the
        endpoint's trainer stacks what it can); faulted clients always ride
        alone.  Per-client numerics are bitwise independent of this
        grouping, so the trace cannot tell the difference.  The in-process
        lane keeps one row per client — it hands the whole round to one
        trainer and answers it stack by stack (see ``SerialExecutor.poll``)
        — so an early close cuts at exactly ``quorum`` accepted uploads.
        """
        rows: "list[_Row]" = []
        group_at: "dict[object, _Row]" = {}
        for position, (client, seed) in enumerate(pairs):
            fault = rnd.injected.get(client.client_id)
            home = self.home(client.client_id)
            row = group_at.get(home) if fault is None else None
            if row is None:
                row = _Row(home, fault)
                rows.append(row)
                if self.transport is not None and fault is None:
                    group_at[home] = row
            row.clients.append(client)
            row.seeds.append(seed)
            row.positions.append(position)
        return rows

    def _encode_broadcast(self, rnd: _Round, homes: "list") -> None:
        """Encode the round's broadcast up front (strategy blob + one state
        frame per distinct reference chain)."""
        if self.transport is None:
            return
        rnd.strategy_blob = encode_payload(rnd.strategy)
        self.wire.unique_broadcast_bytes += len(rnd.strategy_blob)
        for home in homes:
            self._publish(
                rnd.global_state, self._bcast_refs.get(home), rnd.published
            )

    def _feed(
        self, rnd: _Round, home: object, newcomers: "list[Client]", rows: "list[_Row]"
    ) -> None:
        """Everything one home needs, in the order its lane must see it:
        registration (newcomers plus queued evictions), ONE broadcast — per
        participating home, not per task — then its tasks.  A row that is
        being re-run keeps the task id it was first sent under."""
        if newcomers or home in self._pending_evictions:
            self.send_register(home, self._registration(home, newcomers))
        if self.transport is None:
            # In-process the objects are the frame.  The state is what a
            # worker would train from: identical to the global state for
            # lossless codecs, the dequantized broadcast for lossy ones.
            self.send_broadcast(
                home, rnd.strategy, self.codec.roundtrip(rnd.global_state),
                rnd.index,
            )
        else:
            handle = self._broadcast_handle(
                home, rnd.global_state, rnd.strategy_blob, rnd.published
            )
            self.send_broadcast(home, rnd.strategy_blob, handle, rnd.index)
        for row in rows:
            if row.task_id is None:
                row.task_id = next(self._task_ids)
            rnd.outstanding[row.task_id] = row
            self.submit(
                row.task_id,
                home,
                row if self.transport is None else self._task(rnd.index, row),
            )

    def _dispatch(self, rnd: _Round, homes: "list", rows: "list[_Row]") -> None:
        """Put the round in flight, home by home — a lane starts training
        while the next one is still being fed."""
        newcomers = self._newcomers(rows) if self.transport is not None else {}
        # Homes with queued evictions but nothing to do this round get an
        # empty registration — the flush that actually frees the endpoint's
        # copies — so an eviction never waits on a resample.
        for home in sorted(set(self._pending_evictions) - set(homes)):
            self.send_register(home, self._registration(home, []))
        for home in homes:
            self._feed(
                rnd, home, newcomers.get(home, []),
                [row for row in rows if row.home == home],
            )

    def _collect(self, rnd: _Round) -> None:
        """The one loop that waits for uploads: arrival order, until every
        outstanding task is answered, the quorum is met, or the deadline
        expires (``poll`` returns nothing only on timeout)."""
        while rnd.outstanding and not rnd.quorum_met:
            events = self.poll(time_left(rnd.deadline_at))
            if not events:
                return
            for task_id, upload in events:
                if rnd.quorum_met:
                    break
                row = rnd.outstanding.get(task_id)
                if row is None:
                    continue  # answered, dropped or re-run since it was sent
                if upload is LOST:
                    self._lane_lost(rnd, row.home)
                else:
                    del rnd.outstanding[task_id]
                    self._ingest(rnd, row, upload)

    def _close_unanswered(self, rnd: _Round, rows: "list[_Row]") -> None:
        """Close the round over whatever arrived: every row still
        outstanding is dropped with the reason the collector stopped for,
        and its task absorbed (it finishes harmlessly on its lane and the
        result is discarded)."""
        unanswered = [row for row in rows if row.task_id in rnd.outstanding]
        if not unanswered:
            return
        if rnd.quorum_met:
            rnd.record.early_closed = True
            rnd.record.early_close_seconds = time_left(rnd.deadline_at) or 0.0
        for task_id in rnd.outstanding:
            self.abandon(task_id)
        rnd.outstanding.clear()
        for row in unanswered:
            self._drop(rnd, row, "quorum" if rnd.quorum_met else "deadline")

    def _drop(self, rnd: _Round, row: _Row, reason: str) -> None:
        """Record a row's clients as dropped.  They re-register before
        their next participation: the endpoint acknowledges a registration
        only after the abandoned task ahead of it has finished, so that
        task never runs into the next round's deadline clock."""
        for client in row.clients:
            rnd.record.dropped[client.client_id] = reason
            self._resident.pop(client.client_id, None)

    def _lane_lost(self, rnd: _Round, home: object) -> None:
        """A lane died: forget what died with it, then either re-run what
        the loss took (the lane came back) or drop it (it did not).

        The rule is the same whatever the lane: endpoint-resident state
        is forgotten (see :meth:`WireServer._forget_home`); uploads that
        outran the loss still decode against the round's broadcast.
        """
        # A lane refused for its data is not rebuilt here: a new one on
        # the same numpy would render the same bytes.
        mismatched = home in self._mismatched
        self._mismatched.discard(home)
        rebuilt = not mismatched and self.respawn(home)
        self._forget_home(home)
        lost = [row for row in rnd.outstanding.values() if row.home == home]
        rnd.record.rebuilt_workers += int(rebuilt)
        # The plan's crash victim (always a singleton row) is dropped, and
        # so is a group that was *executing* when its lane died for the
        # second time — a deterministic poison pill would rebuild the lane
        # forever.  Lanes run FIFO, so only the first lost row was
        # executing; rows queued behind it never got to run.  Every other
        # lost task re-runs with its original seeds, so the surviving set
        # — and the trace — matches the engines that skip the victim.
        rerun: "list[_Row]" = []
        for head, row in enumerate(lost):
            poisoned = head == 0 and all(
                client.client_id in rnd.suspects for client in row.clients
            )
            victim = row.fault is not None and row.fault.kind == "crash"
            if rebuilt and not poisoned and not victim:
                if head == 0:
                    rnd.suspects.update(client.client_id for client in row.clients)
                rerun.append(row)
            else:
                del rnd.outstanding[row.task_id]
                self._drop(
                    rnd, row,
                    "mismatch" if mismatched else "crash" if rebuilt else "disconnect",
                )
        if rerun:
            # The fresh endpoint holds no reference state, so the
            # re-broadcast is a full frame.
            self._feed(rnd, home, [c for row in rerun for c in row.clients], rerun)

    def _ingest(self, rnd: _Round, row: _Row, upload: object) -> None:
        """Take one row's upload through the acceptance path into
        ``rnd.results`` (keyed by dispatch position) and the stream.  A
        wire upload that does not read back as one well-formed update per
        client, shaped like the broadcast, drops the row's clients as
        ``corrupt``, and so does an update with a non-finite value, fault
        plan or not; the fault plan's norm screen runs only under a plan."""
        updates: "list[ClientUpdate]" = upload
        if self.transport is not None:
            try:
                updates = self._decode_upload(upload, rnd.global_state, row)
            except _MALFORMED:
                self._drop(rnd, row, "corrupt")
                return
        norm_screen = None if self.fault_plan is None else self.fault_plan.norm_screen
        for position, update in zip(row.positions, updates):
            if state_is_corrupt(
                update.state, ref=rnd.global_state, norm_screen=norm_screen
            ):
                # Acceptance check on every decoded upload: distrust the
                # weights.
                rnd.record.dropped[update.client_id] = "corrupt"
                continue
            rnd.results[position] = update
            if rnd.stream is not None:
                # Aggregation overlaps collection: fold the accepted upload
                # into the round's stream the moment it passes the checks,
                # at its dispatch position, and let go of the decoded state
                # — only the stream decides what it keeps.
                rnd.stream.fold(
                    update.state, rnd.strategy.upload_weight(update), position
                )
                update.state = None

    # -- the lane set ---------------------------------------------------------

    def open(self, model: "FeatureClassifierModel") -> None:
        """Make sure the lanes exist for ``model`` (built lazily, rebuilt
        when the architecture changes)."""
        raise NotImplementedError

    def home(self, client_id: int) -> object:
        """The lane this client's tasks go to — deterministic and sticky
        while the lane layout is unchanged.  Homes must be sortable."""
        raise NotImplementedError

    def send_register(self, home: object, registration: "Registration") -> None:
        """Deliver one registration, ahead of anything sent later."""
        raise NotImplementedError

    def send_broadcast(
        self, home: object, strategy: object, state: object, round_index: int
    ) -> None:
        """Deliver the round's strategy and state (wire lanes: the encoded
        strategy blob and the transport handle of the state frame)."""
        raise NotImplementedError

    def submit(self, task_id: int, home: object, task: object) -> None:
        """Queue one task behind the home's registration and broadcast.
        Tasks of one home run FIFO."""
        raise NotImplementedError

    def poll(self, timeout: "float | None") -> "list[tuple[int, object]]":
        """Block until at least one submitted task is answered, then return
        ``(task_id, upload)`` / ``(task_id, LOST)`` events — one ``LOST``
        per dead home is enough, the driver resolves the rest of its rows.
        Returns ``[]`` only when ``timeout`` seconds passed with nothing."""
        raise NotImplementedError

    def abandon(self, task_id: int) -> None:
        """The round closed without this task: absorb its eventual result
        (a late upload, or error, discarded by id)."""

    def respawn(self, home: object) -> bool:
        """The lane at ``home`` is dead.  Either stand up a fresh, empty
        endpoint in its place (``True`` — the driver re-registers,
        re-broadcasts a full frame and re-runs the lost tasks) or retire
        the home (``False`` — its tasks drop with reason ``disconnect``)."""
        raise NotImplementedError

    def note_round(
        self, record: RoundRecord, updates: "list[ClientUpdate]", seconds: float
    ) -> None:
        """A round completed after ``seconds`` of dispatch + collection;
        lanes that measure more of it write that into ``record`` here."""
