"""Deterministic fault injection and round-robustness primitives.

PARDON's headline claim is *robustness*, yet a federated system's first
robustness problem is mechanical: clients drop out, workers crash, slow
("straggler") clients hold a round hostage, and uploads arrive corrupted.
This module is the chaos-engineering half of that story — a seeded,
deterministic :class:`FaultPlan` that both execution engines
(:mod:`repro.fl.executor`) can inject, so a faulty run is exactly as
reproducible as a clean one — plus the typed error a round raises when a
deadline expires with nothing to aggregate (:class:`RoundTimeoutError`).
What a fault did to a round is written into its
:class:`repro.fl.history.RoundRecord` (``dropped``, ``straggler_seconds``,
``rebuilt_workers``, ``early_closed``).

Determinism model
-----------------
Every per-(client, round) decision is a pure function of the plan: the
fault kind fires when ``stable_hash(seed, kind, client_id, round)`` maps
below the configured rate.  Nothing depends on wall clock, worker count,
or sampling order, so the *observable* effect of a plan — which clients
survive each round — is identical on the serial engine and on process
pools of any size, which is what the chaos tests pin down bit-for-bit.

Fault kinds
-----------
``dropout``
    The client never responds this round: it is dropped before dispatch
    on every engine (reason ``"dropout"``).
``straggler``
    The client is slow by ``delay_seconds``.  *Cooperative* semantics keep
    traces engine-invariant: when a round deadline is configured and the
    injected delay already exceeds it, the client is dropped up front
    (reason ``"straggler"``) on every engine; otherwise the delay is
    really slept inside the local update (worker-side under the parallel
    engine) and the client survives.  The cooperative check is
    *per client*: on the parallel engine co-resident surviving stragglers
    still serialize on their agent, which serves its tasks in order, so the
    bit-identical guarantee requires the deadline to comfortably exceed the
    per-agent *sum* of surviving injected delays plus compute — pick
    ``deadline >> participants x straggler_delay`` (as the chaos tests
    and benches do), or use ``hang`` when the point is to blow the
    deadline for real.
``hang``
    An *uncooperative* straggler, only schedulable as an explicit
    :class:`FaultEvent`: the parallel engine genuinely sleeps in the
    worker and lets the server's wall-clock deadline catch it (reason
    ``"deadline"``) — this is how the real timeout machinery is
    chaos-tested.  The serial engine cannot preempt a running update, so
    it approximates with the cooperative rule.
``corrupt``
    The local update runs, but its uploaded weights are poisoned with
    non-finite values (:func:`poison_state`).  Engines with a fault plan
    validate every decoded upload (:func:`state_is_corrupt`) and drop the
    bad ones from aggregation (reason ``"corrupt"``); the client's scratch
    caches stay where they were built — the style cache is not what is
    corrupt.
``crash``
    A worker process dies mid-round.  ``crash_rounds`` schedules one crash
    in each listed round; the victim is picked deterministically among the
    round's dispatched participants (:meth:`FaultPlan.crash_victim`).
    Only the victim itself is dropped (reason ``"crash"``) on every engine
    — what each lane does to get there (kill + rebuild + re-run, never
    dispatch, skip) is the table in :mod:`repro.fl.executor`.
``byzantine``
    An *adversarial* client: the local update runs honestly, then the
    upload is replaced by an attack state (:func:`byzantine_state`) that
    is perfectly well-formed — finite everywhere, right shapes — so it
    sails through the NaN screen and reaches aggregation, which is the
    point: only a robust aggregation rule (:mod:`repro.fl.aggregate`) or
    the opt-in magnitude screen (``screen=``) stops it.  Attack modes:
    ``signflip`` reflects the honest update through the broadcast state
    (``ref - delta``), ``scale`` amplifies it by ``BYZANTINE_SCALE``
    (a model-poisoning boost), ``random`` uploads Gaussian noise matched
    to the broadcast state's per-tensor scale.  Payloads are pure
    functions of ``(seed, client, round)`` like every other injection.

Drop reasons
------------
``RoundRecord.dropped`` maps every selected-but-unaggregated client to a
typed reason: ``dropout``, ``straggler``, ``deadline``, ``corrupt``,
``crash``, and ``quorum`` as described above,
plus ``disconnect`` — a *remote* failure mode with no in-host analogue:
the cross-machine engine (:class:`repro.fl.net.executor.RemoteExecutor`)
drops a client with reason ``"disconnect"`` when the agent hosting it
vanishes mid-round (socket EOF or write error).  Like a crash, the round
closes gracefully over the survivors; unlike a crash, nothing is rebuilt
— the dead agent's clients are simply outstanding until the server
re-homes them in a later round.

Magnitude screen
----------------
``screen=M`` arms a second acceptance check on every decoded upload:
reject states whose global L2 norm exceeds ``M`` times the broadcast
state's norm (reason ``"corrupt"``, same drop path as NaN).  This catches ``scale``-mode attacks even under the
plain ``mean`` aggregator.  Off by default: the screen changes no prior
trace unless asked for.

Round control
-------------
Deadlines widen from a fixed float to a *policy*: ``30`` still means 30
wall-clock seconds every round (:class:`FixedDeadline`), while
``percentile:p95`` (:class:`AdaptiveDeadline`) tracks a sliding window of
recent round durations and sets each round's deadline to a percentile of
the window times a slack factor — no budget until the window has a few
entries.  :func:`make_deadline_policy` parses both forms.  Quorum
early-close lives in the executors; the two compose (quorum closes the
round early, the deadline bounds it).

Spec strings
------------
``--faults`` on the CLI accepts a compact comma-separated spec, e.g.::

    dropout=0.1,straggler=0.25:0.05,corrupt=0.05,crash=1+4,seed=7
    byzantine=0.2:scale,screen=4,seed=7

``straggler`` takes ``rate`` or ``rate:delay_seconds``; ``crash`` takes
``+``-separated round indices; ``byzantine`` takes ``rate`` or
``rate:mode``; ``screen`` takes the norm multiple.  :func:`make_fault_plan`
parses it (and passes through ``None`` / already-built plans unchanged).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import stable_hash

__all__ = [
    "BYZANTINE_MODES",
    "FAULT_KINDS",
    "AdaptiveDeadline",
    "FaultEvent",
    "FaultPlan",
    "FixedDeadline",
    "RoundActions",
    "RoundTimeoutError",
    "apply_update_fault",
    "byzantine_state",
    "make_deadline_policy",
    "make_fault_plan",
    "poison_state",
    "sleep_injected",
    "state_is_corrupt",
]

#: Injectable fault kinds (see the module docstring for semantics).
FAULT_KINDS = ("dropout", "straggler", "hang", "corrupt", "crash", "byzantine")

#: Default injected slowdown for rate-scheduled stragglers (seconds).
DEFAULT_STRAGGLER_DELAY = 0.05

#: Byzantine attack modes (see the module docstring).
BYZANTINE_MODES = ("signflip", "scale", "random")

#: Amplification factor for the ``scale`` attack mode.
BYZANTINE_SCALE = 100.0


class RoundTimeoutError(RuntimeError):
    """A round's deadline expired before the round could close.

    Partial aggregation absorbs individual stragglers (survivors are
    aggregated, the rest are dropped and recorded), but when the deadline
    passes with *zero* updates — or, under a configured quorum, with fewer
    accepted uploads than the quorum floor — there is no viable round.
    The error names the offending client ids, and, when a quorum was
    configured, the quorum itself plus the partial accepted set, so the
    failure is diagnosable from the message alone.
    """

    def __init__(
        self,
        round_index: int,
        client_ids: tuple[int, ...],
        quorum: int | None = None,
        accepted: tuple[int, ...] = (),
    ) -> None:
        self.round_index = int(round_index)
        self.client_ids = tuple(client_ids)
        self.quorum = None if quorum is None else int(quorum)
        self.accepted = tuple(accepted)
        message = (
            f"round {round_index} deadline expired with no updates; "
            f"outstanding clients: {list(self.client_ids)}"
        )
        if self.quorum is not None:
            message = (
                f"round {round_index} deadline expired below quorum "
                f"{self.quorum} (accepted {len(self.accepted)}: "
                f"{list(self.accepted)}); outstanding clients: "
                f"{list(self.client_ids)}"
            )
        super().__init__(message)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` hits ``client_id`` in ``round_index``.

    ``delay_seconds`` only matters for ``straggler``/``hang`` (the
    injected slowdown).  Events are what a plan's rate-based schedule
    resolves to, and explicit events passed to :class:`FaultPlan` take
    precedence over the rates — the chaos tests use them to pin exact
    scenarios.
    """

    kind: str
    round_index: int
    client_id: int
    delay_seconds: float = 0.0
    #: Attack mode (``byzantine`` only; defaults to ``signflip``).
    mode: str = ""
    #: Seed for randomized attack payloads (``byzantine`` only) — events
    #: carry it because the parallel engine ships events, not the plan,
    #: into worker tasks.
    payload_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.kind == "byzantine":
            if not self.mode:
                object.__setattr__(self, "mode", BYZANTINE_MODES[0])
            if self.mode not in BYZANTINE_MODES:
                raise ValueError(
                    f"unknown byzantine mode {self.mode!r}; expected one of "
                    f"{BYZANTINE_MODES}"
                )


@dataclass
class RoundActions:
    """A plan's resolved decisions for one round's participant list.

    ``skipped`` maps clients dropped *before dispatch* to their reason
    (dropouts, and cooperative straggler drops when the injected delay
    already exceeds the deadline); ``injected`` maps the remaining faulty
    clients to the event the engine must execute inside the update
    (sleeps, corruption, the crash victim's kill).  ``straggler_seconds``
    is the round's total injected slowdown — a plan-derived number, so it
    is identical on every engine.
    """

    skipped: dict[int, str] = field(default_factory=dict)
    injected: dict[int, FaultEvent] = field(default_factory=dict)
    straggler_seconds: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of faults for a federated run.

    Rate-based kinds fire per (client, round) when the stable hash of
    ``(seed, kind, client_id, round)`` maps below the rate — no state, no
    generation step, and no dependence on population size, so one plan
    drives any engine and any sampling.  ``crash_rounds`` schedules one
    worker crash in each listed round; ``events`` pins explicit faults
    that override the rates for their (client, round).
    """

    seed: int = 0
    dropout_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_delay: float = DEFAULT_STRAGGLER_DELAY
    corrupt_rate: float = 0.0
    crash_rounds: tuple[int, ...] = ()
    events: tuple[FaultEvent, ...] = ()
    byzantine_rate: float = 0.0
    byzantine_mode: str = BYZANTINE_MODES[0]
    #: Magnitude screen: reject uploads whose global norm exceeds this
    #: multiple of the broadcast state's norm (``None`` = screen off).
    norm_screen: float | None = None

    def __post_init__(self) -> None:
        for name in ("dropout_rate", "straggler_rate", "corrupt_rate",
                     "byzantine_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_delay < 0:
            raise ValueError(
                f"straggler_delay must be >= 0, got {self.straggler_delay}"
            )
        if self.byzantine_mode not in BYZANTINE_MODES:
            raise ValueError(
                f"unknown byzantine mode {self.byzantine_mode!r}; expected "
                f"one of {BYZANTINE_MODES}"
            )
        if self.norm_screen is not None and self.norm_screen <= 0:
            raise ValueError(
                f"norm_screen must be > 0, got {self.norm_screen}"
            )
        object.__setattr__(
            self, "crash_rounds", tuple(int(r) for r in self.crash_rounds)
        )
        if any(r < 0 for r in self.crash_rounds):
            raise ValueError(f"crash_rounds must be >= 0, got {self.crash_rounds}")
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"events must be FaultEvent, got {event!r}")

    # -- per-(client, round) schedule ----------------------------------------

    def _chance(self, kind: str, client_id: int, round_index: int) -> float:
        """Deterministic uniform draw in [0, 1) for one (kind, client,
        round) cell — the whole schedule is a pure function of the seed."""
        return stable_hash(self.seed, "fault", kind, client_id, round_index) / float(
            1 << 63
        )

    def fault_for(self, client_id: int, round_index: int) -> FaultEvent | None:
        """The fault hitting ``client_id`` in ``round_index``, if any.

        Explicit events win; otherwise the rate-based kinds are checked in
        a fixed precedence order (dropout, straggler, corrupt, byzantine)
        so at most one fault fires per cell.  Crashes are scheduled per
        *round*, not per client — see :meth:`crash_victim`.
        """
        for event in self.events:
            if (
                event.client_id == client_id
                and event.round_index == round_index
                and event.kind != "crash"
            ):
                return event
        if self._chance("dropout", client_id, round_index) < self.dropout_rate:
            return FaultEvent("dropout", round_index, client_id)
        if self._chance("straggler", client_id, round_index) < self.straggler_rate:
            return FaultEvent(
                "straggler", round_index, client_id,
                delay_seconds=self.straggler_delay,
            )
        if self._chance("corrupt", client_id, round_index) < self.corrupt_rate:
            return FaultEvent("corrupt", round_index, client_id)
        if self._chance("byzantine", client_id, round_index) < self.byzantine_rate:
            return FaultEvent(
                "byzantine", round_index, client_id,
                mode=self.byzantine_mode,
                payload_seed=stable_hash(
                    self.seed, "byzantine-payload", client_id, round_index
                ),
            )
        return None

    def crash_victim(
        self, round_index: int, candidate_ids: "list[int] | tuple[int, ...]"
    ) -> int | None:
        """The client whose home worker crashes this round, or ``None``.

        An explicit crash event names its victim directly (and only fires
        if that client is actually among the candidates); a scheduled
        ``crash_rounds`` entry picks deterministically from the sorted
        candidate list, so every engine agrees on the victim.
        """
        candidates = sorted(set(candidate_ids))
        for event in self.events:
            if event.kind == "crash" and event.round_index == round_index:
                return event.client_id if event.client_id in candidates else None
        if round_index in self.crash_rounds and candidates:
            pick = stable_hash(self.seed, "crash", round_index) % len(candidates)
            return candidates[pick]
        return None

    def actions_for_round(
        self,
        participant_ids: "list[int] | tuple[int, ...]",
        round_index: int,
        deadline: float | None,
    ) -> RoundActions:
        """Resolve the plan against one round's participant list.

        This is the single decision point both engines share: who is
        skipped before dispatch (and why), which dispatched clients carry
        an injected fault, and the round's plan-derived straggler budget.
        """
        actions = RoundActions()
        for client_id in participant_ids:
            event = self.fault_for(client_id, round_index)
            if event is None:
                continue
            if event.kind == "dropout":
                actions.skipped[client_id] = "dropout"
            elif event.kind == "straggler":
                actions.straggler_seconds += event.delay_seconds
                if deadline is not None and event.delay_seconds >= deadline:
                    actions.skipped[client_id] = "straggler"
                else:
                    actions.injected[client_id] = event
            else:  # hang / corrupt / byzantine execute inside the update
                actions.injected[client_id] = event
        victim = self.crash_victim(
            round_index,
            [cid for cid in participant_ids if cid not in actions.skipped],
        )
        if victim is not None:
            actions.injected[victim] = FaultEvent("crash", round_index, victim)
        return actions


def make_fault_plan(spec: "str | FaultPlan | None") -> FaultPlan | None:
    """Build a :class:`FaultPlan` from a CLI spec string.

    ``None`` and already-built plans pass through unchanged — the same
    convention as :func:`repro.fl.codec.make_codec` and
    :func:`repro.fl.transport.make_transport`, so every API taking a plan
    accepts any of the three forms.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    if not isinstance(spec, str) or not spec.strip():
        raise TypeError(f"fault spec must be a non-empty string, got {spec!r}")
    kwargs: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part or "=" not in part:
            raise ValueError(
                f"bad fault spec item {part!r} in {spec!r}; expected key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "dropout":
                kwargs["dropout_rate"] = float(value)
            elif key == "straggler":
                rate, _, delay = value.partition(":")
                kwargs["straggler_rate"] = float(rate)
                if delay:
                    kwargs["straggler_delay"] = float(delay)
            elif key == "corrupt":
                kwargs["corrupt_rate"] = float(value)
            elif key == "crash":
                kwargs["crash_rounds"] = tuple(
                    int(r) for r in value.split("+") if r
                )
            elif key == "byzantine":
                rate, _, mode = value.partition(":")
                kwargs["byzantine_rate"] = float(rate)
                if mode:
                    kwargs["byzantine_mode"] = mode
            elif key == "screen":
                kwargs["norm_screen"] = float(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r} in {spec!r}; expected "
                    f"dropout, straggler, corrupt, crash, byzantine, "
                    f"screen, or seed"
                )
        except ValueError as exc:
            if "fault spec" in str(exc):
                raise
            raise ValueError(
                f"bad value {value!r} for {key!r} in fault spec {spec!r}"
            ) from exc
    return FaultPlan(**kwargs)


def poison_state(state: dict) -> dict:
    """A corrupted copy of ``state``: the first tensor is all-NaN.

    Used by the ``corrupt`` fault to simulate a damaged upload.  The
    poison is injected *before* the wire codec, so it survives any
    lossless pipeline; detection (:func:`state_is_corrupt`) runs on the
    decoded server-side state, exactly where real validation would sit.
    """
    poisoned = dict(state)
    for key, value in poisoned.items():
        value = np.asarray(value)
        if np.issubdtype(value.dtype, np.floating):
            poisoned[key] = np.full_like(value, np.nan)
            break
    return poisoned


def byzantine_state(state: dict, ref: dict, event: FaultEvent) -> dict:
    """The adversarial upload a byzantine client sends instead of its
    honest update.

    A pure function of ``(state, ref, event)`` — the event carries the
    attack ``mode`` and ``payload_seed``, so both engines (and any worker)
    produce bit-identical attack states.  ``ref`` is the round's broadcast
    state: attacks are expressed against the update delta, which is what
    aggregation actually consumes.  Non-floating tensors pass through
    untouched; every produced value is finite, so the attack reaches
    aggregation (defeating it is the aggregator's job, or the magnitude
    screen's).
    """
    if event.kind != "byzantine":
        raise ValueError(f"expected a byzantine event, got {event.kind!r}")
    rng = (
        np.random.default_rng(event.payload_seed)
        if event.mode == "random"
        else None
    )
    attacked = {}
    for key, value in state.items():
        value = np.asarray(value)
        if not np.issubdtype(value.dtype, np.floating):
            attacked[key] = value
            continue
        base = np.asarray(ref[key])
        if event.mode == "signflip":
            attacked[key] = (2.0 * base - value).astype(value.dtype, copy=False)
        elif event.mode == "scale":
            attacked[key] = (
                base + BYZANTINE_SCALE * (value - base)
            ).astype(value.dtype, copy=False)
        else:  # random
            sigma = float(np.std(base)) or 1.0
            attacked[key] = rng.normal(0.0, sigma, size=value.shape).astype(
                value.dtype
            )
    return attacked


def sleep_injected(fault: "FaultEvent | None") -> None:
    """Really sleep a ``straggler``/``hang`` event's injected delay.

    Slept outside the local update, so ``train_seconds`` keeps measuring
    genuine compute: before it on a pool worker or a remote agent, and in
    the serial engine's own process as its stack's uploads are handed
    back.  A ``hang`` sleeps past the server's
    round deadline; a preemptive engine drops it and discards the eventual
    result by task id.
    """
    if fault is not None and fault.kind in ("straggler", "hang"):
        time.sleep(fault.delay_seconds)


def apply_update_fault(update, fault: FaultEvent, broadcast_state: dict) -> None:
    """The upload half of an injected fault, applied to a finished update
    in place — the one hook point every training endpoint shares.

    Tampering happens *before* the wire codec, like a corrupted or
    adversarial upload on a real wire; the server's acceptance check runs
    after decode.  ``broadcast_state`` is the decoded broadcast the client
    trained from, which byzantine attacks are expressed against.
    """
    if fault.kind in ("straggler", "hang"):
        update.straggler_seconds = fault.delay_seconds
    elif fault.kind == "corrupt":
        update.state = poison_state(update.state)
    elif fault.kind == "byzantine":
        update.state = byzantine_state(update.state, broadcast_state, fault)


def _state_norm(state: dict) -> float:
    """Global L2 norm over the floating tensors of ``state``."""
    total = 0.0
    for value in state.values():
        value = np.asarray(value)
        if np.issubdtype(value.dtype, np.floating):
            total += float(np.square(value, dtype=np.float64).sum())
    return float(np.sqrt(total))


def state_is_corrupt(
    state: dict,
    ref: dict | None = None,
    norm_screen: float | None = None,
) -> bool:
    """Whether an upload fails the server-side acceptance checks.

    The base check rejects any non-finite value.  When a broadcast
    reference and a ``norm_screen`` multiple are supplied, a magnitude
    screen additionally rejects states whose global L2 norm exceeds
    ``norm_screen x ||ref||`` — finite but absurdly scaled uploads (the
    ``scale`` byzantine mode) fail this even though every value is a
    perfectly ordinary float.  Engines run this on every decoded upload
    when a fault plan is active; rejects use the ``"corrupt"`` drop path,
    exactly as for NaN poisoning.
    """
    if any(
        not np.isfinite(np.asarray(value)).all() for value in state.values()
    ):
        return True
    if ref is not None and norm_screen is not None:
        ref_norm = _state_norm(ref)
        if ref_norm > 0 and _state_norm(state) > norm_screen * ref_norm:
            return True
    return False


# -- deadline policies --------------------------------------------------------


@dataclass(frozen=True)
class FixedDeadline:
    """The historical deadline: a constant wall-clock budget per round."""

    seconds: float
    #: Fixed policies never adapt; the attribute keeps the two policy
    #: types interchangeable for the executors.
    adaptive = False

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError(
                f"deadline must be > 0 seconds, got {self.seconds}"
            )

    @property
    def spec(self) -> float:
        return self.seconds

    def resolve(self, durations: "list[float] | tuple[float, ...]") -> float:
        return self.seconds


#: Rounds of history an adaptive policy needs before it starts enforcing.
ADAPTIVE_WARMUP_ROUNDS = 3


@dataclass(frozen=True)
class AdaptiveDeadline:
    """Percentile-of-recent-rounds deadline (``--deadline percentile:p95``).

    Each round's budget is the given percentile of a sliding window of
    measured round durations, times a ``slack`` factor (a p95 deadline
    with no slack would kill ~5% of honest rounds).  The first
    ``ADAPTIVE_WARMUP_ROUNDS`` rounds run unbounded while the window
    fills — there is nothing defensible to extrapolate from one sample.
    Because the budget depends on wall clock, adaptive runs are *not*
    trace-reproducible by construction; the executors record the accepted
    survivor set per round (``RoundRecord.accepted``) so they replay
    exactly instead.
    """

    percentile: float = 95.0
    window: int = 8
    slack: float = 1.5
    adaptive = True

    def __post_init__(self) -> None:
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.slack <= 0:
            raise ValueError(f"slack must be > 0, got {self.slack}")

    @property
    def spec(self) -> str:
        return f"percentile:p{self.percentile:g}"

    def resolve(
        self, durations: "list[float] | tuple[float, ...]"
    ) -> float | None:
        history = list(durations)[-self.window :]
        if len(history) < ADAPTIVE_WARMUP_ROUNDS:
            return None
        return float(np.percentile(history, self.percentile)) * self.slack


def make_deadline_policy(
    spec: "float | str | FixedDeadline | AdaptiveDeadline | None",
) -> "FixedDeadline | AdaptiveDeadline | None":
    """Build a deadline policy from any accepted ``deadline`` form.

    ``None`` (no deadline) and already-built policies pass through; a
    number builds the historical :class:`FixedDeadline`; the string form
    ``"percentile:pNN"`` builds an :class:`AdaptiveDeadline` (a numeric
    string is accepted as a fixed deadline for CLI convenience).
    """
    if spec is None or isinstance(spec, (FixedDeadline, AdaptiveDeadline)):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return FixedDeadline(float(spec))
    if not isinstance(spec, str) or not spec.strip():
        raise TypeError(
            f"deadline must be seconds or 'percentile:pNN', got {spec!r}"
        )
    text = spec.strip()
    try:
        seconds = float(text)
    except ValueError:
        seconds = None
    if seconds is not None:
        return FixedDeadline(seconds)
    head, _, tail = text.partition(":")
    if head.strip() != "percentile" or not tail.strip().startswith("p"):
        raise ValueError(
            f"bad deadline spec {spec!r}; expected seconds or "
            f"'percentile:pNN' (e.g. percentile:p95)"
        )
    try:
        percentile = float(tail.strip()[1:])
    except ValueError as exc:
        raise ValueError(
            f"bad percentile in deadline spec {spec!r}"
        ) from exc
    return AdaptiveDeadline(percentile=percentile)
