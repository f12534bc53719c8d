"""The federated simulation loop.

:class:`FederatedServer` wires together a strategy, a client population, a
sampler, an execution engine, and evaluation sets, and runs the round loop
the paper describes: sample k of N clients, broadcast the global weights,
run the strategy's local update on each participant (serially or fanned out
to worker processes — see :mod:`repro.fl.executor`), aggregate in
deterministic client order, and periodically evaluate on the held-out
(unseen-domain) sets — off the critical path, while the next round trains.
All timing flows through :class:`repro.fl.timing.PhaseTimer` so Fig. 4 can
compare methods fairly regardless of the engine.
"""

from __future__ import annotations

import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from repro.data.synthetic import LabeledDataset
from repro.fl.aggregate import EdgeAggregator, make_aggregator
from repro.fl.evaluation import EvaluationStage
from repro.fl.client import Client
from repro.fl.codec import make_codec
from repro.fl.executor import Executor, SerialExecutor
from repro.fl.faults import make_deadline_policy, make_fault_plan
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.population import ClientPopulation, ListPopulation, as_population
from repro.fl.sampling import UniformClientSampler
from repro.fl.strategy import Strategy
from repro.fl.timing import PhaseTimer, TimingReport
from repro.nn.models import FeatureClassifierModel
from repro.utils.logging import get_logger, kv
from repro.utils.rng import SeedTree

__all__ = [
    "FederatedConfig",
    "FederatedServer",
    "FederatedResult",
    "parse_topology",
]

_LOG = get_logger("fl.server")


def parse_topology(topology: str) -> int | None:
    """Validate an aggregation-topology spec.

    ``"flat"`` (the historical single-tier reduction) returns ``None``;
    ``"edge:G"`` returns the edge-aggregator group count ``G >= 1``.
    Anything else raises ``ValueError`` — shared by config validation and
    the CLI's parse-time check.
    """
    if not isinstance(topology, str):
        raise TypeError(f"topology must be a string, got {topology!r}")
    if topology == "flat":
        return None
    if topology.startswith("edge:"):
        try:
            groups = int(topology[len("edge:"):])
        except ValueError as exc:
            raise ValueError(
                f"bad edge group count in topology {topology!r}"
            ) from exc
        if groups < 1:
            raise ValueError(
                f"edge group count must be >= 1, got {topology!r}"
            )
        return groups
    raise ValueError(
        f"unknown topology {topology!r}; expected 'flat' or 'edge:G'"
    )


@dataclass(frozen=True)
class FederatedConfig:
    """Round-loop parameters (paper §IV-A defaults, scaled by the benches).

    ``clients_per_round`` follows the sampler's convention: an ``int`` is an
    absolute participant count (>= 1), a ``float`` is the participation
    fraction in (0, 1].

    ``codec`` names the wire codec for weight payloads (see
    :mod:`repro.fl.codec`): it configures the server-owned default engine,
    and a caller-supplied engine must already carry the same codec — the
    codec changes what clients train from (for lossy specs) and so belongs
    to the experiment definition, not just the transport.

    ``faults`` names a deterministic fault-injection plan
    (:mod:`repro.fl.faults` spec string, e.g.
    ``"dropout=0.1,straggler=0.25:0.05,crash=2,seed=7"``) and ``deadline``
    a per-round wall-clock budget — seconds, or an adaptive spec such as
    ``"percentile:p95"`` (see :func:`repro.fl.faults.make_deadline_policy`);
    both change *who survives a round* and therefore belong to the
    experiment definition, so — like the codec — a caller-supplied engine
    must agree with them (checked at server construction).  ``quorum``
    closes a round early once that many uploads arrived (remaining
    participants are dropped as ``"quorum"``); like the deadline it is
    cross-checked against a caller-supplied engine.

    ``aggregator`` names the server-side aggregation rule
    (:mod:`repro.fl.aggregate` spec string, e.g. ``"median"``,
    ``"clip(5)+krum"``).  The default ``"mean"`` is the historical
    weighted FedAvg reduction, bit for bit.  A non-default spec is
    installed onto the strategy at server construction; a strategy that
    already carries its own non-mean rule must agree with the config.
    """

    num_rounds: int = 10
    clients_per_round: int | float = 0.2
    eval_every: int = 1
    seed: int = 0
    codec: str = "identity"
    faults: str | None = None
    deadline: float | str | None = None
    aggregator: str = "mean"
    quorum: int | None = None
    topology: str = "flat"

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        # Deadline validation (seconds > 0, or a known adaptive spec) lives
        # with the policy maker.
        make_deadline_policy(self.deadline)
        if self.quorum is not None and self.quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {self.quorum}")
        # Aggregation-rule spec: fail at config time, not mid-run.
        make_aggregator(self.aggregator)
        # ...and the topology spec, plus its compatibility with the rule —
        # an edge topology needs a streaming-capable rule, and finding
        # that out mid-run would waste the whole run.
        groups = parse_topology(self.topology)
        if groups is not None:
            EdgeAggregator(groups, make_aggregator(self.aggregator))
        # Participation validation lives with the sampler (the single source
        # of truth for the count-vs-fraction convention); constructing one
        # surfaces bad values at config time with the sampler's own errors.
        # An integer ``clients_per_round`` is an absolute participant count
        # however large the population is (it never re-enters the
        # float-fraction path), so a quorum above it can *never* be met —
        # reject it here, not mid-round.
        UniformClientSampler(self.clients_per_round)
        if (
            self.quorum is not None
            and not isinstance(self.clients_per_round, (float, np.floating))
            and self.quorum > int(self.clients_per_round)
        ):
            raise ValueError(
                f"quorum {self.quorum} exceeds clients_per_round "
                f"{int(self.clients_per_round)}; no round could ever close"
            )
        # Same pattern for the codec spec: fail at config time, not mid-run.
        make_codec(self.codec)
        # ...and the fault-plan spec.
        make_fault_plan(self.faults)


@dataclass
class FederatedResult:
    """Everything a benchmark needs from one run."""

    history: RunHistory
    final_state: dict
    timing: TimingReport
    final_accuracy: dict[str, float] = field(default_factory=dict)


class FederatedServer:
    """Run one federated experiment for one strategy.

    Parameters
    ----------
    strategy:
        The FedDG method under test.
    clients:
        The full client population (the sampler draws from it each round).
    model:
        The global model instance.  The serial engine reuses it as the
        local-training workspace (weights are loaded per participant, so
        state never leaks between clients through the model object); the
        parallel engine treats it as the architecture template for the
        per-worker clones.  Evaluation does **not** happen on this instance:
        each :meth:`run` scores a private copy of it (taken after
        ``strategy.prepare``) on a background thread while the next round
        trains — see :class:`repro.fl.evaluation.EvaluationStage` — so
        anything patched onto the instance is not seen by evaluation.  After
        :meth:`run` it holds the final global weights.
    eval_sets:
        Named held-out datasets (e.g. ``{"val": ..., "test": ...}``) that the
        server scores each due round's *global* weights on — unseen domains
        in the paper's protocols.
    config:
        Round-loop parameters.
    executor:
        Client-execution engine; defaults to a fresh
        :class:`repro.fl.executor.SerialExecutor` carrying
        ``config.codec``.  Engines created by the caller are left open
        after :meth:`run` (so one pool can serve many runs) but must agree
        with ``config.codec`` — a mismatch would silently change what
        clients train from, so it is rejected at construction.
    """

    def __init__(
        self,
        strategy: Strategy,
        clients: "list[Client] | ClientPopulation",
        model: FeatureClassifierModel,
        eval_sets: dict[str, LabeledDataset],
        config: FederatedConfig,
        executor: Executor | None = None,
    ) -> None:
        # ``clients`` may be the historical explicit list or any
        # ClientPopulation — a LazyPopulation keeps the server's footprint
        # at O(participants) however large the simulated population is.
        self.population = as_population(clients)
        if len(self.population) == 0:
            raise ValueError("need at least one client")
        self.strategy = strategy
        #: Materialized client list for strategy.prepare and legacy
        #: callers; empty for lazy populations (whose whole point is never
        #: materializing — strategies with a population-wide prepare step
        #: need a ListPopulation).
        self.clients = (
            self.population.clients
            if isinstance(self.population, ListPopulation)
            else []
        )
        self.model = model
        self.eval_sets = eval_sets
        self.config = config
        self._owns_executor = executor is None
        self.executor = executor or SerialExecutor(
            codec=config.codec, faults=config.faults,
            deadline=config.deadline, quorum=config.quorum,
        )
        if self.executor.codec.spec != make_codec(config.codec).spec:
            raise ValueError(
                f"executor carries codec {self.executor.codec.spec!r} but "
                f"the config asks for {config.codec!r}; build the engine "
                f"with the config's codec (make_executor(..., codec=...))"
            )
        # Faults and deadlines change who survives a round, so a config
        # that asks for them must not be paired with an engine that won't
        # apply them (the reverse — engine-level chaos under a plain
        # config — is a deliberate testing pattern and stays allowed).
        if config.faults is not None and (
            self.executor.fault_plan != make_fault_plan(config.faults)
        ):
            raise ValueError(
                f"executor carries fault plan {self.executor.fault_plan!r} "
                f"but the config asks for {config.faults!r}; build the "
                f"engine with the config's plan (make_executor(..., "
                f"faults=...))"
            )
        if config.deadline is not None and (
            self.executor.deadline_policy != make_deadline_policy(config.deadline)
        ):
            raise ValueError(
                f"executor carries deadline "
                f"{self.executor.deadline_policy!r} but the config asks for "
                f"{config.deadline!r}; build the engine with the config's "
                f"deadline (make_executor(..., deadline=...))"
            )
        if config.quorum is not None and self.executor.quorum != config.quorum:
            raise ValueError(
                f"executor carries quorum {self.executor.quorum!r} but the "
                f"config asks for {config.quorum!r}; build the engine with "
                f"the config's quorum (make_executor(..., quorum=...))"
            )
        # The aggregation rule belongs to the experiment definition; a
        # non-default config spec is installed onto a default-``mean``
        # strategy so CLI/protocol paths need no constructor plumbing, but
        # a strategy already carrying a different non-mean rule is a
        # conflict, not something to silently overwrite.
        if config.aggregator != "mean":
            wanted = make_aggregator(config.aggregator)
            if self.strategy.aggregator.spec == "mean":
                self.strategy.aggregator = wanted
            elif self.strategy.aggregator.spec != wanted.spec:
                raise ValueError(
                    f"strategy carries aggregator "
                    f"{self.strategy.aggregator.spec!r} but the config asks "
                    f"for {config.aggregator!r}; drop one of the two"
                )
        # A two-tier topology wraps whatever rule ended up installed in an
        # EdgeAggregator (construction re-checks that the rule streams).
        groups = parse_topology(config.topology)
        if groups is not None:
            current = self.strategy.aggregator
            if isinstance(current, EdgeAggregator):
                if current.groups != groups:
                    raise ValueError(
                        f"strategy carries edge topology with "
                        f"{current.groups} groups but the config asks for "
                        f"{config.topology!r}; drop one of the two"
                    )
            else:
                self.strategy.aggregator = EdgeAggregator(groups, current)
        self.sampler = UniformClientSampler(config.clients_per_round)
        # With the population known, the per-round participant count is
        # resolved — an unreachable quorum (fractional participation, tiny
        # population) fails here instead of timing out mid-round.
        participants_per_round = self.sampler.round_size(len(self.population))
        if config.quorum is not None and config.quorum > participants_per_round:
            raise ValueError(
                f"quorum {config.quorum} exceeds the resolved per-round "
                f"participant count {participants_per_round} (population "
                f"{len(self.population)}); no round could ever close"
            )
        self._seed_tree = SeedTree(config.seed).child("server", strategy.name)

    def run(self, verbose: bool = False) -> FederatedResult:
        """Execute the configured number of rounds; return the full trace."""
        try:
            return self._run(verbose)
        finally:
            if self._owns_executor:
                self.executor.close()

    def _run(self, verbose: bool) -> FederatedResult:
        timer = PhaseTimer()
        history = RunHistory(strategy_name=self.strategy.name)
        global_state = self.model.state_dict()

        with timer.one_time():
            self.strategy.prepare(
                self.clients, self.model, self._seed_tree.generator("prepare")
            )
            # prepare() may have touched the workspace model; restore.
            self.model.load_state_dict(global_state)

        # The evaluation model is copied here — after ``prepare``, before the
        # first ``run_round`` — and the thread is joined when the block ends,
        # whether the rounds returned or raised.
        with EvaluationStage(self.model, self.eval_sets) as evaluation:
            global_state = self._rounds(
                timer, history, global_state, evaluation, verbose
            )

        self.model.load_state_dict(global_state)
        # The last round always evaluates every eval set, so its record *is*
        # the final accuracy.
        return FederatedResult(
            history=history,
            final_state=global_state,
            timing=timer.report(),
            final_accuracy=dict(history.records[-1].eval_accuracy),
        )

    def _rounds(
        self,
        timer: PhaseTimer,
        history: RunHistory,
        global_state: dict,
        evaluation: EvaluationStage,
        verbose: bool,
    ) -> dict:
        """The round loop; returns the final global state.

        Evaluation is a one-deep pipeline stage: round r's state is scored
        on ``evaluation``'s thread while round r+1 samples and trains, and
        round r's record is settled — scores joined, line logged — before
        round r+1's evaluation is submitted and before this returns.
        """
        # Engine wire counters are cumulative across runs (a warm pool may
        # serve many); diff them per round so the report covers this run.
        wire_before = self.executor.wire_stats()
        unsettled: tuple[RoundRecord, Future | None] | None = None

        for round_index in range(self.config.num_rounds):
            round_rng = self._seed_tree.generator("sample", round_index)
            participants = self.population.sample(self.sampler, round_rng)
            seeds = [
                self._seed_tree.seed(
                    "client", client.client_id, "round", round_index
                )
                for client in participants
            ]

            # Streaming aggregation (mean and its clip/edge compositions):
            # the engine folds each accepted upload into the stream as it
            # arrives and frees it, so aggregation overlaps collection and
            # the server never materializes the survivor list.  ``None``
            # (order statistics, strategies with their own aggregate)
            # keeps the batch path.
            stream = self.strategy.begin_stream(global_state)

            wall_start = time.perf_counter()
            updates = self.executor.run_round(
                self.strategy,
                self.model,
                global_state,
                participants,
                round_index,
                seeds,
                stream=stream,
            )
            timer.record_local_wall(time.perf_counter() - wall_start)
            for update in updates:
                timer.record_local_train(update.train_seconds)
                timer.record_broadcast_decode(update.decode_seconds)
            # Cross-host pipelining win (nonzero only for the remote
            # engine's pipelined rounds): remote busy time that overlapped
            # other hosts' broadcast/train/upload.
            timer.record_pipeline_overlap(self.executor.last_overlap_seconds)
            # What the fault layer did to the round: recorded on the round
            # history (who dropped, and why) and folded into the timing
            # report's robustness counters.  Aggregation below reweights
            # over the survivors automatically — ``updates`` only ever
            # holds the clients that responded in time with sane weights.
            fault_report = self.executor.last_fault_report
            dropped = dict(fault_report.dropped) if fault_report else {}
            if fault_report is not None:
                timer.record_faults(
                    dropped_clients=len(fault_report.dropped),
                    straggler_seconds=fault_report.straggler_seconds,
                    rebuilt_workers=fault_report.rebuilt_workers,
                )
                timer.record_robustness(
                    early_closed_rounds=1 if fault_report.early_closed else 0,
                    early_close_seconds=fault_report.early_close_seconds,
                )
            wire_now = self.executor.wire_stats()
            timer.record_bytes(
                wire_now.bytes_up - wire_before.bytes_up,
                wire_now.bytes_down - wire_before.bytes_down,
                wire_now.unique_bytes_down - wire_before.unique_bytes_down,
            )
            wire_before = wire_now

            with timer.aggregation():
                # The kwarg only exists on the base ``aggregate`` — and a
                # stream only exists when that base is what runs
                # (supports_streaming), so overriding strategies never see
                # it.
                if stream is not None:
                    global_state = self.strategy.aggregate(
                        global_state, updates, round_index, stream=stream
                    )
                else:
                    global_state = self.strategy.aggregate(
                        global_state, updates, round_index
                    )
            timer.record_robustness(
                rejected_uploads=len(self.strategy.aggregator.last_rejected)
            )
            if tracemalloc.is_tracing():
                # One peak sample per round (the CLI's --timing starts
                # tracing); the report keeps the maximum across rounds.
                timer.record_peak_memory(tracemalloc.get_traced_memory()[1])

            losses = [update.loss for update in updates]
            record = RoundRecord(
                round_index=round_index,
                mean_local_loss=float(np.mean(losses)) if losses else 0.0,
                participants=[c.client_id for c in participants],
                dropped=dropped,
                accepted=(
                    [update.client_id for update in updates]
                    if self.executor.records_accepted
                    else None
                ),
            )
            history.add(record)
            self.population.release(participants)
            if unsettled is not None:
                self._settle(*unsettled, verbose)
            is_last = round_index == self.config.num_rounds - 1
            due = is_last or (round_index + 1) % self.config.eval_every == 0
            unsettled = (record, evaluation.submit(global_state) if due else None)

        self._settle(*unsettled, verbose)
        return global_state

    def _settle(
        self, record: RoundRecord, scores: Future | None, verbose: bool
    ) -> None:
        """Join a round's evaluation (re-raising its error) into its record
        and log the round's line — called in round order."""
        if scores is not None:
            record.eval_accuracy.update(scores.result())
        if verbose:
            _LOG.info(
                kv(
                    {
                        "strategy": self.strategy.name,
                        "round": record.round_index,
                        "loss": record.mean_local_loss,
                        **(
                            {"dropped": len(record.dropped)}
                            if record.dropped
                            else {}
                        ),
                        **record.eval_accuracy,
                    }
                )
            )
