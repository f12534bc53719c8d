"""The federated simulation loop.

:class:`FederatedServer` wires together a strategy, a client population, a
sampler, an execution engine, and evaluation sets, and runs the round loop
the paper describes: sample k of N clients, broadcast the global weights,
run the strategy's local update on each participant (serially or fanned out
to worker processes — see :mod:`repro.fl.executor`), aggregate in
deterministic client order, and periodically evaluate on the held-out
(unseen-domain) sets — off the critical path, while the next round trains.
Before the first round it runs the strategy's one-time exchange
(:func:`repro.fl.strategy.run_prepare`): each client's payload from its own
data, fused on the server.  The server itself holds the population, the
global weights and payloads — it never hands a strategy the model or
another client's data, so every strategy runs on any population, lazy ones
included.
Each round's facts land in one :class:`repro.fl.history.RoundRecord`: the
engine's round driver writes membership, upload timings, wall clock and
wire bytes, the server adds aggregation time, rejected uploads and the
memory peak.  The run's :class:`repro.fl.timing.TimingReport` is a fold of
those records, so Fig. 4 compares methods fairly regardless of the engine.
"""

from __future__ import annotations

import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.data.synthetic import LabeledDataset
from repro.fl.evaluation import EvaluationStage
from repro.fl.client import Client
from repro.fl.codec import make_codec
from repro.fl.executor import Executor, SerialExecutor
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.population import ClientPopulation, as_population
from repro.fl.sampling import UniformClientSampler
from repro.fl.strategy import Strategy, run_prepare
from repro.fl.timing import TimingReport
from repro.nn.models import FeatureClassifierModel
from repro.utils.logging import get_logger, kv
from repro.utils.rng import SeedTree

__all__ = [
    "FederatedConfig",
    "FederatedServer",
    "FederatedResult",
]

_LOG = get_logger("fl.server")


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

    Nothing else about a round lives here.  *How a round closes* — the
    fault plan, the deadline, the quorum — belongs to the engine
    (:class:`repro.fl.round.Executor`'s constructor), and *how uploads are
    reduced* belongs to the strategy (``strategy.aggregator``);
    :class:`repro.eval.protocols.ExperimentSetting` states each once for a
    whole experiment and routes it to its owner.
    """

    num_rounds: int = 10
    clients_per_round: int | float = 0.2
    eval_every: int = 1
    seed: int = 0
    codec: str = "identity"

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        # Participation validation lives with the sampler (the single source
        # of truth for the count-vs-fraction convention); constructing one
        # surfaces bad values at config time with the sampler's own errors.
        UniformClientSampler(self.clients_per_round)
        # Same pattern for the codec spec: fail at config time, not mid-run.
        make_codec(self.codec)


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
        each :meth:`run` scores a private copy of it (taken before the
        first round) on a background thread while the next round
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
        clients train from, so it is rejected at construction.  The
        engine's ``quorum`` is checked against the resolved per-round
        participant count, the one rule that needs the population.

    The server reads ``strategy.aggregator`` and never replaces it.
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
        self.model = model
        self.eval_sets = eval_sets
        self.config = config
        self._owns_executor = executor is None
        self.executor = executor or SerialExecutor(codec=config.codec)
        if self.executor.codec.spec != make_codec(config.codec).spec:
            raise ValueError(
                f"executor carries codec {self.executor.codec.spec!r} but "
                f"the config asks for {config.codec!r}; build the engine "
                f"with the config's codec (make_executor(..., codec=...))"
            )
        self.sampler = UniformClientSampler(config.clients_per_round)
        # With the population known, the per-round participant count is
        # resolved — an unreachable quorum (fractional participation, tiny
        # population) fails here instead of timing out mid-round.
        participants_per_round = self.sampler.round_size(len(self.population))
        quorum = self.executor.quorum
        if quorum is not None and quorum > participants_per_round:
            raise ValueError(
                f"quorum {quorum} exceeds the resolved per-round "
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
        history = RunHistory(strategy_name=self.strategy.name)
        global_state = self.model.state_dict()

        start = time.perf_counter()
        run_prepare(self.strategy, self.population, self._seed_tree)
        one_time_seconds = time.perf_counter() - start

        # The evaluation model is copied here — before the first
        # ``run_round`` — and the thread is joined when the block ends,
        # whether the rounds returned or raised.
        with EvaluationStage(self.model, self.eval_sets) as evaluation:
            global_state = self._rounds(history, global_state, evaluation, verbose)

        self.model.load_state_dict(global_state)
        # The last round always evaluates every eval set, so its record *is*
        # the final accuracy.
        return FederatedResult(
            history=history,
            final_state=global_state,
            timing=TimingReport.from_records(history.records, one_time_seconds),
            final_accuracy=dict(history.records[-1].eval_accuracy),
        )

    def _rounds(
        self,
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

            # Streaming aggregation (mean and its clip composition):
            # the engine folds each accepted upload into the stream as it
            # arrives and frees it, so aggregation overlaps collection and
            # the server never materializes the survivor list.  ``None``
            # (order statistics, strategies with their own aggregate)
            # keeps the batch path.
            stream = self.strategy.begin_stream(global_state)

            # ``updates`` only ever holds the clients that responded in
            # time with sane weights, so aggregation reweights over the
            # survivors; the record says who dropped, and why.
            updates = self.executor.run_round(
                self.strategy,
                self.model,
                global_state,
                participants,
                round_index,
                seeds,
                stream=stream,
            )
            record = self.executor.last_round

            start = time.perf_counter()
            # The kwarg only exists on the base ``aggregate`` — and a stream
            # only exists when that base is what runs (supports_streaming),
            # so overriding strategies never see it.
            if stream is not None:
                global_state = self.strategy.aggregate(
                    global_state, updates, round_index, stream=stream
                )
            else:
                global_state = self.strategy.aggregate(
                    global_state, updates, round_index
                )
            record.aggregation_seconds = time.perf_counter() - start
            # A round that aggregated nothing never ran the rule, whose
            # ``last_rejected`` still holds the previous round's indices.
            if updates:
                record.rejected_uploads = len(
                    self.strategy.aggregator.last_rejected
                )
            if tracemalloc.is_tracing():
                # One peak sample per round (the CLI's --timing starts
                # tracing); the report keeps the maximum across rounds.
                record.peak_memory_bytes = tracemalloc.get_traced_memory()[1]

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
