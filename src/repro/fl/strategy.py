"""Strategy interface every FedDG method implements, plus shared training
helpers.

A strategy owns the three method-specific decision points of federated
learning:

* :meth:`Strategy.prepare_client` / :meth:`Strategy.fuse_prepare` — the
  one-time exchange before round 1, split in two halves: each client
  computes a payload from its own data alone (PARDON's ``R^{2d}`` style,
  CCST's published styles), and the server fuses the payloads into
  broadcast strategy state (PARDON's interpolation style, CCST's bank);
* :meth:`Strategy.train_group` — the client-side step, for a ``(K, ...)``
  stack of clients (the trainer's stacks are one client or more);
* :meth:`Strategy.aggregate` — how the server merges client states
  (FedAvg by default; FedGMA masks by gradient sign agreement; FedDG-GA
  reweights by generalization gap).

The simulation core (:mod:`repro.fl.server`) is method-agnostic and only
calls these hooks, so adding a new FedDG method requires exactly one class.

No FedDG method writes its own epoch loop: the base ``train_group`` runs a
declarative :class:`repro.nn.objective.CompositeObjective` through the
generic epoch runner, and a method customizes the *ingredients* instead —

* :attr:`Strategy.objective` — the method's weighted term list (FedSR is
  ``ce + embed_l2 + class_align``; per-experiment reweighting comes in
  through :meth:`apply_objective_overrides` / ``--objective``);
* :meth:`Strategy.local_views` — an optional second index-aligned view of
  the client's images (PARDON's style transfer, FedCCRL's augmentation);
* :meth:`Strategy.batch_views` — the rows each batch step forwards, drawn
  per batch (CCST's style-bank copies, MixStyle's within-batch mixing);
* :meth:`Strategy.objective_context` — per-client extras the terms read
  (FPL's global prototypes, FedAlign's fused alignment targets);
* :meth:`Strategy.payload_from_embeddings` — the method's upload side
  channel, distilled from a post-training embedding sweep;
* :meth:`Strategy.fuse_payloads` — the server-side merge of those
  payloads, run at the top of :meth:`aggregate` on both the batch and the
  streaming path.

So every strategy inherits the trainer's vectorized ``(K, ...)`` stacks:
the generic runner owns the stacked loop.  A method that adds work around
the step (FedDG-GA's pre-training loss) overrides :meth:`Strategy.train_group`
and calls the base.  The trainer answers an empty client itself, so
``train_group`` only ever sees clients with data.

Execution contract
------------------
The client halves — ``prepare_client`` and ``train_group`` — read their
clients' data and nothing else the server holds.  ``train_group`` may run
inside a worker process (see :mod:`repro.fl.executor`), so it must be
*self-contained*: everything it reads lives on the strategy or the client
at dispatch time, and everything it wants the server to see travels back
inside the returned :class:`repro.fl.executor.ClientUpdate` (state, loss,
and method-specific ``payload`` entries — FedDG-GA's generalization gap,
FPL's prototypes).  ``prepare_client`` likewise returns its payload and
never writes strategy state.  Mutating strategy attributes from a client
half is lost under parallel execution and is therefore forbidden.  The
server halves — ``fuse_prepare``, ``fuse_payloads``, ``aggregate`` — see
payloads only: no model, no client, no dataset.  Server-side state that
workers do not need (PARDON's per-client styles) is listed in
``_server_only_state`` and stripped on pickling.

:func:`run_prepare` is the exchange: the server runs it once, before the
first round, over the whole population (one client at a time, so a
:class:`repro.fl.population.LazyPopulation` never materializes more than
one), and only for strategies that override ``prepare_client``.

``client.scratch`` (a plain dict) holds *caches* only: values recomputable
from the client's data and the broadcast strategy (PARDON's
style-transferred images).  It stays on the endpoint that writes it — no
wire engine sends it to the server — so any endpoint may start with it
empty, and a cache must record what it was built from (PARDON stores the
style vector next to the images) so a different strategy never reads it
as its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fl.aggregate import AggregationStream, MeanAggregator
from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
from repro.fl.population import ClientPopulation, as_population
from repro.nn import SGD
from repro.nn.ensemble import ensemble_state_dicts
from repro.nn.models import FeatureClassifierModel
from repro.nn.module import Module
from repro.nn.objective import (
    CompositeObjective,
    ensemble_dataset_embeddings,
    run_objective_ensemble,
)
from repro.nn.serialize import StateDict
from repro.utils.rng import SeedTree

__all__ = ["LocalTrainingConfig", "Strategy", "run_prepare"]


@dataclass(frozen=True)
class LocalTrainingConfig:
    """Hyperparameters of a client's local optimization.

    Shared across all strategies so overhead and accuracy comparisons are
    apples-to-apples, as in the paper's experimental setup (§IV-A: batch
    size 32, one local epoch, SGD).
    """

    batch_size: int = 32
    local_epochs: int = 1
    learning_rate: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")

    def make_optimizer(self, model: FeatureClassifierModel) -> SGD:
        return SGD(
            model.parameters(),
            lr=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )


class Strategy:
    """Base class for federated strategies.  Subclasses override the hooks."""

    name = "strategy"

    #: Attribute names stripped when the strategy is shipped to a worker
    #: process — server-side handles that a local update must not depend on.
    _server_only_state: tuple[str, ...] = ()

    def __init__(self, local_config: LocalTrainingConfig | None = None) -> None:
        self.local_config = local_config or LocalTrainingConfig()
        #: The server-side aggregation rule (:mod:`repro.fl.aggregate`):
        #: the historical weighted mean unless the caller assigns another
        #: (``run_split_experiment`` installs ``ExperimentSetting.aggregator``).
        self.aggregator = MeanAggregator()
        #: The method's local training objective — plain cross-entropy
        #: (FedAvg) unless the subclass installs its own term list.
        self.objective = CompositeObjective([("ce", 1.0)])

    def apply_objective_overrides(self, overrides) -> None:
        """Reweight the objective's terms per experiment (``--objective``
        / :attr:`ExperimentSetting.objective`): a ``"term=weight,..."``
        spec or mapping.  Unknown term names raise — the override must
        target terms this strategy's objective actually has."""
        if not overrides:
            return
        self.objective = self.objective.with_overrides(overrides)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for attr in self._server_only_state:
            state.pop(attr, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for attr in self._server_only_state:
            self.__dict__.setdefault(attr, None)

    # -- the one-time exchange before round 1 -------------------------------

    def prepare_client(
        self, client: Client, rng: np.random.Generator
    ) -> dict | None:
        """The client half: a payload computed from ``client``'s data
        alone, or ``None`` to contribute nothing.  ``rng`` is the client's
        own generator.  Overriding this opts the strategy into the
        exchange; the base contributes nothing and no exchange runs."""
        return None

    def fuse_prepare(self, payloads: dict[int, dict]) -> None:
        """The server half: merge ``{client_id: payload}`` (population
        order, ``None`` payloads omitted) into strategy state broadcast
        from the first round on."""

    # -- objective-driven training hooks ----------------------------------

    def local_views(
        self, client: Client, rng: np.random.Generator
    ) -> np.ndarray | None:
        """An optional second view of the client's images, index-aligned
        with ``client.dataset`` (PARDON's style transfer, FedCCRL's
        augmentation).  Called once per update, *before* any batch
        permutation is drawn on the client's generator."""
        return None

    def batch_views(
        self, client: Client, images: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The rows one step forwards for a batch of ``client``'s images:
        the batch itself (the base), the batch followed by re-styled copies
        (CCST), or a re-styled batch in its place (MixStyle).  Called once
        per batch, right after it is indexed, on the client's own
        generator, and the row count over the batch sets the step's
        ``views``."""
        return images

    def _views_per_batch(self) -> bool:
        """Whether the runner gets :meth:`batch_views`; the base is the
        identity, and leaving it out spares the runner a per-batch
        restack."""
        return type(self).batch_views is not Strategy.batch_views

    def objective_context(self, client: Client) -> dict:
        """Per-client extras the objective's terms read (global
        prototypes, alignment targets).  Values must be picklable — they
        travel to worker processes on the strategy."""
        return {}

    def payload_from_embeddings(
        self, client: Client, embeddings: np.ndarray, labels: np.ndarray
    ) -> dict | None:
        """Distill the method's upload side channel from a post-training
        eval-mode embedding sweep of the client's dataset.  Returning a
        dict opts the strategy into the sweep; the base returns ``None``
        and no sweep runs."""
        return None

    def fuse_payloads(self, updates: list[ClientUpdate], round_index: int) -> None:
        """Server-side merge of the round's ``ClientUpdate.payload``
        entries into strategy state broadcast next round (FPL fuses
        prototypes, FedAlign fuses alignment targets).  Runs at the top of
        :meth:`aggregate` on both the batch and the streaming path —
        payloads survive streaming; only upload *states* are freed."""

    def _extracts_payload(self) -> bool:
        return (
            type(self).payload_from_embeddings
            is not Strategy.payload_from_embeddings
        )

    # -- client-side updates ----------------------------------------------

    def train_group(
        self,
        clients: list[Client],
        emodel: Module,
        round_index: int,
        rngs: list[np.random.Generator],
    ) -> list[ClientUpdate]:
        """Train K same-sized, non-empty clients as one ``(K, ...)`` stack.

        ``emodel`` is the ensemble clone of the architecture
        (:func:`repro.nn.ensemble.ensemble_of`) with the broadcast weights
        already loaded into every slice, and ``rngs`` are the per-client
        generators.  Slice ``k`` draws from ``rngs[k]`` alone, so its
        result does not depend on the rest of the stack: a client trains
        bitwise alike in a stack of one or of many.  The base draws the
        per-client views first, runs the objective once over the stack,
        then sweeps the payload."""
        views = [
            self.local_views(client, rng) for client, rng in zip(clients, rngs)
        ]
        secondary = np.stack(views) if views and views[0] is not None else None
        images = np.stack([client.dataset.images for client in clients])
        labels = np.stack([client.dataset.labels for client in clients])
        mean_losses = run_objective_ensemble(
            emodel,
            images,
            labels,
            self.objective,
            self.local_config,
            rngs,
            extras=[self.objective_context(client) for client in clients],
            secondary=secondary,
            batch_views=(
                [functools.partial(self.batch_views, client) for client in clients]
                if self._views_per_batch()
                else None
            ),
        )
        payloads: list[dict | None] = [None] * len(clients)
        if self._extracts_payload():
            emodel.eval()
            embeddings = ensemble_dataset_embeddings(
                emodel.forward_features, images
            )
            payloads = [
                self.payload_from_embeddings(client, embeddings[k], labels[k])
                for k, client in enumerate(clients)
            ]
            emodel.train()
        states = ensemble_state_dicts(emodel)
        return [
            ClientUpdate.from_client(client, state, float(loss), payload=payload)
            for client, state, loss, payload in zip(
                clients, states, mean_losses, payloads
            )
        ]

    def supports_streaming(self) -> bool:
        """Whether this round's aggregation can run as a streaming fold.

        True when the subclass kept the base :meth:`aggregate` (so the
        reduction really is the aggregator's) *and* the installed
        aggregator is online-reducible (``mean`` and its ``clip``
        composition).  A strategy that overrides ``aggregate``
        — FedGMA's sign masking, FedDG-GA's gap reweighting — silently
        keeps the batch path that materializes the survivor list.
        """
        if type(self).aggregate is not Strategy.aggregate:
            return False
        return self.aggregator.streaming

    def begin_stream(self, global_state: StateDict) -> AggregationStream | None:
        """Open this round's streaming reduction, or ``None`` when the
        strategy/aggregator combination cannot stream.  The execution
        engine folds each accepted upload in (freeing its state) and
        :meth:`aggregate` finalizes."""
        if not self.supports_streaming():
            return None
        return self.aggregator.begin_stream(global_state)

    def aggregate(
        self,
        global_state: StateDict,
        updates: list[ClientUpdate],
        round_index: int,
        stream: AggregationStream | None = None,
    ) -> StateDict:
        """Merge client uploads into the next global state.

        Default: data-size-weighted FedAvg (paper §III-B Aggregation).

        ``update.state`` is always a *decoded* state dict: the execution
        engine strips any wire codec (delta reconstruction, dequantized
        fp16/qint8) before aggregation runs, so strategies never see the
        wire format.  Decoded tensors may be read-only zero-copy views —
        treat them as immutable and allocate fresh outputs, as
        :func:`repro.nn.serialize.average_states` does.

        The reduction itself is delegated to :attr:`aggregator`
        (:mod:`repro.fl.aggregate`), so every strategy built on this hook
        inherits whichever Byzantine-robust rule the run configured.

        ``stream`` is the round's in-flight streaming reduction (from
        :meth:`begin_stream`): the engine already folded every accepted
        upload in — ``update.state`` is freed to ``None`` on that path —
        so this call only finalizes.  Order invariance of the compensated
        mean makes the result bit-identical to the batch reduction.
        """
        self.fuse_payloads(updates, round_index)
        if stream is not None:
            if stream.count != len(updates):
                raise RuntimeError(
                    f"aggregation stream folded {stream.count} uploads but "
                    f"{len(updates)} were accepted — engine/stream mismatch"
                )
            if stream.count == 0:
                return global_state
            return stream.finalize()
        if not updates:
            return global_state
        states = [update.state for update in updates]
        weights = [float(update.num_samples) for update in updates]
        if sum(weights) <= 0:
            weights = [1.0] * len(states)
        return self.aggregator.aggregate(states, weights, ref=global_state)


def run_prepare(
    strategy: Strategy,
    clients: "Sequence[Client] | ClientPopulation",
    seed_tree: SeedTree,
) -> None:
    """The exchange before round 1: every client's ``prepare_client``
    payload, one client at a time on its own ``("prepare", client_id)``
    generator, then one ``fuse_prepare``.  A no-op — the population is not
    even enumerated — for strategies without a client half."""
    if type(strategy).prepare_client is Strategy.prepare_client:
        return
    payloads = {}
    for client in as_population(clients).iter_clients():
        payload = strategy.prepare_client(
            client, seed_tree.generator("prepare", client.client_id)
        )
        if payload is not None:
            payloads[client.client_id] = payload
    strategy.fuse_prepare(payloads)
