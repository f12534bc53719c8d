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
* :meth:`Strategy.aggregate` — how the server merges client states: every
  accepted upload is folded into the round's stream
  (:meth:`Strategy.begin_stream`, the configured rule's by default) with
  :meth:`Strategy.upload_weight` (its sample count by default; FedDG-GA
  reweights by generalization gap), and the stream is finalized.  No
  method overrides ``aggregate``; FedGMA brings its own rule.

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
* :attr:`Strategy.class_targets` — the class-statistics channel (FPL,
  FedAlign, FedCCRL): holding a dict makes every client upload
  ``payload["class_stats"]`` (per class, the mean post-training embedding
  and the count), fused per class by :meth:`Strategy.fuse_class` into the
  dict the ``align`` / ``proto_nce`` terms read;
* :meth:`Strategy.fuse_payloads` — the server-side merge of the round's
  payloads, run by :meth:`aggregate` after the round's folds.

So every strategy inherits the trainer's vectorized ``(K, ...)`` stacks:
the generic runner owns the stacked loop.  A method that adds work around
the step (FedDG-GA's pre-training loss) overrides :meth:`Strategy.train_group`
and calls the base.  A round refuses a participant without samples before
any lane opens, so ``train_group`` only ever sees clients with data.

Execution contract
------------------
The client halves — ``prepare_client`` and ``train_group`` — read their
clients' data and nothing else the server holds.  ``train_group`` may run
inside a worker process (see :mod:`repro.fl.executor`), so it must be
*self-contained*: everything it reads lives on the strategy or the client
at dispatch time, and everything it wants the server to see travels back
inside the returned :class:`repro.fl.executor.ClientUpdate` (state, loss,
and method-specific ``payload`` entries — FedDG-GA's generalization gap,
the class channel's statistics).  ``prepare_client`` likewise returns its
payload and never writes strategy state.  Mutating strategy attributes
from a client half is lost under parallel execution and is therefore
forbidden.  The server halves — ``fuse_prepare``, ``fuse_payloads``, ``aggregate`` — see
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

__all__ = ["LocalTrainingConfig", "Strategy", "class_stats", "run_prepare"]


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


def class_stats(
    embeddings: np.ndarray, labels: np.ndarray
) -> dict[int, tuple[np.ndarray, int]]:
    """One client's class-channel upload: ``{class: (mean embedding,
    sample count)}`` over the classes it holds, in label order."""
    stats = {}
    for label in np.unique(labels):
        rows = embeddings[labels == label]
        stats[int(label)] = (rows.mean(axis=0), int(rows.shape[0]))
    return stats


class Strategy:
    """Base class for federated strategies.  Subclasses override the hooks."""

    name = "strategy"

    #: The class-statistics channel, ``{class: (dim,) fused target}``;
    #: a subclass opts in by assigning a dict.
    class_targets: dict[int, np.ndarray] | None = None

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

    def fuse_payloads(self, updates: list[ClientUpdate], round_index: int) -> None:
        """Server-side merge of the round's ``ClientUpdate.payload``
        entries into strategy state broadcast next round: the base fuses
        each class's ``class_stats`` rows, in first-seen order, into
        ``class_targets`` (FedDG-GA moves its fold weights instead).
        :meth:`aggregate` runs it after every upload was folded —
        payloads survive the fold; only upload *states* are freed."""
        per_class: dict[int, list[tuple[np.ndarray, int]]] = {}
        for update in updates:
            for label, stat in update.payload.get("class_stats", {}).items():
                per_class.setdefault(int(label), []).append(stat)
        for label, stats in per_class.items():
            means, counts = zip(*stats)
            self.class_targets[label] = self.fuse_class(
                np.stack(means), np.array(counts, dtype=float)
            )

    def fuse_class(self, means: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """One class's target from its ``(clients, dim)`` uploaded means:
        the count-weighted mean, or under a robust rule its vector
        reduction, ignoring the counts (an inflated one would let a
        poisoned mean dominate)."""
        if self.aggregator.robust:
            return self.aggregator.reduce_vectors(means)
        return np.average(means, axis=0, weights=counts)

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
        then sweeps the class statistics (with :attr:`class_targets`).
        The members' image rows
        (:meth:`repro.data.synthetic.LabeledDataset.image_rows`) and views
        go to the runner as per-slice sequences, so no whole dataset is
        stacked or gathered: each step gathers its batch rows into one
        buffer."""
        views = [
            self.local_views(client, rng) for client, rng in zip(clients, rngs)
        ]
        secondary = views if views and views[0] is not None else None
        images = [client.dataset.image_rows() for client in clients]
        labels = [client.dataset.labels for client in clients]
        mean_losses = run_objective_ensemble(
            emodel,
            images,
            labels,
            self.objective,
            self.local_config,
            rngs,
            class_targets=self.class_targets,
            secondary=secondary,
            batch_views=(
                [functools.partial(self.batch_views, client) for client in clients]
                if self._views_per_batch()
                else None
            ),
        )
        payloads: list[dict | None] = [None] * len(clients)
        if self.class_targets is not None:
            embeddings = ensemble_dataset_embeddings(emodel, images)
            payloads = [
                {"class_stats": class_stats(embeddings[k], labels[k])}
                for k in range(len(clients))
            ]
        states = ensemble_state_dicts(emodel)
        return [
            ClientUpdate.from_client(client, state, float(loss), payload=payload)
            for client, state, loss, payload in zip(
                clients, states, mean_losses, payloads
            )
        ]

    def upload_weight(self, update: ClientUpdate) -> float:
        """The weight ``update`` folds into the round's stream with: its
        sample count (paper §III-B Aggregation)."""
        return float(update.num_samples)

    def begin_stream(self, global_state: StateDict) -> AggregationStream:
        """Open this round's reduction: the configured rule's stream.  The
        execution engine folds each accepted upload in (freeing its state)
        and :meth:`aggregate` finalizes."""
        return self.aggregator.begin_stream(global_state)

    def aggregate(
        self,
        global_state: StateDict,
        updates: list[ClientUpdate],
        round_index: int,
        stream: AggregationStream | None = None,
    ) -> StateDict:
        """Merge client uploads into the next global state.

        ``stream`` is the round's reduction (from :meth:`begin_stream`):
        the engine already folded every accepted upload in — at its
        dispatch position, with :meth:`upload_weight` — and freed
        ``update.state`` to ``None``.  Without one, a stream is opened here
        and ``updates`` are folded in order.  Either way the reduction is
        :attr:`aggregator`'s (:mod:`repro.fl.aggregate`) unless the
        strategy brings its own rule (FedGMA), so every other strategy
        inherits whichever Byzantine-robust rule the run configured.

        ``update.state`` is always a *decoded* state dict: the execution
        engine strips any wire codec (delta reconstruction, dequantized
        fp16/qint8) before aggregation runs, so strategies never see the
        wire format.  Decoded tensors may be read-only zero-copy views —
        treat them as immutable.
        """
        if stream is None:
            stream = self.begin_stream(global_state)
            for update in updates:
                stream.fold(update.state, self.upload_weight(update))
        self.fuse_payloads(updates, round_index)
        if stream.count != len(updates):
            raise RuntimeError(
                f"aggregation stream folded {stream.count} uploads but "
                f"{len(updates)} were accepted — engine/stream mismatch"
            )
        if not updates:
            return global_state
        return stream.finalize()


def run_prepare(
    strategy: Strategy,
    clients: "Sequence[Client] | ClientPopulation",
    seed_tree: SeedTree,
) -> None:
    """The exchange before round 1: every client's ``prepare_client``
    payload, one client at a time on its own ``("prepare", client_id)``
    generator, then one ``fuse_prepare``.  A no-op — the population is not
    even enumerated — for strategies without a client half.

    Each domain the clients' data is rendered from renders once and is
    held only until this returns
    (:meth:`repro.data.synthetic.LabeledDataset.pin`), so a server whose
    clients train on lanes keeps none of their images.  (The serial
    engine renders them again when its clients first train.)"""
    if type(strategy).prepare_client is Strategy.prepare_client:
        return
    payloads, held = {}, []
    for client in as_population(clients).iter_clients():
        held.append(client.dataset.pin())
        payload = strategy.prepare_client(
            client, seed_tree.generator("prepare", client.client_id)
        )
        if payload is not None:
            payloads[client.client_id] = payload
    strategy.fuse_prepare(payloads)
