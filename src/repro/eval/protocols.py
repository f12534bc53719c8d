"""Evaluation protocols: LODO, LTDO, and the fixed-split IWildCam scheme.

These functions orchestrate whole experiments — partition the training
domains across clients with a heterogeneity level, run the federated loop
for one strategy, and report unseen-domain accuracy — so the benchmark for
each table is a thin loop over (method, split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.partition import lodo_splits, ltdo_splits, partition_clients
from repro.data.synthetic import DomainSuite, LabeledDataset
from repro.fl.aggregate import make_aggregator
from repro.fl.client import Client
from repro.fl.executor import Executor, make_executor
from repro.fl.server import FederatedConfig, FederatedResult, FederatedServer
from repro.fl.strategy import Strategy
from repro.nn.models import FeatureClassifierModel, build_cnn_model
from repro.utils.rng import SeedTree

__all__ = [
    "ExperimentSetting",
    "SplitOutcome",
    "check_split",
    "run_split_experiment",
    "run_lodo_protocol",
    "run_ltdo_protocol",
    "run_fixed_split_protocol",
    "make_clients",
]

StrategyFactory = Callable[[], Strategy]
ModelFactory = Callable[[np.random.Generator], FeatureClassifierModel]


@dataclass(frozen=True)
class ExperimentSetting:
    """Everything that defines one federated DG experiment besides the
    method itself (so all methods share it exactly).

    The engine is parallel iff ``workers`` is given (see :func:`repro.fl.executor.make_executor`).  ``codec`` names the
    wire codec for weight payloads (:mod:`repro.fl.codec`) — it reaches the
    engine and the :class:`repro.fl.server.FederatedConfig` of every run
    built from this setting — and ``transport`` the parallel engine's wire
    transport for broadcast blobs (:mod:`repro.fl.transport`, ``"auto"``
    prefers the single-copy shm broadcast where supported).  ``faults`` (a
    :mod:`repro.fl.faults` spec string), ``deadline`` (per-round wall-clock
    budget — seconds or an adaptive ``"percentile:p95"`` spec), and
    ``quorum`` (close a round after that many uploads) say how a round
    closes and reach the engine only.  ``aggregator`` names the
    aggregation rule (:mod:`repro.fl.aggregate`) installed on the
    strategy; ``None`` keeps the rule the strategy arrives with (the
    historical weighted FedAvg unless the caller set another).
    ``objective`` reweights
    the strategy's composite training objective per experiment (a
    ``"term=weight,..."`` spec over the terms the method's objective
    declares — see :mod:`repro.nn.objective`); ``None`` keeps the method's
    defaults.
    """

    num_clients: int = 20
    clients_per_round: int | float = 0.25
    heterogeneity: float = 0.1
    num_rounds: int = 10
    eval_every: int = 1
    seed: int = 0
    model_widths: tuple[int, int] = (16, 32)
    embed_dim: int = 64
    workers: int | None = None
    codec: str = "identity"
    transport: str = "auto"
    faults: str | None = None
    deadline: float | str | None = None
    aggregator: str | None = None
    quorum: int | None = None
    objective: str | None = None

    def make_executor(self) -> Executor:
        """The client-execution engine this setting asks for."""
        return make_executor(
            self.workers,
            codec=self.codec,
            transport=self.transport,
            faults=self.faults,
            deadline=self.deadline,
            quorum=self.quorum,
        )

    def model_factory(self, suite: DomainSuite) -> ModelFactory:
        def build(rng: np.random.Generator) -> FeatureClassifierModel:
            return build_cnn_model(
                suite.image_shape,
                suite.num_classes,
                rng=rng,
                widths=self.model_widths,
                embed_dim=self.embed_dim,
            )

        return build


@dataclass
class SplitOutcome:
    """Result of one (strategy, split) run."""

    val_accuracy: float
    test_accuracy: float
    result: FederatedResult
    val_domains: list[str] = field(default_factory=list)
    test_domains: list[str] = field(default_factory=list)


def make_clients(
    suite: DomainSuite,
    train_domains: list[int],
    setting: ExperimentSetting,
    seed_label: object = "partition",
) -> list[Client]:
    """Partition the training pool into the experiment's client population."""
    tree = SeedTree(setting.seed).child(suite.name, seed_label)
    partition = partition_clients(
        suite,
        train_domains,
        setting.num_clients,
        setting.heterogeneity,
        tree.generator("assign"),
    )
    return [
        Client(client_id=index, dataset=dataset)
        for index, dataset in enumerate(partition.client_datasets)
    ]


def check_split(suite: DomainSuite, split: dict[str, list[int]]) -> None:
    """Held-out domains are held out: a validation or test domain that is
    also a training domain raises ``ValueError`` — every protocol here
    reports *unseen*-domain accuracy.  (``val == test`` is legal: LODO
    scores its one held-out domain in both roles.)"""
    for role in ("val", "test"):
        seen = sorted(set(split[role]) & set(split["train"]))
        if seen:
            raise ValueError(
                f"{role} domain {suite.domain_names[seen[0]]!r} is also a "
                f"training domain; held-out domains must be unseen "
                f"({suite.name} has {', '.join(suite.domain_names)})"
            )


def run_split_experiment(
    suite: DomainSuite,
    split: dict[str, list[int]],
    strategy: Strategy,
    setting: ExperimentSetting,
    executor: Executor | None = None,
) -> SplitOutcome:
    """Run one strategy on one (train, val, test) domain split.

    ``executor`` lets protocol sweeps share one engine (and its warm worker
    pool) across splits; when omitted, one is built from ``setting`` and
    closed before returning.  A caller-supplied engine *is* the engine:
    the setting's ``workers`` / ``transport`` / ``faults`` /
    ``deadline`` / ``quorum`` describe the engine
    :meth:`ExperimentSetting.make_executor` builds and are not compared
    with one built elsewhere (``codec`` is, by the server).
    """
    check_split(suite, split)
    clients = make_clients(suite, split["train"], setting, seed_label=tuple(split["train"]))
    strategy.apply_objective_overrides(setting.objective)
    if setting.aggregator is not None:
        strategy.aggregator = make_aggregator(setting.aggregator)
    tree = SeedTree(setting.seed).child(suite.name, "model")
    model = setting.model_factory(suite)(tree.generator("init"))
    eval_sets = {
        "val": suite.merged(split["val"]),
        "test": suite.merged(split["test"]),
    }
    owns_executor = executor is None
    executor = executor or setting.make_executor()
    server = FederatedServer(
        strategy=strategy,
        clients=clients,
        model=model,
        eval_sets=eval_sets,
        config=FederatedConfig(
            num_rounds=setting.num_rounds,
            clients_per_round=setting.clients_per_round,
            eval_every=setting.eval_every,
            seed=setting.seed,
            codec=setting.codec,
        ),
        executor=executor,
    )
    try:
        result = server.run()
    finally:
        if owns_executor:
            executor.close()
    return SplitOutcome(
        val_accuracy=result.final_accuracy["val"],
        test_accuracy=result.final_accuracy["test"],
        result=result,
        val_domains=[suite.domain_names[d] for d in split["val"]],
        test_domains=[suite.domain_names[d] for d in split["test"]],
    )


def run_lodo_protocol(
    suite: DomainSuite,
    strategy_factory: StrategyFactory,
    setting: ExperimentSetting,
) -> dict[str, SplitOutcome]:
    """Leave-One-Domain-Out (paper Table II): one outcome per held-out domain.

    ``strategy_factory`` is called once per split so no method state leaks
    between splits; one execution engine (and its warm worker pool) serves
    every split.
    """
    outcomes: dict[str, SplitOutcome] = {}
    with setting.make_executor() as executor:
        for split in lodo_splits(suite.num_domains):
            held_out = suite.domain_names[split["val"][0]]
            outcomes[held_out] = run_split_experiment(
                suite, split, strategy_factory(), setting, executor=executor
            )
    return outcomes


def run_ltdo_protocol(
    suite: DomainSuite,
    strategy_factory: StrategyFactory,
    setting: ExperimentSetting,
) -> dict[str, SplitOutcome]:
    """Leave-Two-Domains-Out (paper Table I): keyed by the validation domain."""
    outcomes: dict[str, SplitOutcome] = {}
    with setting.make_executor() as executor:
        for split in ltdo_splits(suite.num_domains):
            val_domain = suite.domain_names[split["val"][0]]
            outcomes[val_domain] = run_split_experiment(
                suite, split, strategy_factory(), setting, executor=executor
            )
    return outcomes


def run_fixed_split_protocol(
    suite: DomainSuite,
    strategy: Strategy,
    setting: ExperimentSetting,
) -> SplitOutcome:
    """IWildCam-style protocol (paper Table III): the suite's own
    train/val/test domain roles are fixed; clients hold training domains."""
    if not (suite.train_domains and suite.val_domains and suite.test_domains):
        raise ValueError(
            f"suite {suite.name} does not define fixed train/val/test domains"
        )
    split = {
        "train": suite.train_domains,
        "val": suite.val_domains,
        "test": suite.test_domains,
    }
    return run_split_experiment(suite, split, strategy, setting)
