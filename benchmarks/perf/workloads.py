"""The four workloads: inputs generated from the seed, and their engines.

Everything here is built through the program's public API; the program
receives only generated inputs (suite, partition, model, population) and
never the seed's meaning.  ``build`` is what ``setup_s`` times, together
with ``Strategy.prepare`` inside ``FederatedServer.run``.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.fedavg import FedAvgStrategy
from repro.core.pardon import PardonStrategy
from repro.data.registry import synthetic_pacs
from repro.data.synthetic import LabeledDataset
from repro.eval.protocols import ExperimentSetting, make_clients
from repro.fl.client import Client
from repro.fl.executor import ParallelExecutor, SerialExecutor
from repro.fl.net.executor import RemoteExecutor
from repro.fl.population import LazyPopulation
from repro.fl.server import FederatedConfig
from repro.fl.strategy import LocalTrainingConfig
from repro.nn.models import build_cnn_model
from repro.utils.rng import SeedTree

from spec import LANES, TEARDOWN_WAIT_SECONDS

PACS_SPLIT = {"train": ("photo", "art_painting"), "val": "cartoon", "test": "sketch"}
PACS_SAMPLES_PER_CLASS = 200
PACS_CLIENTS = 20
PACS_PARTICIPATION = 0.25
PACS_HETEROGENEITY = 0.1

XDEV_POPULATION = 100_000
XDEV_PARTICIPANTS = 128
XDEV_IMAGE_SHAPE = (3, 8, 8)
XDEV_CLASSES = 7
XDEV_SHARD = 6


@dataclass
class Experiment:
    """Everything ``FederatedServer`` takes, plus what set-up cost."""

    strategy: object
    clients: object
    model: object
    eval_sets: dict
    config: FederatedConfig
    local_epochs: int
    #: Harness spans of the set-up phases, in seconds.
    phases: dict = field(default_factory=dict)


def build_pacs(seed: int, rounds: int, codec: str = "identity") -> Experiment:
    """PARDON defaults on the PACS-shaped suite, LTDO split."""
    phases = {}
    start = time.perf_counter()
    suite = synthetic_pacs(seed, samples_per_class=PACS_SAMPLES_PER_CLASS)
    phases["data.suite_build_s"] = time.perf_counter() - start
    train = [suite.domain_index(name) for name in PACS_SPLIT["train"]]
    setting = ExperimentSetting(
        num_clients=PACS_CLIENTS, clients_per_round=PACS_PARTICIPATION,
        heterogeneity=PACS_HETEROGENEITY, num_rounds=rounds, eval_every=1,
        seed=seed,
    )
    start = time.perf_counter()
    clients = make_clients(suite, train, setting, seed_label=tuple(train))
    phases["data.partition_s"] = time.perf_counter() - start
    model = setting.model_factory(suite)(
        SeedTree(seed).child(suite.name, "model").generator("init")
    )
    strategy = PardonStrategy()
    return Experiment(
        strategy=strategy,
        clients=clients,
        model=model,
        eval_sets={
            "val": suite.merged([suite.domain_index(PACS_SPLIT["val"])]),
            "test": suite.merged([suite.domain_index(PACS_SPLIT["test"])]),
        },
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=PACS_PARTICIPATION,
            eval_every=1, seed=seed, codec=codec,
        ),
        local_epochs=strategy.local_config.local_epochs,
        phases=phases,
    )


def shard_factory(seed: int):
    """Deterministic lazy client factory: each id regenerates the same
    six-sample shard, so the 100k population costs nothing until sampled."""

    def factory(client_id: int) -> Client:
        rng = np.random.default_rng([seed, client_id])
        return Client(
            client_id,
            LabeledDataset(
                images=rng.normal(size=(XDEV_SHARD,) + XDEV_IMAGE_SHAPE),
                labels=rng.integers(0, XDEV_CLASSES, size=XDEV_SHARD),
                domain_ids=np.zeros(XDEV_SHARD, dtype=np.int64),
            ),
        )

    return factory


def build_xdev(seed: int, rounds: int) -> Experiment:
    """FedAvg over a lazy cross-device population of tiny shards."""
    phases = {}
    start = time.perf_counter()
    factory = shard_factory(seed)
    eval_sets = {"val": factory(0).dataset}
    phases["data.suite_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    population = LazyPopulation(XDEV_POPULATION, factory)
    phases["data.partition_s"] = time.perf_counter() - start
    strategy = FedAvgStrategy(LocalTrainingConfig(batch_size=32))
    return Experiment(
        strategy=strategy,
        clients=population,
        model=build_cnn_model(
            XDEV_IMAGE_SHAPE, XDEV_CLASSES, rng=np.random.default_rng(seed)
        ),
        eval_sets=eval_sets,
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=XDEV_PARTICIPANTS, seed=seed
        ),
        local_epochs=strategy.local_config.local_epochs,
        phases=phases,
    )


def build(workload: str, seed: int, rounds: int) -> Experiment:
    if workload == "xdev_lazy":
        return build_xdev(seed, rounds)
    return build_pacs(
        seed, rounds, codec="delta" if workload == "pacs_tcp_delta" else "identity"
    )


class Agents:
    """The agent subprocesses of the tcp workload."""

    def __init__(self) -> None:
        self.processes: list[subprocess.Popen] = []

    def spawn(self, address: "tuple[str, int]", count: int) -> None:
        host, port = address
        for index in range(count):
            self.processes.append(subprocess.Popen(
                [sys.executable, "-m", "repro.fl.net.agent",
                 "--connect", f"{host}:{port}", "--name", f"agent{index}"],
                stdout=subprocess.DEVNULL,
            ))

    def reap(self) -> int:
        """Wait for agents that were told goodbye; kill and count the ones
        still alive after the grace period."""
        deadline = time.monotonic() + TEARDOWN_WAIT_SECONDS
        killed = 0
        for process in self.processes:
            try:
                process.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                killed += 1
        self.processes.clear()
        return killed


def make_engine(workload: str, agents: Agents):
    """The workload's execution engine (agents are spawned here for tcp;
    they join at the first round, when the welcome can carry the model)."""
    if workload in ("pacs_serial", "xdev_lazy"):
        return SerialExecutor(codec="identity", compute="auto")
    if workload == "pacs_shm":
        return ParallelExecutor(num_workers=LANES, transport="shm", codec="identity")
    if workload == "pacs_tcp_delta":
        engine = RemoteExecutor(num_agents=LANES, pipelined=True, codec="delta")
        agents.spawn(engine.address, LANES)
        return engine
    raise ValueError(f"unknown workload {workload!r}")
