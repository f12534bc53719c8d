"""Figure 4 companion — communication cost per method, analytic *and* measured.

The paper measures computation; bytes on the wire complete the scalability
story (§IV-B-3 argues PARDON's one-time cost does not grow with rounds).
Analytic payload sizes come from :mod:`repro.fl.communication`, exact for
this repository's float64 tensors.  The measured columns come from a real
(tiny) federated run per method on the parallel engine, whose pool-resident
delta protocol byte-counts every hop (:class:`repro.fl.executor.WireStats`
folded into the timing report).

Shape to check: every method is dominated by weight exchange; PARDON adds
one style vector per client once; CCST's one-time download grows linearly
with the client count (the whole style bank); FPL pays prototypes every
round.  Measured uploads track the analytic weight cost plus pickle framing
(FPL's prototypes visible on top); PARDON's measured upload equals FedAvg's
— its re-styled images stay in the workers, and its one style vector per
client is computed by the client half of the exchange before round 1
(``Strategy.prepare_client``), which still runs in-process, so no wire
counts it yet (FedDG-GA's per-round loss report does ride the upload, a
few bytes in its payload); measured
downloads come out *below* analytic because the engine broadcasts
once per worker, not per client — the same share-nothing argument PARDON
makes against cross-sharing methods, here realized by the transport.

The second table sweeps the wire codec (:mod:`repro.fl.codec`) on FedAvg:
the codec-adjusted analytic bound next to measured bytes per update and
per round.  Shape to check: fp16/qint8 land near their 4x/8x analytic
ratios; ``delta`` beats the (dense) analytic bound by whatever temporal
redundancy the training run actually has — the honesty gap the analytic
column cannot model.
"""

from __future__ import annotations

import numpy as np

from common import emit

from repro.fl import (
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    MeasuredCommunication,
    ParallelExecutor,
)
from repro.cli import METHODS as METHOD_FACTORIES
from repro.data import synthetic_pacs, partition_clients
from repro.fl.client import Client
from repro.fl.communication import method_communication
from repro.nn import build_cnn_model
from repro.utils.tables import format_table

METHODS = ["fedavg", "fedsr", "fedgma", "fpl", "feddg_ga", "ccst", "pardon"]
CODECS = ["identity", "delta", "fp16", "qint8"]

MEASURE_CLIENTS = 8
MEASURE_ROUNDS = 3


def _measure(method: str, codec: str = "identity") -> MeasuredCommunication:
    """One tiny full-participation run on the parallel engine."""
    suite = synthetic_pacs(seed=0, samples_per_class=6, image_size=8)
    partition = partition_clients(
        suite, [0, 1], MEASURE_CLIENTS, 0.2, np.random.default_rng(0)
    )
    clients = [Client(i, d) for i, d in enumerate(partition.client_datasets)]
    model = build_cnn_model(
        suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
    )
    strategy = METHOD_FACTORIES[method]()
    strategy.local_config = LocalTrainingConfig(batch_size=8)
    with ParallelExecutor(num_workers=2, codec=codec) as executor:
        server = FederatedServer(
            strategy=strategy,
            clients=clients,
            model=model,
            eval_sets={},
            config=FederatedConfig(
                num_rounds=MEASURE_ROUNDS,
                clients_per_round=MEASURE_CLIENTS,
                seed=0,
                codec=codec,
            ),
            executor=executor,
        )
        result = server.run()
    return MeasuredCommunication.from_report(result.timing)


def _run() -> str:
    model = build_cnn_model((3, 16, 16), num_classes=7,
                            rng=np.random.default_rng(0))
    rows = []
    for method in METHODS:
        comm = method_communication(
            method, model, style_dim=24, num_classes=7, num_clients=100
        )
        total = comm.total(rounds=50, participants_per_round=20, num_clients=100)
        measured = _measure(method)
        rows.append(
            [
                method,
                f"{comm.per_round_up / 1024:.1f}",
                f"{comm.per_round_down / 1024:.1f}",
                f"{comm.one_time_up / 1024:.3f}",
                f"{comm.one_time_down / 1024:.3f}",
                f"{total / 1024 / 1024:.1f}",
                f"{measured.per_update_up / 1024:.1f}",
                f"{measured.per_update_down / 1024:.1f}",
            ]
        )
    return format_table(
        [
            "Method",
            "up KiB/round/client",
            "down KiB/round/client",
            "one-time up KiB",
            "one-time down KiB",
            "session total MiB (50r, 20/100 clients)",
            "measured up KiB/update",
            "measured down KiB/update",
        ],
        rows,
        title=(
            "Fig. 4 companion — communication cost "
            "(analytic float64; measured = parallel engine, "
            f"{MEASURE_ROUNDS} rounds x {MEASURE_CLIENTS} clients, "
            "own tiny model/suite)"
        ),
    )


def _run_codecs() -> str:
    """Codec sweep on FedAvg: codec-adjusted analytic bound vs. measured."""
    model = build_cnn_model((3, 16, 16), num_classes=7,
                            rng=np.random.default_rng(0))
    rows = []
    for codec in CODECS:
        comm = method_communication("fedavg", model, codec=codec)
        measured = _measure("fedavg", codec=codec)
        per_round = (measured.bytes_up + measured.bytes_down) / measured.rounds
        rows.append(
            [
                codec,
                f"{comm.per_round_up / 1024:.1f}",
                f"{measured.per_update_up / 1024:.1f}",
                f"{measured.per_update_down / 1024:.1f}",
                f"{per_round / 1024:.0f}",
            ]
        )
    return format_table(
        [
            "Codec",
            "analytic up KiB/round/client",
            "measured up KiB/update",
            "measured down KiB/update",
            "measured total KiB/round",
        ],
        rows,
        title=(
            "Wire codec sweep — FedAvg, parallel engine "
            f"({MEASURE_ROUNDS} rounds x {MEASURE_CLIENTS} clients; "
            "analytic = dense upper bound, delta's DEFLATE is data-dependent)"
        ),
    )


def _tables() -> str:
    return _run() + "\n\n" + _run_codecs()


def test_fig4b_communication(benchmark):
    table = benchmark.pedantic(_tables, rounds=1, iterations=1)
    emit("fig4b_communication", table)


if __name__ == "__main__":
    emit("fig4b_communication", _tables())
