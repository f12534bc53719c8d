"""Tests for the per-method communication-cost model (`repro.fl.communication`)."""

import numpy as np
import pytest

from repro.baselines import FedAvgStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.fl import (
    Client,
    CommunicationModel,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    MeasuredCommunication,
    ParallelExecutor,
    method_communication,
)
from repro.nn import build_cnn_model, build_mlp_model

MODEL = build_mlp_model((3, 8, 8), 7, rng=np.random.default_rng(0))
BYTES = 8  # float64 scalars throughout the library
WEIGHTS = MODEL.num_parameters() * BYTES


class TestTotalArithmetic:
    def test_total_combines_per_round_and_one_time(self):
        model = CommunicationModel(
            method="x",
            per_round_up=10,
            per_round_down=20,
            one_time_up=3,
            one_time_down=4,
        )
        # (10+20) bytes * 5 participants * 7 rounds + (3+4) * 12 clients
        assert model.total(rounds=7, participants_per_round=5, num_clients=12) == (
            30 * 5 * 7 + 7 * 12
        )

    def test_zero_rounds_leaves_only_one_time_cost(self):
        model = CommunicationModel(
            method="x", per_round_up=10, per_round_down=20, one_time_up=5
        )
        assert model.total(rounds=0, participants_per_round=4, num_clients=3) == 15

    def test_no_one_time_defaults(self):
        model = CommunicationModel(method="x", per_round_up=1, per_round_down=1)
        assert model.one_time_up == 0
        assert model.one_time_down == 0
        assert model.total(rounds=2, participants_per_round=3, num_clients=99) == 12


class TestMethodPayloads:
    def test_weight_only_methods(self):
        for method in ("fedavg", "fedsr", "fedgma", "feddg_ga"):
            comm = method_communication(method, MODEL)
            assert comm.per_round_up == WEIGHTS
            assert comm.per_round_down == WEIGHTS
            assert comm.one_time_up == 0
            assert comm.one_time_down == 0

    def test_fpl_ships_prototypes_both_ways(self):
        comm = method_communication("fpl", MODEL, num_classes=7)
        prototypes = MODEL.embed_dim * 7 * BYTES
        assert comm.per_round_up == WEIGHTS + prototypes
        assert comm.per_round_down == WEIGHTS + prototypes

    def test_pardon_one_time_style_only(self):
        comm = method_communication("pardon", MODEL, style_dim=24)
        assert comm.one_time_up == 24 * BYTES
        assert comm.one_time_down == 24 * BYTES
        assert comm.per_round_up == WEIGHTS

    def test_ccst_bank_scales_with_clients(self):
        comm = method_communication(
            "ccst", MODEL, style_dim=24, num_clients=20, styles_per_client=1
        )
        assert comm.one_time_up == 24 * BYTES
        assert comm.one_time_down == 24 * BYTES * 20

    def test_ccst_multiple_styles_per_client(self):
        """Sample-mode CCST uploads k styles and downloads k * N of them."""
        comm = method_communication(
            "ccst", MODEL, style_dim=24, num_clients=10, styles_per_client=4
        )
        assert comm.one_time_up == 24 * BYTES * 4
        assert comm.one_time_down == 24 * BYTES * 4 * 10
        # Per-round traffic stays weights-only: the bank ships once.
        assert comm.per_round_up == WEIGHTS
        assert comm.per_round_down == WEIGHTS

    def test_pardon_cheaper_than_ccst_in_total(self):
        pardon = method_communication("pardon", MODEL, num_clients=20)
        ccst = method_communication(
            "ccst", MODEL, num_clients=20, styles_per_client=4
        )
        assert pardon.total(10, 5, 20) < ccst.total(10, 5, 20)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            method_communication("gossip", MODEL)


class TestAnalyticAgreesWithMeasured:
    """The analytic model and ``WireStats`` count the same upload; the
    measured one is the reference, and what the analytic one abstracts
    away (pickle framing, the update record around the weights) stays
    within 2 % on a paper-sized CNN."""

    @pytest.mark.parametrize("codec", ["identity", "fp16"])
    def test_upload_bytes_per_update(self, codec):
        suite = synthetic_pacs(seed=0, samples_per_class=4)
        partition = partition_clients(
            suite, [0, 1], 4, 0.2, np.random.default_rng(0)
        )
        model = build_cnn_model(
            suite.image_shape, suite.num_classes, rng=np.random.default_rng(0)
        )
        with ParallelExecutor(
            num_workers=2, transport="pipe", codec=codec
        ) as executor:
            result = FederatedServer(
                strategy=FedAvgStrategy(LocalTrainingConfig(batch_size=8)),
                clients=[
                    Client(i, d) for i, d in enumerate(partition.client_datasets)
                ],
                model=model,
                eval_sets={"test": suite.datasets[2]},
                config=FederatedConfig(
                    num_rounds=3, clients_per_round=4, seed=0, codec=codec
                ),
                executor=executor,
            ).run()
        measured = MeasuredCommunication.from_report(result.timing)
        analytic = method_communication("fedavg", model, codec=codec)
        assert 1.00 <= measured.per_update_up / analytic.per_round_up <= 1.02
