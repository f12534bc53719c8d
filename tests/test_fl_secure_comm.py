"""Tests for communication accounting, MixStyle, and the CLI."""

import numpy as np
import pytest

from repro.baselines.mixstyle import MixStyleStrategy
from repro.data import synthetic_pacs, partition_clients
from repro.fl import Client, FederatedConfig, FederatedServer, LocalTrainingConfig
from repro.fl.communication import method_communication
from repro.nn import build_mlp_model

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)


class TestCommunication:
    def model(self, rng):
        return build_mlp_model((3, 8, 8), num_classes=7, rng=rng)

    def test_weight_exchange_dominates_everywhere(self, rng):
        model = self.model(rng)
        for method in ("fedavg", "fedsr", "fedgma", "feddg_ga", "ccst", "pardon"):
            comm = method_communication(method, model)
            assert comm.per_round_up >= model.num_parameters() * 8

    def test_pardon_one_time_is_one_style_vector(self, rng):
        comm = method_communication("pardon", self.model(rng), style_dim=24)
        assert comm.one_time_up == 24 * 8
        assert comm.one_time_down == 24 * 8

    def test_ccst_download_scales_with_clients(self, rng):
        model = self.model(rng)
        small = method_communication("ccst", model, num_clients=10)
        large = method_communication("ccst", model, num_clients=100)
        assert large.one_time_down == 10 * small.one_time_down

    def test_fpl_ships_prototypes_every_round(self, rng):
        model = self.model(rng)
        fedavg = method_communication("fedavg", model)
        fpl = method_communication("fpl", model, num_classes=7)
        assert fpl.per_round_up - fedavg.per_round_up == model.embed_dim * 7 * 8

    def test_total_accounting(self, rng):
        comm = method_communication("pardon", self.model(rng))
        total = comm.total(rounds=10, participants_per_round=4, num_clients=20)
        expected = (comm.per_round_up + comm.per_round_down) * 4 * 10 + (
            comm.one_time_up + comm.one_time_down
        ) * 20
        assert total == expected

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError):
            method_communication("nope", self.model(rng))


class TestMixStyle:
    def test_runs_federated(self):
        partition = partition_clients(
            SUITE, [0, 1], 4, 0.2, np.random.default_rng(0)
        )
        clients = [Client(i, d) for i, d in enumerate(partition.client_datasets)]
        model = build_mlp_model(SUITE.image_shape, SUITE.num_classes,
                                rng=np.random.default_rng(0))
        server = FederatedServer(
            strategy=MixStyleStrategy(local_config=LocalTrainingConfig(batch_size=8)),
            clients=clients,
            model=model,
            eval_sets={"test": SUITE.datasets[2]},
            config=FederatedConfig(num_rounds=2, clients_per_round=2, seed=0),
        )
        result = server.run()
        for value in result.final_state.values():
            assert np.all(np.isfinite(value))

    def test_mixing_preserves_labels_and_shape(self, rng):
        strategy = MixStyleStrategy(mix_probability=1.0)
        images = SUITE.datasets[0].images[:8]
        mixed = strategy._mix_batch(images, rng)
        assert mixed.shape == images.shape
        assert not np.allclose(mixed, images)

    def test_single_sample_batch_not_mixed(self, rng):
        strategy = MixStyleStrategy(mix_probability=1.0)
        images = SUITE.datasets[0].images[:1]
        np.testing.assert_array_equal(strategy._mix_batch(images, rng), images)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixStyleStrategy(alpha=0.0)
        with pytest.raises(ValueError):
            MixStyleStrategy(mix_probability=2.0)


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pardon" in out and "pacs" in out

    def test_run_command_smoke(self, capsys, monkeypatch):
        from repro import cli

        # Swap in a tiny suite so the CLI test is fast.
        monkeypatch.setitem(
            cli.SUITES, "pacs",
            lambda seed: synthetic_pacs(seed=seed, samples_per_class=4,
                                        image_size=8),
        )
        code = cli.main([
            "run", "--suite", "pacs", "--method", "fedavg",
            "--train-domains", "photo", "art_painting",
            "--val-domain", "cartoon", "--test-domain", "sketch",
            "--rounds", "2", "--clients", "4", "--participation", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "test acc" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["--train-domains", "photo", "cartoon", "--val-domain", "cartoon"],
                "val domain 'cartoon' is also a training domain",
                id="trains-on-its-validation-domain",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "etching"],
                "unknown domain 'etching'",
                id="unknown-domain",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "cartoon",
                 "--rounds", "0"],
                "--rounds: must be >= 1",
                id="rounds-0",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "cartoon",
                 "--heterogeneity", "7"],
                "--heterogeneity: must be in [0, 1]",
                id="heterogeneity-7",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "cartoon",
                 "--participation", "2", "--quorum", "3"],
                "--quorum 3 exceeds the 2 client(s) a round samples",
                id="quorum-above-participant-count",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "cartoon",
                 "--clients", "4", "--participation", "0.5", "--quorum", "3"],
                "--quorum 3 exceeds the 2 client(s) a round samples",
                id="quorum-above-resolved-fraction",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "cartoon",
                 "--topology", "edge:2"],
                "unrecognized arguments: --topology edge:2",
                id="retired-topology-flag",
            ),
            pytest.param(
                ["--train-domains", "photo", "--val-domain", "cartoon",
                 "--aggregator", "edge(2)+mean"],
                "only 'clip(tau)' may prefix an aggregator",
                id="retired-edge-prefix",
            ),
        ],
    )
    def test_bad_experiment_is_a_usage_error(self, argv, message, capsys):
        """A split that scores a training domain, an unknown domain name,
        out-of-range knobs, a quorum no round could reach and the retired
        topology spellings exit 2 with one line, not a traceback (or,
        worse, a run)."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--suite", "pacs", "--method", "fedavg",
                  "--test-domain", "sketch", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        if "domain" in message:
            assert "art_painting" in err  # names the suite's domains

    def test_workers_flag_selects_the_pool(self, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setitem(
            cli.SUITES, "pacs",
            lambda seed: synthetic_pacs(seed=seed, samples_per_class=4,
                                        image_size=8),
        )
        argv = [
            "run", "--suite", "pacs", "--method", "fedavg",
            "--train-domains", "photo", "art_painting",
            "--val-domain", "cartoon", "--test-domain", "sketch",
            "--rounds", "2", "--clients", "4", "--participation", "2",
        ]
        assert cli.main(argv) == 0
        serial = capsys.readouterr().out
        assert cli.main([*argv, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_unknown_method_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--suite", "pacs", "--method", "bogus",
                  "--train-domains", "photo", "--val-domain", "cartoon",
                  "--test-domain", "sketch"])
