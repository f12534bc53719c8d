"""Tests for the federated substrate: clients, sampling, timing, history,
and the simulation loop itself."""

import itertools
import threading

import numpy as np
import pytest

from repro.baselines import FedDGGAStrategy
from repro.core import PardonStrategy
from repro.data import synthetic_pacs, partition_clients
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    RoundRecord,
    RoundTimeoutError,
    RunHistory,
    SerialExecutor,
    Strategy,
    UniformClientSampler,
    evaluate_accuracy,
)
from repro.fl.timing import TimingReport
from repro.nn import build_cnn_model, build_mlp_model

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)


def make_clients(n_clients=6, heterogeneity=0.2, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, heterogeneity, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def make_model(seed=0):
    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(seed)
    )


class TestClient:
    def test_basic_properties(self):
        clients = make_clients()
        assert all(c.num_samples == len(c.dataset) for c in clients)
        domains = np.unique(clients[0].dataset.domain_ids)
        assert set(domains).issubset({0, 1})

    def test_scratch_is_per_client(self):
        clients = make_clients()
        clients[0].scratch["x"] = 1
        assert "x" not in clients[1].scratch


class TestSampler:
    def test_integer_count(self, rng):
        sampler = UniformClientSampler(3)
        chosen = sampler.sample(make_clients(8), rng)
        assert len(chosen) == 3
        assert len({c.client_id for c in chosen}) == 3

    def test_fractional_participation(self, rng):
        sampler = UniformClientSampler(0.5)
        chosen = sampler.sample(make_clients(8), rng)
        assert len(chosen) == 4

    def test_never_exceeds_population(self, rng):
        sampler = UniformClientSampler(100)
        chosen = sampler.sample(make_clients(4), rng)
        assert len(chosen) == 4

    def test_at_least_one(self, rng):
        sampler = UniformClientSampler(0.01)
        chosen = sampler.sample(make_clients(5), rng)
        assert len(chosen) == 1

    def test_skips_empty_clients(self, rng):
        clients = make_clients(4)
        empty = Client(99, clients[0].dataset.subset(np.array([], dtype=int)))
        sampler = UniformClientSampler(10)
        chosen = sampler.sample(clients + [empty], rng)
        assert all(c.client_id != 99 for c in chosen)

    def test_all_empty_raises(self, rng):
        clients = make_clients(2)
        empty = [
            Client(i, clients[0].dataset.subset(np.array([], dtype=int)))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            UniformClientSampler(1).sample(empty, rng)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            UniformClientSampler(0)
        with pytest.raises(ValueError):
            UniformClientSampler(1.5)


class TestTimer:
    def test_buckets_accumulate(self):
        records = [
            RoundRecord(
                r, 1.0, [0, 1, 2], dropped={2: "dropout"} if r == 0 else {},
                train_seconds=0.5, aggregation_seconds=0.25,
                straggler_seconds=0.125, early_closed=r == 2,
                peak_memory_bytes=(100, 300, 200)[r],
            )
            for r in range(3)
        ]
        report = TimingReport.from_records(records, one_time_seconds=2.0)
        assert report.one_time_seconds == 2.0
        assert report.rounds == 3
        assert report.local_train_invocations == 8  # survivors only
        assert report.local_train_seconds_total == 1.5
        assert report.aggregation_seconds_mean == 0.25
        assert report.dropped_clients == 1
        assert report.straggler_seconds == 0.375
        assert report.early_closed_rounds == 1
        assert report.peak_memory_bytes == 300  # a maximum, not a sum

    def test_empty_report_means(self):
        report = TimingReport.from_records([])
        assert report.local_train_seconds_mean == 0.0
        assert report.aggregation_seconds_mean == 0.0


class TestHistory:
    def test_series_and_final(self):
        history = RunHistory("x")
        for r in range(3):
            history.add(
                RoundRecord(r, 1.0 - 0.1 * r, [0], {"test": 0.5 + 0.1 * r})
            )
        series = history.accuracy_series("test")
        assert series == [(0, 0.5), (1, 0.6), (2, 0.7)]
        assert history.final_accuracy("test") == 0.7
        assert history.loss_series()[0] == (0, 1.0)

    def test_missing_eval_raises(self):
        history = RunHistory("x")
        history.add(RoundRecord(0, 1.0, [0]))
        with pytest.raises(KeyError):
            history.final_accuracy("nope")


class TestFederatedServer:
    def test_runs_and_reports(self):
        clients = make_clients()
        server = FederatedServer(
            strategy=Strategy(LocalTrainingConfig(batch_size=8)),
            clients=clients,
            model=make_model(),
            eval_sets={"test": SUITE.datasets[2]},
            config=FederatedConfig(num_rounds=3, clients_per_round=2, seed=0),
        )
        result = server.run()
        assert len(result.history.records) == 3
        assert "test" in result.final_accuracy
        assert result.timing.rounds == 3
        assert result.timing.local_train_invocations == 6

    def test_deterministic_under_seed(self):
        def run_once():
            server = FederatedServer(
                strategy=Strategy(LocalTrainingConfig(batch_size=8)),
                clients=make_clients(seed=1),
                model=make_model(seed=2),
                eval_sets={"test": SUITE.datasets[2]},
                config=FederatedConfig(num_rounds=2, clients_per_round=2, seed=5),
            )
            return server.run()

        a, b = run_once(), run_once()
        for key in a.final_state:
            np.testing.assert_array_equal(a.final_state[key], b.final_state[key])
        assert a.final_accuracy == b.final_accuracy
        # Wall-clock fields are left out of ``==``; everything else agrees.
        assert a.history.records == b.history.records
        assert a.history.records[0].train_seconds > 0.0

    def test_training_improves_over_initialization(self):
        clients = make_clients(heterogeneity=1.0)
        model = make_model()
        from repro.fl.evaluation import evaluate_accuracy

        initial = evaluate_accuracy(model, SUITE.datasets[0])
        server = FederatedServer(
            strategy=Strategy(LocalTrainingConfig(batch_size=8, local_epochs=2)),
            clients=clients,
            model=model,
            eval_sets={"train_domain": SUITE.datasets[0]},
            config=FederatedConfig(num_rounds=8, clients_per_round=4, seed=0),
        )
        result = server.run()
        assert result.final_accuracy["train_domain"] > initial + 0.1

    def test_eval_every_controls_cadence(self):
        server = FederatedServer(
            strategy=Strategy(LocalTrainingConfig(batch_size=8)),
            clients=make_clients(),
            model=make_model(),
            eval_sets={"test": SUITE.datasets[2]},
            config=FederatedConfig(
                num_rounds=4, clients_per_round=2, eval_every=2, seed=0
            ),
        )
        result = server.run()
        evaluated = [r.round_index for r in result.history.records if r.eval_accuracy]
        assert evaluated == [1, 3]

    def test_rejects_empty_client_list(self):
        with pytest.raises(ValueError):
            FederatedServer(
                strategy=Strategy(),
                clients=[],
                model=make_model(),
                eval_sets={},
                config=FederatedConfig(),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(num_rounds=0)
        with pytest.raises(ValueError):
            FederatedConfig(eval_every=0)

    def test_config_rejects_non_positive_participation(self):
        for bad in (0, -1, 0.0, -0.5):
            with pytest.raises(ValueError):
                FederatedConfig(clients_per_round=bad)

    def test_config_rejects_fraction_above_one(self):
        with pytest.raises(ValueError):
            FederatedConfig(clients_per_round=1.5)
        with pytest.raises(ValueError):
            FederatedConfig(clients_per_round=2.0)

    def test_config_rejects_non_numeric_participation(self):
        with pytest.raises(TypeError):
            FederatedConfig(clients_per_round="3")
        with pytest.raises(TypeError):
            FederatedConfig(clients_per_round=True)

    def test_config_accepts_counts_and_fractions(self):
        assert FederatedConfig(clients_per_round=1).clients_per_round == 1
        assert FederatedConfig(clients_per_round=7).clients_per_round == 7
        assert FederatedConfig(clients_per_round=0.5).clients_per_round == 0.5
        assert FederatedConfig(clients_per_round=1.0).clients_per_round == 1.0

    def test_config_accepts_numpy_scalars(self):
        """Counts from numpy sweep grids are first-class citizens."""
        assert FederatedConfig(clients_per_round=np.int64(5)).clients_per_round == 5
        config = FederatedConfig(clients_per_round=np.float64(0.25))
        assert config.clients_per_round == 0.25
        with pytest.raises(ValueError):
            FederatedConfig(clients_per_round=np.int64(0))
        with pytest.raises(ValueError):
            FederatedConfig(clients_per_round=np.float64(1.5))

    def test_sampler_treats_numpy_float_as_fraction(self):
        sampler = UniformClientSampler(np.float32(0.5))
        assert sampler.round_size(8) == 4

    def test_full_participation_fraction_selects_everyone(self):
        """A float is always a fraction: 1.0 means all clients, not one."""
        sampler = UniformClientSampler(1.0)
        assert sampler.round_size(8) == 8

    def test_client_dropout_mid_training_is_tolerated(self):
        """A client whose data vanishes between rounds is simply skipped by
        the sampler (failure injection)."""
        clients = make_clients(4)
        server = FederatedServer(
            strategy=Strategy(LocalTrainingConfig(batch_size=8)),
            clients=clients,
            model=make_model(),
            eval_sets={},
            config=FederatedConfig(num_rounds=2, clients_per_round=4, seed=0),
        )
        # Empty one client's data after construction.
        clients[0].dataset = clients[0].dataset.subset(np.array([], dtype=int))
        result = server.run()
        for record in result.history.records:
            assert clients[0].client_id not in record.participants


class _EngineProxy:
    """Delegating wrapper around a real engine: records the global state
    handed to each round (the state after that many rounds) and runs a hook
    before the round, on the thread that called ``run_round``."""

    def __init__(self, inner, before_round=None):
        self._inner = inner
        self._before_round = before_round
        self.states = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_round(self, strategy, model, global_state, participants,
                  round_index, seeds, stream=None):
        self.states.append({k: v.copy() for k, v in global_state.items()})
        if self._before_round is not None:
            self._before_round(round_index)
        return self._inner.run_round(
            strategy, model, global_state, participants, round_index, seeds,
            stream=stream,
        )


class _HookedDataset:
    """An eval set that runs a hook, on the evaluating thread, each time an
    evaluation reads its images (once per evaluation)."""

    def __init__(self, dataset, on_read):
        self._dataset = dataset
        self._on_read = on_read
        self.labels = dataset.labels

    def __len__(self):
        return len(self._dataset)

    @property
    def images(self):
        self._on_read()
        return self._dataset.images


def make_cnn(seed=0):
    return build_cnn_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(seed)
    )


class TestEvaluationPipeline:
    """Round r is evaluated while round r+1 trains; nothing else changes."""

    FAST = LocalTrainingConfig(batch_size=8)

    def _server(self, engine, eval_sets, rounds=4, strategy=None, **config):
        return FederatedServer(
            strategy=strategy or Strategy(self.FAST),
            clients=make_clients(),
            model=make_cnn(),
            eval_sets=eval_sets,
            config=FederatedConfig(
                num_rounds=rounds, clients_per_round=3, seed=0, **config
            ),
            executor=engine,
        )

    def test_evaluation_overlaps_the_next_rounds_local_phase(self):
        """Round r's evaluation and round r+1's ``run_round`` wait for each
        other.  An inline evaluation waits alone, the barrier breaks after
        its timeout, and the error surfaces from ``run``."""
        rounds = 4
        meet = threading.Barrier(2, timeout=10)
        evaluations = itertools.count()

        def on_read():
            if next(evaluations) < rounds - 1:  # the last has no next round
                meet.wait()

        def before_round(round_index):
            if round_index > 0:
                meet.wait()

        server = self._server(
            _EngineProxy(SerialExecutor(), before_round),
            {"test": _HookedDataset(SUITE.datasets[2], on_read)},
            rounds=rounds,
        )
        threads = threading.active_count()
        result = server.run()
        assert threading.active_count() == threads
        assert [bool(r.eval_accuracy) for r in result.history.records] == [True] * 4
        assert next(evaluations) == rounds

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("strategy_cls", [PardonStrategy, FedDGGAStrategy])
    def test_scores_equal_a_foreground_evaluation_of_each_state(
        self, strategy_cls, workers, eval_every
    ):
        """FedDG-GA reloads the server's model inside ``aggregate`` and the
        serial engine trains in it: neither may reach the evaluation."""
        rounds = 5
        eval_sets = {"val": SUITE.datasets[2], "test": SUITE.datasets[3]}
        inner = ParallelExecutor(num_workers=workers) if workers else SerialExecutor()
        with inner:
            engine = _EngineProxy(inner)
            server = self._server(
                engine, eval_sets, rounds=rounds,
                strategy=strategy_cls(local_config=self.FAST),
                eval_every=eval_every,
            )
            result = server.run()
        states = engine.states[1:] + [result.final_state]
        due = [r for r in range(rounds) if (r + 1) % eval_every == 0 or r == rounds - 1]
        fresh = make_cnn(seed=99)
        for record, state in zip(result.history.records, states):
            expected = {}
            if record.round_index in due:
                fresh.load_state_dict(state)
                expected = {
                    name: evaluate_accuracy(fresh, dataset).hex()
                    for name, dataset in eval_sets.items()
                }
            scored = {k: v.hex() for k, v in record.eval_accuracy.items()}
            assert scored == expected, f"round {record.round_index}"
        assert result.final_accuracy == result.history.records[-1].eval_accuracy

    def test_an_evaluation_error_surfaces_from_run(self):
        def on_read():
            raise OSError("eval set unreadable")

        server = self._server(
            SerialExecutor(), {"test": _HookedDataset(SUITE.datasets[2], on_read)}
        )
        threads = threading.active_count()
        with pytest.raises(OSError, match="eval set unreadable"):
            server.run()
        assert threading.active_count() == threads

    def test_a_round_timeout_joins_the_evaluation_in_flight(self):
        raised = threading.Event()
        waited = []

        def on_read():  # round 0's evaluation: in flight until round 1 raises
            waited.append(raised.wait(timeout=10))

        def before_round(round_index):
            if round_index == 1:
                raised.set()
                raise RoundTimeoutError(round_index, (0, 1, 2))

        server = self._server(
            _EngineProxy(SerialExecutor(), before_round),
            {"test": _HookedDataset(SUITE.datasets[2], on_read)},
        )
        threads = threading.active_count()
        with pytest.raises(RoundTimeoutError):
            server.run()
        assert threading.active_count() == threads
        assert waited == [True]

    def test_a_second_run_on_the_same_server_and_warm_pool_works(self):
        eval_sets = {"test": SUITE.datasets[2]}
        fresh = make_cnn(seed=99)
        with ParallelExecutor(num_workers=2) as pool:
            server = self._server(pool, eval_sets, rounds=3)
            first = server.run()
            threads = threading.active_count()
            second = server.run()
            assert threading.active_count() == threads
        assert first.final_accuracy != {}
        for result in (first, second):
            assert all(r.eval_accuracy for r in result.history.records)
            fresh.load_state_dict(result.final_state)
            assert result.final_accuracy == {
                "test": evaluate_accuracy(fresh, eval_sets["test"])
            }
