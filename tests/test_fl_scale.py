"""Population-scaling layer: streaming aggregation, lazy populations,
and residency that follows the population.

The acceptance bar: streaming folds in *any* arrival order are
bit-identical to the batch reduction (the compensated accumulator's order
invariance for the mean, dispatch positions for the order statistics),
evicting the clients a population released changes no
trace (they fall back to full re-registration), and server peak memory
under a lazy population scales with participants — not with the
population.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedAvgStrategy
from repro.core import PardonStrategy
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LazyPopulation,
    ListPopulation,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    UniformClientSampler,
    as_population,
    make_aggregator,
)
from repro.data import partition_clients, synthetic_pacs
from repro.data.synthetic import LabeledDataset
from repro.fl.compute import EnsembleBackend
from repro.fl.strategy import run_prepare
from repro.nn import build_cnn_model, build_mlp_model
from repro.nn.serialize import MeanAccumulator, average_states
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _model(rng_seed=0, hidden_dim=64):
    return build_mlp_model(
        SUITE.image_shape,
        SUITE.num_classes,
        rng=np.random.default_rng(rng_seed),
        hidden_dim=hidden_dim,
    )


def _run(clients, executor, rounds=3, *, codec="identity",
         clients_per_round=4, strategy=None):
    server = FederatedServer(
        strategy=FedAvgStrategy(FAST) if strategy is None else strategy,
        clients=clients,
        model=_model(),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=clients_per_round, seed=0,
            codec=codec,
        ),
        executor=executor,
    )
    try:
        return server.run()
    finally:
        executor.close()


def _trace(result):
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.eval_accuracy.items())))
            for r in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


def _assert_same_run(a, b):
    assert _trace(a) == _trace(b)
    assert sorted(a.final_state) == sorted(b.final_state)
    for key in a.final_state:
        np.testing.assert_array_equal(a.final_state[key], b.final_state[key])


def _states_and_weights(seed, count):
    rng = np.random.default_rng(seed)
    states = [
        {
            "w": rng.normal(size=(3, 2)),
            "b": rng.normal(size=(4,)),
        }
        for _ in range(count)
    ]
    weights = [float(w) for w in rng.uniform(0.1, 10.0, size=count)]
    return states, weights


class TestStreamingFoldOrder:
    """Any fold order — streaming arrival, hierarchical grouping — must be
    bit-identical to the batch reduction."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 8),
        shuffle_seed=st.integers(0, 2**32 - 1),
    )
    def test_any_arrival_order_matches_batch(self, seed, count, shuffle_seed):
        states, weights = _states_and_weights(seed, count)
        batch = average_states(states, weights)
        order = np.random.default_rng(shuffle_seed).permutation(count)
        acc = MeanAccumulator()
        for index in order:
            acc.fold(states[int(index)], weights[int(index)])
        streamed = acc.finalize()
        for key in batch:
            np.testing.assert_array_equal(streamed[key], batch[key])

    def test_mean_stream_matches_batch_aggregate(self, rng):
        states, weights = _states_and_weights(7, 5)
        aggregator = make_aggregator("mean")
        batch = aggregator.aggregate(states, weights)
        stream = aggregator.begin_stream()
        for state, weight in zip(states, weights):
            stream.fold(state, weight)
        assert stream.count == 5
        streamed = stream.finalize()
        for key in batch:
            np.testing.assert_array_equal(streamed[key], batch[key])

    def test_clip_stream_matches_batch_aggregate(self):
        states, weights = _states_and_weights(11, 4)
        ref = {key: np.zeros_like(value) for key, value in states[0].items()}
        aggregator = make_aggregator("clip(1.5)+mean")
        batch = aggregator.aggregate(states, weights, ref=ref)
        clipped_in_batch = aggregator.last_clipped
        stream = aggregator.begin_stream(ref)
        for state, weight in zip(states, weights):
            stream.fold(state, weight)
        streamed = stream.finalize()
        assert aggregator.last_clipped == clipped_in_batch
        for key in batch:
            np.testing.assert_array_equal(streamed[key], batch[key])

    @settings(deadline=None, max_examples=40)
    @given(
        rows=st.lists(st.integers(-2, 2), min_size=1, max_size=7),
        spec=st.sampled_from(
            ["krum(0)", "multi-krum(2, 0)", "median", "trimmed_mean(1)",
             "clip(1.5)+krum(0)"]
        ),
        arrival_seed=st.integers(0, 2**32 - 1),
    )
    def test_collecting_stream_reduces_in_position_order(
        self, rows, spec, arrival_seed
    ):
        """An order statistic folded in any arrival order, each upload at
        its dispatch position (with gaps, as drops leave them), gives
        ``aggregate`` over the uploads in position order — bits, weights
        and Krum's ``last_rejected`` alike.  The few distinct values make
        Krum's scores tie, so its position tie-break is exercised."""
        rng = np.random.default_rng(arrival_seed)
        states = [
            {"w": np.array([float(value), 1.0]), "b": np.array(float(value))}
            for value in rows
        ]
        weights = [float(w) for w in rng.integers(1, 5, size=len(rows))]
        positions = sorted(
            int(p) for p in rng.choice(3 * len(rows), size=len(rows), replace=False)
        )
        ref = {"w": np.zeros(2), "b": np.array(0.0)}
        batch_rule = make_aggregator(spec)
        batch = batch_rule.aggregate(states, weights, ref=ref)
        rule = make_aggregator(spec)
        stream = rule.begin_stream(ref)
        for index in rng.permutation(len(rows)):
            stream.fold(states[index], weights[index], positions[index])
        assert stream.count == len(rows)
        streamed = stream.finalize()
        assert rule.last_rejected == batch_rule.last_rejected
        assert rule.last_clipped == batch_rule.last_clipped
        assert sorted(streamed) == sorted(batch)
        for key in batch:
            np.testing.assert_array_equal(streamed[key], batch[key])

class TestEmptyParticipantRefused:
    """A participant without samples has nothing to train on and no
    weight to fold with: every engine refuses the round before any lane
    opens, naming the empty ids.  (The sampler never draws one, and a lazy
    population refuses to build one.)"""

    @pytest.mark.parametrize("engine", ["serial", "pool"])
    def test_round_refuses_empty_participants(self, engine, monkeypatch):
        empty_dataset = SUITE.datasets[0].subset(np.array([], dtype=int))
        clients = make_clients(4)
        clients.insert(1, Client(97, empty_dataset))
        clients.append(Client(98, empty_dataset))
        executor = (
            SerialExecutor() if engine == "serial" else ParallelExecutor(num_workers=2)
        )

        def no_lanes(model):
            raise AssertionError("a lane opened for a refused round")

        monkeypatch.setattr(executor, "open", no_lanes)
        model = _model()
        with executor:
            with pytest.raises(ValueError, match=r"\[97, 98\] hold no samples"):
                executor.run_round(
                    FedAvgStrategy(FAST), model, model.state_dict(), clients,
                    0, list(range(len(clients))),
                )


class TestAverageStatesOut:
    """The ``out=`` machinery: buffer reuse and the empty-survivor edge
    case fall back to the caller's state without a fresh allocation."""

    def test_empty_states_with_out_returns_out_untouched(self, rng):
        ref = {"w": rng.normal(size=(3, 3))}
        before = ref["w"].copy()
        result = average_states([], out=ref)
        assert result is ref
        np.testing.assert_array_equal(ref["w"], before)

    def test_empty_states_without_out_raises(self):
        with pytest.raises(ValueError, match="at least one state"):
            average_states([])

    def test_out_buffers_are_reused(self):
        states, weights = _states_and_weights(3, 4)
        expected = average_states(states, weights)
        out = {key: np.empty_like(value) for key, value in states[0].items()}
        buffers = dict(out)
        result = average_states(states, weights, out=out)
        assert result is out
        for key in expected:
            assert result[key] is buffers[key]
            np.testing.assert_array_equal(result[key], expected[key])


def _lazy_factory(num_classes=SUITE.num_classes,
                  image_shape=SUITE.image_shape, samples=6):
    def factory(client_id):
        rng = np.random.default_rng(10_000 + client_id)
        dataset = LabeledDataset(
            images=rng.normal(size=(samples,) + tuple(image_shape)),
            labels=rng.integers(0, num_classes, size=samples),
            domain_ids=np.zeros(samples, dtype=np.int64),
        )
        return Client(client_id, dataset)

    return factory


class TestLazyPopulation:
    def test_sample_ids_floyd_properties(self, rng):
        sampler = UniformClientSampler(16)
        ids = sampler.sample_ids(100_000, rng)
        assert len(ids) == 16
        assert len(set(ids)) == 16
        assert ids == sorted(ids)
        assert all(0 <= i < 100_000 for i in ids)

    def test_sample_ids_deterministic(self):
        sampler = UniformClientSampler(0.1)
        first = sampler.sample_ids(5000, np.random.default_rng(3))
        again = sampler.sample_ids(5000, np.random.default_rng(3))
        assert first == again

    def test_sample_ids_rejects_empty(self, rng):
        with pytest.raises(ValueError, match="no client"):
            UniformClientSampler(4).sample_ids(0, rng)

    def test_factory_id_mismatch_raises(self, rng):
        population = LazyPopulation(50, lambda cid: Client(0, _tiny_dataset()))
        with pytest.raises(ValueError, match="factory returned id"):
            population.sample(UniformClientSampler(4), rng)

    def test_factory_empty_client_raises(self, rng):
        def factory(cid):
            dataset = _tiny_dataset()
            return Client(cid, dataset.subset(np.array([], dtype=np.int64)))

        population = LazyPopulation(50, factory)
        with pytest.raises(ValueError, match="empty client"):
            population.sample(UniformClientSampler(4), rng)

    def test_size_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            LazyPopulation(0, _lazy_factory())

    def test_as_population_coercion(self):
        clients = make_clients(4)
        wrapped = as_population(clients)
        assert isinstance(wrapped, ListPopulation)
        lazy = LazyPopulation(10, _lazy_factory())
        assert as_population(lazy) is lazy

    def test_lazy_run_is_deterministic(self):
        first = _run(
            LazyPopulation(200, _lazy_factory()), SerialExecutor(), rounds=2
        )
        again = _run(
            LazyPopulation(200, _lazy_factory()), SerialExecutor(), rounds=2
        )
        _assert_same_run(first, again)

    def test_lazy_run_engine_invariant(self):
        serial = _run(
            LazyPopulation(60, _lazy_factory()), SerialExecutor(), rounds=2
        )
        parallel = _run(
            LazyPopulation(60, _lazy_factory()),
            ParallelExecutor(num_workers=2, transport="pipe"),
            rounds=2,
        )
        _assert_same_run(serial, parallel)

    def test_fedavg_builds_only_sampled_clients(self):
        """FedAvg has no client half before round 1, so a lazy run never
        enumerates the population: the factory sees sampled ids only."""
        built, sampled = [], []
        factory = _lazy_factory()

        class Recording(LazyPopulation):
            def sample(self, sampler, rng):
                participants = super().sample(sampler, rng)
                sampled.extend(client.client_id for client in participants)
                return participants

        population = Recording(
            1000, lambda client_id: built.append(client_id) or factory(client_id)
        )
        _run(population, SerialExecutor(), rounds=2)
        assert sampled and built == sampled

    def test_iter_clients_builds_one_client_at_a_time(self):
        built = []
        factory = _lazy_factory()
        population = LazyPopulation(
            5, lambda client_id: built.append(client_id) or factory(client_id)
        )
        clients = population.iter_clients()
        assert built == []
        assert next(clients).client_id == 0 and built == [0]
        assert [c.client_id for c in clients] == [1, 2, 3, 4]
        assert built == [0, 1, 2, 3, 4]
        assert [c.client_id for c in ListPopulation(make_clients(3)).iter_clients()] == [0, 1, 2]


def _tiny_dataset(samples=4):
    rng = np.random.default_rng(0)
    return LabeledDataset(
        images=rng.normal(size=(samples,) + tuple(SUITE.image_shape)),
        labels=rng.integers(0, SUITE.num_classes, size=samples),
        domain_ids=np.zeros(samples, dtype=np.int64),
    )


class _ResidencyRecording(ParallelExecutor):
    """A pool that records, after each round, how many clients it keeps
    resident and its cumulative registration bytes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.resident_after = []
        self.registered_after = []

    def run_round(self, *args, **kwargs):
        updates = super().run_round(*args, **kwargs)
        self.resident_after.append(len(self._resident))
        self.registered_after.append(self.wire.registration_bytes)
        return updates


class TestResidencyFollowsThePopulation:
    def test_lazy_pool_run_equals_serial_and_stays_bounded(self):
        """A lazy population releases each round's clients, so the pool
        evicts them and re-registers fresh objects when re-sampled (delta
        codec: even a first upload diffs against the broadcast; PARDON: a
        re-registered client recomputes its style-transfer cache) — without
        moving a bit, and with at most one round's participants resident."""
        for strategy in (FedAvgStrategy, PardonStrategy):
            serial = _run(
                LazyPopulation(40, _lazy_factory()), SerialExecutor(codec="delta"),
                rounds=4, codec="delta", clients_per_round=6,
                strategy=strategy(local_config=FAST),
            )
            pool = _ResidencyRecording(
                num_workers=2, transport="pipe", codec="delta"
            )
            parallel = _run(
                LazyPopulation(40, _lazy_factory()), pool,
                rounds=4, codec="delta", clients_per_round=6,
                strategy=strategy(local_config=FAST),
            )
            _assert_same_run(serial, parallel)
            assert len(pool.resident_after) == 4
            assert max(pool.resident_after) <= 6

    def test_a_list_population_stays_resident(self):
        """A list population holds every client, so nothing it holds is
        evicted: after the first round nobody registers again."""
        pool = _ResidencyRecording(num_workers=2, transport="pipe")
        _run(make_clients(8), pool, rounds=3, clients_per_round=8)
        assert pool.resident_after == [8, 8, 8]
        assert len(set(pool.registered_after)) == 1


class TestConfigValidation:
    def test_integer_count_quorum_checked_at_config_time(self):
        # One quorum rule: the engine's quorum against the resolved
        # per-round participant count, at server construction.
        with pytest.raises(ValueError, match="quorum 5 exceeds"):
            FederatedServer(
                strategy=FedAvgStrategy(FAST),
                clients=make_clients(8),
                model=_model(),
                eval_sets={},
                config=FederatedConfig(num_rounds=1, clients_per_round=4),
                executor=SerialExecutor(quorum=5),
            )

    def test_integer_participation_not_treated_as_fraction(self):
        # A count of 1 must stay a count (1 participant), never become
        # the fraction 1.0 (everyone).
        config = FederatedConfig(num_rounds=1, clients_per_round=1)
        assert UniformClientSampler(config.clients_per_round).round_size(
            100_000
        ) == 1

    def test_fractional_quorum_resolved_at_server_construction(self):
        # 0.5 of 8 clients = 4 participants < quorum 5: config time cannot
        # know the population, server construction can.
        config = FederatedConfig(num_rounds=1, clients_per_round=0.5)
        with pytest.raises(ValueError, match="quorum"):
            FederatedServer(
                strategy=FedAvgStrategy(FAST),
                clients=make_clients(8),
                model=_model(),
                eval_sets={},
                config=config,
                executor=SerialExecutor(quorum=5),
            )


class TestMemoryScaling:
    def test_server_peak_is_o_participants_not_o_population(self):
        """The ISSUE's acceptance bound, at smoke scale: a 20x larger lazy
        population at the same participant count must stay within 2x of
        the small run's server peak memory."""
        peaks = []
        for population_size in (120, 2400):
            population = LazyPopulation(population_size, _lazy_factory())
            tracemalloc.start()
            try:
                result = _run(
                    population, SerialExecutor(), rounds=2,
                    clients_per_round=8,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.timing.peak_memory_bytes > 0  # sampled per round
        small, large = peaks
        assert large < 2.0 * small, (
            f"peak memory grew with the population: {small} -> {large}"
        )

    def test_training_peak_is_bounded_by_the_stack_not_the_round(self):
        """The trainer runs a round's survivors in stacks sized
        by their per-step input (32 x 3x16x16 here: two clients a stack),
        so the serial engine's round peak at 4x the participants stays
        within 1.5x.  One stack of every survivor grew it linearly."""
        image_shape = (3, 16, 16)
        factory = _lazy_factory(image_shape=image_shape, samples=32)
        clients = [factory(client_id) for client_id in range(16)]
        peaks = []
        for participants in (4, 16):
            executor = SerialExecutor()
            server = FederatedServer(
                strategy=FedAvgStrategy(LocalTrainingConfig(batch_size=32)),
                clients=clients,
                model=build_cnn_model(
                    image_shape, SUITE.num_classes, rng=np.random.default_rng(0),
                    widths=(4, 6), embed_dim=8,
                ),
                eval_sets={},
                config=FederatedConfig(
                    num_rounds=2, clients_per_round=participants, seed=0
                ),
                executor=executor,
            )
            tracemalloc.start()
            try:
                with executor:
                    peaks.append(server.run().timing.peak_memory_bytes)
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert large < 1.5 * small, (
            f"round peak grew with the participants: {small} -> {large}"
        )

    def test_serial_round_holds_one_stack(self):
        """The serial engine folds each stack's uploads before the next
        stack trains, and its trainer keeps one clone, so 4x the
        six-sample 3x8x8 participants (43/43/42 -> ten stacks of 51-52)
        keeps the round peak well under 1.6x.  Training the round before
        folding any of it read 2.11x here."""
        factory = _lazy_factory(image_shape=(3, 8, 8))
        peaks = []
        for participants in (128, 512):
            executor = SerialExecutor()
            server = FederatedServer(
                strategy=FedAvgStrategy(LocalTrainingConfig()),
                clients=[factory(client_id) for client_id in range(participants)],
                model=build_cnn_model(
                    (3, 8, 8), SUITE.num_classes, rng=np.random.default_rng(0)
                ),
                eval_sets={},
                config=FederatedConfig(
                    num_rounds=2, clients_per_round=participants, seed=0
                ),
                executor=executor,
            )
            tracemalloc.start()
            try:
                with executor:
                    peaks.append(server.run().timing.peak_memory_bytes)
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert large < 1.6 * small, (
            f"round peak grew with the participants: {small} -> {large}"
        )

    @pytest.mark.parametrize(
        "make_strategy",
        [
            lambda config: FedAvgStrategy(config),
            lambda config: PardonStrategy(local_config=config),
        ],
        ids=["fedavg", "pardon"],
    )
    def test_stack_peak_does_not_hold_the_datasets(self, make_strategy):
        """A K=2 stack of 3x16x16 clients (batch 32) trains from its
        members' own arrays, gathering one step's rows at a time, so 4x
        the samples adds less than one (K, 420) stack of the added images
        to ``run_group``'s peak.  Stacking every member's dataset (and
        PARDON's style-transferred views) added at least that."""
        image_shape = (3, 16, 16)
        config = LocalTrainingConfig(batch_size=32)
        peaks = []
        for samples in (140, 560):
            factory = _lazy_factory(image_shape=image_shape, samples=samples)
            clients = [factory(client_id) for client_id in range(2)]
            strategy = make_strategy(config)
            run_prepare(strategy, clients, SeedTree(0))
            model = build_cnn_model(
                image_shape, SUITE.num_classes, rng=np.random.default_rng(0),
                widths=(4, 6), embed_dim=8,
            )
            state = model.state_dict()
            backend = EnsembleBackend()

            def train():
                return backend.run_group(strategy, model, state, clients, 0, [1, 2])

            train()  # builds the clone and PARDON's style-transfer cache
            tracemalloc.start()
            try:
                train()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        small, large = peaks
        added_stack = 2 * (560 - 140) * int(np.prod(image_shape)) * 8
        assert large - small < added_stack, (
            f"run_group peak grew by {large - small} bytes from 140 to 560 "
            f"samples; one (2, 420) image stack is {added_stack}"
        )
