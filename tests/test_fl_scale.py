"""Population-scaling layer: streaming aggregation, lazy populations,
and resident-client LRU bounds.

The acceptance bar: streaming folds in *any* arrival order are
bit-identical to the batch weighted mean (the compensated accumulator's
order invariance), a bounded resident set changes no trace (evicted
clients fall back to full re-registration), and server peak memory under
a lazy population scales with participants — not with the population.
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
    ClientUpdate,
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
    make_executor,
)
from repro.fl import compute as fl_compute
from repro.data import partition_clients, synthetic_pacs
from repro.data.synthetic import LabeledDataset
from repro.nn import build_cnn_model, build_mlp_model
from repro.nn.serialize import MeanAccumulator, average_states
from tests import reference_loop

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

    def test_order_statistics_are_not_streaming(self):
        aggregator = make_aggregator("median")
        assert not aggregator.streaming
        with pytest.raises(NotImplementedError, match="not streaming"):
            aggregator.begin_stream()


class TestZeroWeightStreamFallback:
    """Regression: an all-zero-weight round (every sampled client empty)
    must stream to the same uniform-mean fallback the batch path takes
    (``Strategy.aggregate``'s ``sum(weights) <= 0`` branch), bit for bit.
    Before the fix the stream's finalize raised ``weights must not sum to
    zero`` where the batch path silently recovered."""

    @pytest.mark.parametrize(
        "spec", ["mean", "clip(1.5)+mean"]
    )
    def test_zero_weight_stream_matches_batch_uniform_fallback(self, spec):
        states, _ = _states_and_weights(23, 5)
        ref = {key: np.zeros_like(value) for key, value in states[0].items()}
        aggregator = make_aggregator(spec)
        batch = aggregator.aggregate(states, [1.0] * len(states), ref=ref)
        stream = aggregator.begin_stream(ref)
        for state in states:
            stream.fold(state, 0.0)
        streamed = stream.finalize()
        for key in batch:
            np.testing.assert_array_equal(
                streamed[key], batch[key],
                err_msg=f"{spec}: zero-weight stream diverged from batch",
            )

    def test_first_positive_weight_drops_the_shadow(self):
        """A zero-weight prefix must not disturb the weighted result once
        any positive weight arrives — and the shadow accumulator is freed
        (constant memory, weights are non-negative sample counts)."""
        states, weights = _states_and_weights(29, 5)
        weights[0] = 0.0
        weights[1] = 0.0
        aggregator = make_aggregator("mean")
        batch = aggregator.aggregate(states, weights)
        stream = aggregator.begin_stream()
        for state, weight in zip(states, weights):
            stream.fold(state, weight)
            if weight > 0:
                assert stream.uniform is None
        streamed = stream.finalize()
        for key in batch:
            np.testing.assert_array_equal(streamed[key], batch[key])

    def test_strategy_batch_and_stream_agree_on_all_empty_round(self):
        """End of the wire: Strategy.aggregate must return the same state
        whether the engine streamed the all-empty round or batched it."""
        strategy = FedAvgStrategy(FAST)
        global_state = _model().state_dict()
        states, _ = _states_and_weights(31, 4)
        empty_dataset = SUITE.datasets[0].subset(np.array([], dtype=int))
        clients = [Client(i, empty_dataset) for i in range(4)]
        batch_updates = [
            ClientUpdate.from_client(client, state, 0.0)
            for client, state in zip(clients, states)
        ]
        merged_batch = strategy.aggregate(global_state, batch_updates, 0)
        stream = strategy.begin_stream(global_state)
        assert stream is not None
        stream_updates = [
            ClientUpdate.from_client(client, state, 0.0)
            for client, state in zip(clients, states)
        ]
        for update in stream_updates:
            stream.fold(update.state, float(update.num_samples))
            update.state = None  # the engine frees folded uploads
        merged_stream = strategy.aggregate(
            global_state, stream_updates, 0, stream=stream
        )
        for key in merged_batch:
            np.testing.assert_array_equal(
                merged_batch[key], merged_stream[key]
            )


class TestEmptyClientGuard:
    """Regression: the trainer answers a zero-sample client itself — zero
    loss, the broadcast weights, no randomness consumed — on every engine
    and at every stack limit, as the scalar reference loop does, and its
    neighbours train as if it were not there."""

    @staticmethod
    def _empty_dataset():
        return SUITE.datasets[0].subset(np.array([], dtype=int))

    def _mixed_clients(self):
        clients = make_clients(4)
        clients.insert(1, Client(97, self._empty_dataset()))
        clients.append(Client(98, self._empty_dataset()))
        return clients

    @pytest.mark.parametrize("stack_step", [None, 1], ids=["ensemble", "strict"])
    def test_backends_agree_on_group_with_empty_clients(self, stack_step, monkeypatch):
        """A group mixing empty and non-empty clients produces bitwise the
        reference loop's updates through the trainer's stacks, K=1 ones
        included, on the serial engine and on a 2-worker pool (whose
        fork-started workers inherit the stack limit)."""
        if stack_step is not None:
            monkeypatch.setattr(fl_compute, "_STACK_STEP_ELEMENTS", stack_step)
        model = _model()
        wire = model.state_dict()
        seeds = list(range(100, 106))
        empty_ids = {97, 98}

        reference = reference_loop.run_loop(
            FedAvgStrategy(FAST), _model(), wire, self._mixed_clients(), 0, seeds
        )

        def on_engine(engine):
            with engine:
                return engine.run_round(
                    FedAvgStrategy(FAST), _model(), wire,
                    self._mixed_clients(), 0, seeds,
                )

        serial = on_engine(SerialExecutor())
        pooled = on_engine(ParallelExecutor(num_workers=2))
        for engine, got in (("serial", serial), ("pool", pooled)):
            assert [u.client_id for u in got] == [u.client_id for u in reference]
            for ref, update in zip(reference, got):
                assert update.loss == ref.loss, engine
                assert update.num_samples == ref.num_samples
                assert list(update.state) == list(ref.state)
                for key in ref.state:
                    assert update.state[key].dtype == ref.state[key].dtype
                    np.testing.assert_array_equal(update.state[key], ref.state[key])
            for update in got:
                if update.client_id not in empty_ids:
                    continue
                assert update.loss == 0.0
                assert list(update.state) == list(wire)
                for key in wire:
                    np.testing.assert_array_equal(update.state[key], wire[key])
                    assert not np.shares_memory(update.state[key], wire[key])
        # The neighbours train exactly as in a group without the empty
        # clients, on the same seeds.
        trained = [
            (client, seed)
            for client, seed in zip(self._mixed_clients(), seeds)
            if client.client_id not in empty_ids
        ]
        alone = reference_loop.run_loop(
            FedAvgStrategy(FAST), _model(), wire,
            [client for client, _ in trained], 0, [seed for _, seed in trained],
        )
        for got in (serial, pooled):
            neighbours = [u for u in got if u.client_id not in empty_ids]
            for want, update in zip(alone, neighbours, strict=True):
                assert update.client_id == want.client_id
                assert update.loss == want.loss
                for key in want.state:
                    np.testing.assert_array_equal(update.state[key], want.state[key])


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


class TestMaxResidentLRU:
    def test_bounded_residency_changes_no_trace(self):
        """Eviction falls back to full re-registration, so a tiny bound
        must reproduce the unbounded run bit-for-bit (delta codec: the
        reference chains must reset consistently on both endpoints; PARDON:
        an evicted client recomputes its style-transfer cache)."""
        for strategy in (FedAvgStrategy, PardonStrategy):
            unbounded = _run(
                make_clients(12),
                ParallelExecutor(num_workers=2, transport="pipe", codec="delta"),
                rounds=4, codec="delta", clients_per_round=6,
                strategy=strategy(local_config=FAST),
            )
            bounded = _run(
                make_clients(12),
                ParallelExecutor(num_workers=2, transport="pipe", codec="delta",
                                 max_resident=6),
                rounds=4, codec="delta", clients_per_round=6,
                strategy=strategy(local_config=FAST),
            )
            _assert_same_run(unbounded, bounded)

    def test_resident_set_is_bounded(self):
        executor = ParallelExecutor(
            num_workers=2, transport="pipe", max_resident=4
        )
        _run(make_clients(12), executor, rounds=3, clients_per_round=6)
        # close() cleared it; inspect the bound instead via a fresh run.
        executor = ParallelExecutor(
            num_workers=2, transport="pipe", max_resident=4
        )
        try:
            server = FederatedServer(
                strategy=FedAvgStrategy(FAST),
                clients=make_clients(12),
                model=_model(),
                eval_sets={"test": SUITE.datasets[2]},
                config=FederatedConfig(
                    num_rounds=3, clients_per_round=6, seed=0
                ),
                executor=executor,
            )
            server.run()
            assert len(executor._resident) <= 4 + 6
            assert len(executor._upload_refs) <= 4 + 6
        finally:
            executor.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_resident"):
            ParallelExecutor(num_workers=2, max_resident=0)
        engine = make_executor(max_resident=8)
        try:
            assert isinstance(engine, ParallelExecutor)
            assert engine.max_resident == 8
        finally:
            engine.close()


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
