"""Tests for Byzantine-robust aggregation + adaptive round control.

The acceptance bar: ``mean`` stays bit-identical to the historical
``average_states`` path (the cross-engine chaos traces of earlier PRs are
untouched); under a seeded ``byzantine=0.2:scale`` attack ``mean``
demonstrably diverges while ``median`` and ``krum`` stay within 2% of
their fault-free accuracy; byzantine chaos traces are bit-identical across
serial / parallel+pipe / parallel+shm; and quorum / adaptive-deadline runs
— whose membership depends on wall clock — replay *exactly* from the
``RoundRecord.accepted`` sets they record.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FedAvgStrategy,
    FedDGGAStrategy,
    FedGMAStrategy,
    FPLStrategy,
)
from repro.cli import METHODS
from repro.fl import (
    Client,
    ClientUpdate,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    RoundTimeoutError,
    SerialExecutor,
    make_aggregator,
    make_executor,
    shm_supported,
)
from repro.fl.aggregate import (
    Aggregator,
    ClipAggregator,
    KrumAggregator,
    MeanAggregator,
    MedianAggregator,
    TrimmedMeanAggregator,
    aggregator_specs,
    register_aggregator,
)
from repro.fl.faults import (
    ADAPTIVE_WARMUP_ROUNDS,
    BYZANTINE_SCALE,
    AdaptiveDeadline,
    FaultEvent,
    FaultPlan,
    FixedDeadline,
    byzantine_state,
    make_deadline_policy,
    make_fault_plan,
    state_is_corrupt,
)
from repro.data import partition_clients, synthetic_pacs
from repro.fl.net.serve import trace_dict
from repro.nn import build_mlp_model
from repro.nn.serialize import average_states

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)

#: The acceptance-criteria attack: a fifth of all (client, round) cells
#: upload a 100x-amplified poisoned update from the seeded schedule.
ATTACK = "byzantine=0.2:scale,seed=11"

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="platform has no POSIX shared memory"
)


def make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _model(rng_seed=0):
    return build_mlp_model(
        SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(rng_seed)
    )


def run_once(executor, strategy=None, rounds=3, aggregator=None, clients_per_round=4):
    """One run on ``executor`` (which carries the codec, faults, deadline
    and quorum); ``aggregator`` is installed on the strategy."""
    strategy = strategy or FedAvgStrategy(FAST)
    if aggregator is not None:
        strategy.aggregator = make_aggregator(aggregator)
    server = FederatedServer(
        strategy=strategy,
        clients=make_clients(),
        model=_model(),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=clients_per_round, seed=0,
            codec=executor.codec.spec,
        ),
        executor=executor,
    )
    return server.run()


def _trace(result):
    """The engine-invariant per-round trace (incl. drop map + accepted)."""
    return (
        [
            (r.round_index, r.mean_local_loss, tuple(r.participants),
             tuple(sorted(r.dropped.items())),
             None if r.accepted is None else tuple(r.accepted),
             tuple(sorted(r.eval_accuracy.items())))
            for r in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


def _vec_states(rows, dtype=np.float64):
    return [{"w": np.array(row, dtype=dtype)} for row in rows]


# -- the registry -------------------------------------------------------------


class TestRegistry:
    @pytest.mark.parametrize(
        "spec, expect",
        [
            ("mean", "mean"),
            ("median", "median"),
            ("trimmed_mean", "trimmed_mean(1)"),
            ("trimmed_mean(2)", "trimmed_mean(2)"),
            ("krum", "krum"),
            ("krum(1)", "krum(1)"),
            ("multi-krum", "multi-krum(2)"),
            ("multi-krum(3, 1)", "multi-krum(3, 1)"),
            ("clip(5)+median", "clip(5)+median"),
            ("clip(2.5)+krum", "clip(2.5)+krum"),
        ],
    )
    def test_spec_round_trips(self, spec, expect):
        built = make_aggregator(spec)
        assert built.spec == expect
        assert make_aggregator(built.spec).spec == expect

    def test_none_means_mean_and_passthrough(self):
        assert isinstance(make_aggregator(None), MeanAggregator)
        rule = MedianAggregator()
        assert make_aggregator(rule) is rule

    def test_robust_marking(self):
        assert not make_aggregator("mean").robust
        for spec in ("median", "trimmed_mean", "krum", "multi-krum"):
            assert make_aggregator(spec).robust
        assert not make_aggregator("clip(5)+mean").robust
        assert make_aggregator("clip(5)+median").robust

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            make_aggregator("meteor")

    def test_only_clip_may_prefix(self):
        with pytest.raises(ValueError, match="clip"):
            make_aggregator("median+krum")
        # The retired in-process tree: 'edge(G)+' is no longer a prefix.
        with pytest.raises(ValueError, match=r"only 'clip\(tau\)' may prefix"):
            make_aggregator("edge(2)+mean")

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_aggregator("trimmed_mean(x)")
        with pytest.raises(ValueError):
            make_aggregator("clip(-1)+median")
        with pytest.raises(ValueError):
            make_aggregator("clip()+median")
        with pytest.raises(TypeError):
            make_aggregator("")

    def test_custom_rule_registration(self):
        class FirstAggregator(Aggregator):
            name = "first"

            def reduce(self, states, weights, ref):
                self.last_rejected = tuple(range(1, len(states)))
                return dict(states[0])

        register_aggregator("first", lambda: FirstAggregator())
        try:
            built = make_aggregator("first")
            states = _vec_states([[1.0], [9.0]])
            assert built.aggregate(states, [1.0, 1.0])["w"][0] == 1.0
            assert built.last_rejected == (1,)
        finally:
            from repro.fl.aggregate import _AGGREGATORS

            _AGGREGATORS.pop("first", None)


# -- the rules themselves -----------------------------------------------------


class TestRules:
    def test_mean_is_bitwise_average_states(self):
        rng = np.random.default_rng(0)
        states = [
            {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=7)}
            for _ in range(5)
        ]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        ours = MeanAggregator().aggregate(states, weights)
        theirs = average_states(states, weights)
        for key in theirs:
            np.testing.assert_array_equal(ours[key], theirs[key])

    def test_median_survives_minority_outliers(self):
        # 2 of 5 adversarial: below the 1/2 breakdown point.
        states = _vec_states([[1.0], [2.0], [3.0], [1e6], [-1e6]])
        fused = MedianAggregator().aggregate(states, [1.0] * 5)
        assert fused["w"][0] == 2.0

    def test_mean_has_breakdown_point_zero(self):
        states = _vec_states([[1.0], [2.0], [3.0], [1e6]])
        fused = MeanAggregator().aggregate(states, [1.0] * 4)
        assert fused["w"][0] > 1e5  # one adversary steers it arbitrarily

    def test_trimmed_mean_drops_extremes(self):
        states = _vec_states([[1.0], [2.0], [3.0], [1e6], [-1e6]])
        fused = TrimmedMeanAggregator(k=1).aggregate(states, [1.0] * 5)
        assert fused["w"][0] == 2.0

    def test_trimmed_mean_k_clamped(self):
        # k=5 over 3 states clamps to 1 so something survives the trim.
        states = _vec_states([[0.0], [5.0], [100.0]])
        fused = TrimmedMeanAggregator(k=5).aggregate(states, [1.0] * 3)
        assert fused["w"][0] == 5.0

    def test_krum_selects_an_honest_upload(self):
        # 2 of 7 adversarial: krum's f<n/3 regime (7 >= 2*2+3).
        honest = [[1.0, 1.0], [1.1, 0.9], [0.9, 1.1], [1.0, 1.2], [1.2, 1.0]]
        attack = [[500.0, -500.0], [-500.0, 500.0]]
        states = _vec_states(honest + attack)
        rule = KrumAggregator(m=1, f=2)
        fused = rule.aggregate(states, [1.0] * 7)
        assert np.abs(fused["w"]).max() < 2.0
        assert set(rule.last_rejected) >= {5, 6}

    def test_multi_krum_rejects_the_attackers(self):
        honest = [[1.0], [1.1], [0.9], [1.05], [0.95]]
        attack = [[1e4], [-1e4]]
        rule = KrumAggregator(m=3, f=2)
        fused = rule.aggregate(_vec_states(honest + attack), [1.0] * 7)
        assert 0.8 < fused["w"][0] < 1.2
        assert {5, 6} <= set(rule.last_rejected)
        assert len(rule.last_rejected) == 4  # n - m

    def test_krum_few_uploads_keeps_all(self):
        rule = KrumAggregator(m=1)
        fused = rule.aggregate(_vec_states([[3.0]]), [1.0])
        assert fused["w"][0] == 3.0
        assert rule.last_rejected == ()

    def test_krum_tie_breaks_by_position(self):
        # Two identical clusters: scores tie, the earliest index wins.
        states = _vec_states([[1.0], [1.0], [1.0], [1.0]])
        rule = KrumAggregator(m=1, f=0)
        rule.aggregate(states, [1.0] * 4)
        assert rule.last_rejected == (1, 2, 3)

    def test_krum_returns_a_fresh_copy(self):
        states = _vec_states([[1.0], [1.0], [5.0]])
        fused = KrumAggregator(m=1, f=0).aggregate(states, [1.0] * 3)
        fused["w"][0] = -7.0
        assert states[0]["w"][0] == 1.0

    def test_clip_bounds_a_single_puller(self):
        ref = {"w": np.zeros(2)}
        states = _vec_states([[1.0, 0.0], [0.0, 1.0], [300.0, 400.0]])
        rule = ClipAggregator(5.0, MeanAggregator())
        fused = rule.aggregate(states, [1.0] * 3, ref=ref)
        # the 500-norm attack shrinks to norm 5: (3,4) after clipping
        np.testing.assert_allclose(fused["w"], [4.0 / 3.0, 5.0 / 3.0])
        assert rule.last_clipped == 1

    def test_clip_measures_delta_from_ref(self):
        ref = {"w": np.full(4, 10.0)}
        state = {"w": np.full(4, 10.0) + 1.0}  # delta norm 2 <= tau
        rule = ClipAggregator(5.0, MeanAggregator())
        fused = rule.aggregate([state], [1.0], ref=ref)
        np.testing.assert_array_equal(fused["w"], state["w"])
        assert rule.last_clipped == 0

    def test_clip_propagates_inner_rejections(self):
        honest = [[1.0], [1.1], [0.9], [1.05], [0.95]]
        rule = ClipAggregator(1e9, KrumAggregator(m=1, f=0))
        rule.aggregate(_vec_states(honest + [[1e4]]), [1.0] * 6)
        assert 5 in rule.last_rejected

    def test_reduce_vectors_matches_robustness(self):
        matrix = np.array([[1.0], [2.0], [1e6]])
        assert MedianAggregator().reduce_vectors(matrix)[0] == 2.0
        assert MeanAggregator().reduce_vectors(matrix)[0] > 1e5

    def test_non_float_tensors_pass_through_clip(self):
        state = {"w": np.full(3, 100.0), "step": np.array([7], dtype=np.int64)}
        rule = ClipAggregator(1.0, MeanAggregator())
        fused = rule.aggregate([state], [1.0])
        assert fused["step"][0] == 7


class TestPermutationInvariance:
    @staticmethod
    def _states_from(draw_values):
        return [{"w": np.array(row, dtype=np.float64)} for row in draw_values]

    @given(
        values=st.lists(
            st.lists(
                st.floats(-100.0, 100.0, allow_nan=False), min_size=3, max_size=3
            ),
            min_size=3,
            max_size=7,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    @pytest.mark.parametrize(
        "spec", ["mean", "median", "trimmed_mean(1)", "multi-krum(2, 1)"]
    )
    def test_rules_are_value_permutation_invariant(self, spec, values, seed):
        states = self._states_from(values)
        weights = [1.0] * len(states)
        order = np.random.default_rng(seed).permutation(len(states))
        rule = make_aggregator(spec)
        a = rule.aggregate(states, weights)
        b = rule.aggregate(
            [states[i] for i in order], [weights[i] for i in order]
        )
        # Not bitwise (fp addition is not associative) — value-equal.
        np.testing.assert_allclose(a["w"], b["w"], rtol=1e-9, atol=1e-9)


# -- byzantine fault injection ------------------------------------------------


class TestByzantineFaults:
    REF = {"w": np.linspace(-1.0, 1.0, 8, dtype=np.float64)}

    def _event(self, mode, payload_seed=3):
        return FaultEvent(
            "byzantine", 0, 0, mode=mode, payload_seed=payload_seed
        )

    def test_spec_parses(self):
        plan = make_fault_plan("byzantine=0.3:scale,screen=4,seed=5")
        assert plan.byzantine_rate == 0.3
        assert plan.byzantine_mode == "scale"
        assert plan.norm_screen == 4.0
        assert plan.seed == 5

    def test_default_mode_is_signflip(self):
        assert make_fault_plan("byzantine=0.5").byzantine_mode == "signflip"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            make_fault_plan("byzantine=0.5:meteor")

    def test_schedule_is_deterministic_with_payload_seeds(self):
        plan = make_fault_plan("byzantine=0.6:random,seed=9")
        events = [plan.fault_for(c, r) for c in range(10) for r in range(5)]
        again = [plan.fault_for(c, r) for c in range(10) for r in range(5)]
        assert events == again
        byz = [e for e in events if e is not None and e.kind == "byzantine"]
        assert byz, "rate 0.6 must hit somewhere in a 10x5 grid"
        assert len({e.payload_seed for e in byz}) > 1

    def test_signflip_reflects_the_update(self):
        state = {"w": self.REF["w"] + 0.25}
        attacked = byzantine_state(state, self.REF, self._event("signflip"))
        np.testing.assert_allclose(attacked["w"], self.REF["w"] - 0.25)

    def test_scale_amplifies_the_update(self):
        state = {"w": self.REF["w"] + 0.5}
        attacked = byzantine_state(state, self.REF, self._event("scale"))
        np.testing.assert_allclose(
            attacked["w"], self.REF["w"] + BYZANTINE_SCALE * 0.5
        )

    def test_random_is_finite_and_seed_dependent(self):
        state = {"w": self.REF["w"] + 0.1}
        a = byzantine_state(state, self.REF, self._event("random", 1))
        b = byzantine_state(state, self.REF, self._event("random", 1))
        c = byzantine_state(state, self.REF, self._event("random", 2))
        np.testing.assert_array_equal(a["w"], b["w"])
        assert not np.array_equal(a["w"], c["w"])
        assert np.isfinite(a["w"]).all()

    def test_attacks_pass_the_nan_screen(self):
        # Byzantine uploads must *reach* aggregation — that is the point.
        state = {"w": self.REF["w"] + 0.5}
        for mode in ("signflip", "scale", "random"):
            attacked = byzantine_state(state, self.REF, self._event(mode))
            assert not state_is_corrupt(attacked)

    def test_non_float_tensors_pass_through(self):
        state = {"w": self.REF["w"] + 1.0, "step": np.array([4], dtype=np.int64)}
        attacked = byzantine_state(state, self.REF, self._event("scale"))
        assert attacked["step"][0] == 4


class TestNormScreen:
    def test_magnitude_screen_rejects_blowups(self):
        ref = {"w": np.ones(4)}
        mild = {"w": np.ones(4) * 1.5}
        wild = {"w": np.ones(4) * 50.0}
        assert not state_is_corrupt(mild, ref=ref, norm_screen=4.0)
        assert state_is_corrupt(wild, ref=ref, norm_screen=4.0)
        # Off by default: no screen, no rejection.
        assert not state_is_corrupt(wild, ref=ref)
        assert not state_is_corrupt(wild)

    def test_screen_drops_scaled_attacks_in_a_run(self):
        # With the screen on, 100x-amplified uploads never reach
        # aggregation: they are dropped as "corrupt" like NaN uploads.
        executor = SerialExecutor(
            faults="byzantine=0.3:scale,screen=4,seed=11"
        )
        result = run_once(executor, rounds=3)
        reasons = {
            reason
            for record in result.history.records
            for reason in record.dropped.values()
        }
        assert reasons == {"corrupt"}


# -- round control: deadline policies, quorum, timeout ------------------------


class TestDeadlinePolicies:
    def test_fixed_policy_round_trips(self):
        policy = make_deadline_policy(2.0)
        assert policy == FixedDeadline(2.0)
        assert not policy.adaptive
        assert policy.resolve([]) == 2.0
        assert make_deadline_policy("1.5") == FixedDeadline(1.5)
        assert make_deadline_policy(policy) is policy
        assert make_deadline_policy(None) is None

    def test_fixed_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="deadline"):
            make_deadline_policy(0.0)
        with pytest.raises(ValueError, match="deadline"):
            make_deadline_policy("-3")

    def test_adaptive_spec_parses(self):
        policy = make_deadline_policy("percentile:p95")
        assert policy.adaptive
        assert policy.percentile == 95.0
        assert policy.spec == "percentile:p95"
        assert make_deadline_policy("percentile:p50").percentile == 50.0

    def test_bad_adaptive_specs_rejected(self):
        for bad in ("percentile", "percentile:95", "percentile:p0",
                    "percentile:p101", "meteor:p95"):
            with pytest.raises(ValueError):
                make_deadline_policy(bad)

    def test_adaptive_warms_up_then_tracks_the_percentile(self):
        policy = AdaptiveDeadline(percentile=50.0, window=4, slack=2.0)
        assert policy.resolve([]) is None
        assert policy.resolve([0.1] * (ADAPTIVE_WARMUP_ROUNDS - 1)) is None
        # Median of the last 4 of [9, 1, 1, 3, 3] = median(1,1,3,3) = 2.
        assert policy.resolve([9.0, 1.0, 1.0, 3.0, 3.0]) == pytest.approx(4.0)

    def test_executor_observes_only_under_adaptive_policies(self):
        fixed = SerialExecutor(deadline=5.0)
        fixed._observe_round_duration(0.5)
        assert len(fixed._round_durations) == 0
        adaptive = SerialExecutor(deadline="percentile:p95")
        adaptive._observe_round_duration(0.5)
        assert len(adaptive._round_durations) == 1

    def test_executor_keeps_the_whole_policy_window(self):
        """A window wider than any fixed history cap still sees its oldest
        round: the slow first round sets the 100th percentile."""
        policy = AdaptiveDeadline(percentile=100.0, window=40, slack=1.0)
        executor = SerialExecutor(deadline=policy)
        for seconds in [10.0] + [1.0] * 39:
            executor._observe_round_duration(seconds)
        assert executor._current_deadline() == 10.0
        executor._observe_round_duration(1.0)  # the slow round leaves the window
        assert executor._current_deadline() == 1.0

    def test_deadline_property_backcompat(self):
        assert SerialExecutor(deadline=2.0).deadline_policy == FixedDeadline(2.0)
        assert SerialExecutor(deadline="percentile:p95").deadline_policy.adaptive
        assert SerialExecutor().deadline_policy is None


class TestQuorum:
    def test_quorum_must_be_positive(self):
        with pytest.raises(ValueError, match="quorum"):
            SerialExecutor(quorum=0)

    def test_serial_quorum_truncates_in_sampling_order(self):
        executor = SerialExecutor(quorum=2)
        result = run_once(executor, rounds=2)
        for record in result.history.records:
            assert record.accepted is not None
            assert len(record.accepted) == 2
            # Serial's canonical arrival order is the sampling order.
            expected = [
                c for c in record.participants if c not in record.dropped
            ] + [c for c in record.participants if c in record.dropped]
            assert record.accepted == expected[:2]
            assert set(record.dropped.values()) == {"quorum"}
            assert len(record.dropped) == 2

    def test_quorum_early_close_reported(self):
        executor = SerialExecutor(quorum=2)
        result = run_once(executor, rounds=1)
        assert executor.last_round is result.history.records[0]
        assert executor.last_round.early_closed
        assert result.timing.early_closed_rounds == 1

    def test_timeout_error_names_the_quorum(self):
        error = RoundTimeoutError(3, [4, 5], quorum=5, accepted=(0, 1))
        assert error.quorum == 5
        assert error.accepted == (0, 1)
        assert "below quorum 5" in str(error)
        assert "accepted 2" in str(error)
        legacy = RoundTimeoutError(3, [4, 5])
        assert "quorum" not in str(legacy)

    def test_parallel_quorum_met_mid_batch_closes_cleanly(self, monkeypatch):
        """Regression: when one ``poll`` batch carries more answers than the
        quorum needs, the surplus tasks are already off the pool's books;
        closing the round must not trip over them."""
        import select
        import time

        executor = ParallelExecutor(num_workers=2, quorum=1)
        real_poll = executor.poll

        def poll_once_everything_finished(timeout):
            # Every lane with a task out has its upload readable first.
            lanes = {executor._agents[home].sock for home in executor._tasks.values()}
            while len(select.select(list(lanes), [], [])[0]) < len(lanes):
                time.sleep(0.01)
            return real_poll(timeout)

        monkeypatch.setattr(executor, "poll", poll_once_everything_finished)
        with executor:
            result = run_once(executor, rounds=2)
        for record in result.history.records:
            assert set(record.dropped.values()) == {"quorum"}

    def test_parallel_quorum_misses_raise(self):
        # Three of four clients hang past the deadline: one honest upload
        # arrives, which satisfies the legacy no-quorum contract ("some
        # update arrived, aggregate the survivors") but stays below
        # quorum 2 — and that must now raise, naming both numbers.
        from repro.fl import FaultPlan
        from repro.utils.rng import SeedTree

        clients = make_clients()[:4]
        plan = FaultPlan(
            events=tuple(
                FaultEvent("hang", 0, c.client_id, delay_seconds=5.0)
                for c in clients[1:]
            )
        )
        executor = ParallelExecutor(
            num_workers=2, faults=plan, deadline=0.75, quorum=2
        )
        tree = SeedTree(0).child("server", "test")
        seeds = [tree.seed("client", c.client_id, "round", 0) for c in clients]
        model = _model()
        try:
            with pytest.raises(RoundTimeoutError) as excinfo:
                executor.run_round(
                    FedAvgStrategy(FAST), model, model.state_dict(),
                    clients, 0, seeds,
                )
            assert excinfo.value.quorum == 2
            assert excinfo.value.accepted == (clients[0].client_id,)
            assert "below quorum 2" in str(excinfo.value)
        finally:
            executor.close()


# -- server threading ---------------------------------------------------------


class TestServerThreading:
    def test_config_validates_aggregator_spec(self):
        # A bad rule on the setting fails before anything is built or run.
        from repro.eval import ExperimentSetting, run_split_experiment

        with pytest.raises(ValueError, match="aggregator"):
            run_split_experiment(
                SUITE, {"train": [0, 1], "val": [2], "test": [3]},
                FedAvgStrategy(FAST), ExperimentSetting(aggregator="meteor"),
            )

    def test_config_accepts_adaptive_deadline(self):
        from repro.eval import ExperimentSetting

        ExperimentSetting(deadline="percentile:p95").make_executor()
        with pytest.raises(ValueError):
            ExperimentSetting(deadline="percentile:p0").make_executor()
        with pytest.raises(ValueError):
            ExperimentSetting(deadline=-1.0).make_executor()

    def test_server_installs_config_aggregator(self):
        # The rule is stated once, on the setting; run_split_experiment
        # installs it on the strategy and the server only reads it.
        from repro.eval import ExperimentSetting, run_split_experiment

        strategy = FedAvgStrategy(FAST)
        run_split_experiment(
            SUITE, {"train": [0, 1], "val": [2], "test": [3]}, strategy,
            ExperimentSetting(
                num_clients=4, clients_per_round=2, num_rounds=1,
                aggregator="median",
            ),
        )
        assert strategy.aggregator.spec == "median"

    def test_each_round_option_has_one_owner(self):
        """The engine closes the round, the strategy reduces it, the
        config is the loop: no option is stated on two of them."""
        import inspect

        from repro.fl.round import Executor
        from repro.fl.strategy import Strategy

        config_fields = {f.name for f in dataclasses.fields(FederatedConfig)}
        engine_options = set(inspect.signature(Executor.__init__).parameters)
        # ``codec`` is the one option still on both, with the one
        # agree-or-raise check left in FederatedServer.__init__, because
        # frozen benchmarks/perf/workloads.py passes it to both; ROADMAP
        # item 1b's `benchmark` PR empties this set.
        assert config_fields & engine_options == {"codec"}
        assert not {"aggregator", "topology"} & config_fields
        assert "aggregator" not in inspect.signature(Strategy.__init__).parameters

    def test_setting_routes_each_option_to_its_owner(self):
        from repro.eval import ExperimentSetting, run_split_experiment

        split = {"train": [0, 1], "val": [2], "test": [3]}
        setting = ExperimentSetting(
            num_clients=6, clients_per_round=4, num_rounds=3,
            aggregator="median", faults="dropout=0.2,seed=3", deadline=30.0,
        )

        def run(**engine):
            strategy = FedAvgStrategy(FAST)
            outcome = run_split_experiment(
                SUITE, split, strategy,
                dataclasses.replace(setting, **engine),
            )
            assert strategy.aggregator.spec == "median"
            return outcome.result

        serial, pooled = run(), run(workers=2)
        assert any(record.dropped for record in serial.history.records)
        assert _trace(serial) == _trace(pooled)
        for key in serial.final_state:
            np.testing.assert_array_equal(
                serial.final_state[key], pooled.final_state[key]
            )
        # Quorum on the serial engine only: a pool's quorum membership is
        # an arrival race (that is what set_replay is for).
        for record in run(quorum=2).history.records:
            assert len(record.accepted) <= 2

    def test_setting_without_a_rule_keeps_the_strategys_own(self):
        from repro.eval import ExperimentSetting, run_split_experiment

        strategy = FedAvgStrategy(FAST)
        strategy.aggregator = make_aggregator("krum")
        run_split_experiment(
            SUITE, {"train": [0, 1], "val": [2], "test": [3]}, strategy,
            ExperimentSetting(num_clients=4, clients_per_round=2, num_rounds=1),
        )
        assert strategy.aggregator.spec == "krum"

    def test_mean_without_quorum_records_no_accepted(self):
        # The PR 6 bit-identity guarantee: default runs carry records
        # identical to prior releases (accepted stays None).
        result = run_once(SerialExecutor(), rounds=2)
        assert all(r.accepted is None for r in result.history.records)

    def test_explicit_mean_is_bit_identical_to_default(self):
        base = run_once(SerialExecutor(), rounds=2)
        explicit = run_once(
            SerialExecutor(), rounds=2, aggregator="mean"
        )
        assert _trace(base) == _trace(explicit)

    def test_rejected_uploads_reach_the_timing_report(self):
        result = run_once(
            SerialExecutor(), rounds=2, aggregator="krum"
        )
        # krum keeps one of four uploads per round: 3 rejections x 2 rounds.
        assert result.timing.rejected_uploads == 6
        assert [r.rejected_uploads for r in result.history.records] == [3, 3]

    def test_a_round_that_aggregated_nothing_rejects_nothing(self):
        # Every client drops out of round 1, so krum never runs there; its
        # ``last_rejected`` still names round 0's three rejections, which
        # must not be counted a second time.
        plan = FaultPlan(
            events=tuple(FaultEvent("dropout", 1, cid) for cid in range(8))
        )
        result = run_once(SerialExecutor(faults=plan), rounds=2, aggregator="krum")
        assert [len(r.survivors) for r in result.history.records] == [4, 0]
        assert [r.rejected_uploads for r in result.history.records] == [3, 0]
        assert result.timing.rejected_uploads == 3

    def test_setting_threads_robustness_knobs(self):
        from repro.eval import ExperimentSetting

        setting = ExperimentSetting(
            aggregator="median", quorum=3, deadline="percentile:p90"
        )
        executor = setting.make_executor()
        assert executor.quorum == 3
        assert executor.deadline_policy == make_deadline_policy(
            "percentile:p90"
        )


class TestCLI:
    def test_robustness_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg",
             "--aggregator", "clip(5)+krum", "--quorum", "3",
             "--deadline", "percentile:p95"]
        )
        assert args.aggregator == "clip(5)+krum"
        assert args.quorum == 3
        assert args.deadline == "percentile:p95"

    def test_flags_default_to_historical_behaviour(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg"]
        )
        assert args.aggregator is None
        assert args.quorum is None

    def test_numeric_deadline_still_parses_as_seconds(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["lodo", "--suite", "pacs", "--method", "fedavg",
             "--deadline", "1.5"]
        )
        assert args.deadline == 1.5

    def test_bad_specs_are_usage_errors(self):
        from repro.cli import build_parser

        for flags in (["--aggregator", "meteor"], ["--quorum", "0"],
                      ["--deadline", "percentile:p0"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["lodo", "--suite", "pacs", "--method", "fedavg", *flags]
                )

    def test_lodo_unreachable_quorum_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["lodo", "--suite", "pacs", "--method", "fedavg",
                  "--participation", "2", "--quorum", "3"])
        assert exit_info.value.code == 2
        assert "--quorum 3 exceeds the 2 client(s)" in capsys.readouterr().err

    def test_timing_table_row_matches_header(self):
        from repro.cli import _TIMING_HEADER, _timing_row

        result = run_once(
            SerialExecutor(), rounds=1, aggregator="krum"
        )
        row = _timing_row("krum", result.timing)
        assert len(row) == len(_TIMING_HEADER)
        assert row[_TIMING_HEADER.index("rejected")] == "3"


# -- the acceptance pins ------------------------------------------------------


class TestByzantineRuns:
    def _accuracy(self, aggregator, faults=None):
        executor = SerialExecutor(faults=faults)
        result = run_once(executor, rounds=4, aggregator=aggregator)
        return result.final_accuracy["test"]

    def test_mean_diverges_where_median_and_krum_survive(self):
        # The acceptance pin: under byzantine=0.2 scaled-gradient attacks,
        # mean demonstrably diverges while the robust rules stay within
        # 2% of their own fault-free accuracy.
        for aggregator in ("median", "krum"):
            clean = self._accuracy(aggregator)
            attacked = self._accuracy(aggregator, faults=ATTACK)
            assert attacked >= clean - 0.02, (
                f"{aggregator} lost more than 2% under {ATTACK}"
            )
        clean_mean = self._accuracy("mean")
        attacked_mean = self._accuracy("mean", faults=ATTACK)
        assert attacked_mean < clean_mean - 0.10, (
            "mean should demonstrably diverge under the scaled attack"
        )

    def test_chaos_trace_is_engine_invariant_under_attack(self):
        faults = "dropout=0.1," + ATTACK
        serial = run_once(SerialExecutor(faults=faults), rounds=3,
                          aggregator="median")
        pipe = make_executor(workers=2, faults=faults, transport="pipe")
        try:
            parallel = run_once(pipe, rounds=3, aggregator="median")
        finally:
            pipe.close()
        assert _trace(serial) == _trace(parallel)

    @needs_shm
    def test_chaos_trace_matches_on_shm_too(self):
        faults = "dropout=0.1," + ATTACK
        serial = run_once(SerialExecutor(faults=faults), rounds=3,
                          aggregator="krum")
        shm = make_executor(workers=2, faults=faults, transport="shm")
        try:
            parallel = run_once(shm, rounds=3, aggregator="krum")
        finally:
            shm.close()
        assert _trace(serial) == _trace(parallel)

    def test_byzantine_rides_lossy_codecs(self):
        # The attack applies to the *decoded* upload before the codec's
        # lossy roundtrip on serial — same order as the worker path.
        faults = ATTACK
        serial = run_once(
            SerialExecutor(faults=faults, codec="fp16"), rounds=2,
            aggregator="median",
        )
        pipe = make_executor(
            workers=2, faults=faults, codec="fp16", transport="pipe"
        )
        try:
            parallel = run_once(pipe, rounds=2, aggregator="median")
        finally:
            pipe.close()
        assert _trace(serial) == _trace(parallel)


class TestReplay:
    def test_set_replay_requires_accepted_sets(self):
        result = run_once(SerialExecutor(), rounds=1)
        with pytest.raises(ValueError, match="accepted"):
            SerialExecutor().set_replay(result.history)

    def test_serial_quorum_replays_bit_identically(self):
        original = run_once(SerialExecutor(quorum=2), rounds=3)
        replayer = SerialExecutor()
        replayer.set_replay(original.history)
        replayed = run_once(replayer, rounds=3)
        assert _trace(replayed) == _trace(original)

    def test_parallel_quorum_replays_on_serial(self):
        # The wall-clock-dependent accepted set, replayed exactly on a
        # different engine: the cross-engine bit-identity guarantee
        # extended to racy membership.
        executor = ParallelExecutor(num_workers=2, quorum=2)
        try:
            original = run_once(executor, rounds=2)
        finally:
            executor.close()
        for record in original.history.records:
            assert record.accepted is not None
            assert len(record.accepted) >= 2
        replayer = SerialExecutor()
        replayer.set_replay(original.history)
        replayed = run_once(replayer, rounds=2)
        assert _trace(replayed) == _trace(original)

    def test_quorum_replay_reinjects_update_faults(self):
        faults = "byzantine=0.25:signflip,seed=13"
        original = run_once(SerialExecutor(faults=faults, quorum=3), rounds=3)
        replayer = SerialExecutor(faults=faults)
        replayer.set_replay(original.history)
        replayed = run_once(replayer, rounds=3)
        assert _trace(replayed) == _trace(original)

    def test_adaptive_deadline_run_records_and_replays(self):
        original = run_once(SerialExecutor(deadline="percentile:p95"), rounds=4)
        assert all(
            r.accepted is not None for r in original.history.records
        )
        replayer = SerialExecutor()
        replayer.set_replay(original.history)
        replayed = run_once(replayer, rounds=4)
        assert _trace(replayed) == _trace(original)

    def test_clear_replay_restores_live_control(self):
        result = run_once(SerialExecutor(quorum=2), rounds=1)
        executor = SerialExecutor()
        executor.set_replay(result.history)
        replayed = run_once(executor, rounds=1)
        assert replayed.history.records[0].accepted is not None
        executor.clear_replay()
        live = run_once(executor, rounds=1)
        assert live.history.records[0].accepted is None


class TestFPLPrototypeHook:
    def test_robust_rule_hardens_prototype_fusion(self):
        matrix = np.vstack(
            [np.ones((4, 3)), np.full((1, 3), 1e6)]
        )
        counts = np.ones(5)
        strategy = FPLStrategy(local_config=FAST)
        historical = strategy.fuse_class(matrix, counts)
        assert historical.max() > 1.0  # FINCH path, poisoned row leaks in
        strategy.aggregator = make_aggregator("median")
        hardened = strategy.fuse_class(matrix, counts)
        np.testing.assert_allclose(hardened, np.ones(3))

    def test_mean_rule_keeps_the_finch_path(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(6, 4))
        strategy = FPLStrategy(local_config=FAST)
        assert not strategy.aggregator.robust
        counts = np.ones(6)
        a = strategy.fuse_class(matrix, counts)
        b = strategy.fuse_class(matrix, counts)
        np.testing.assert_array_equal(a, b)
        # FINCH clusters the rows; the uploaded counts play no part.
        np.testing.assert_array_equal(
            a, strategy.fuse_class(matrix, np.arange(1.0, 7.0))
        )


# -- one aggregation path -----------------------------------------------------


def _digest(result):
    return hashlib.sha256(
        json.dumps(trace_dict(result), sort_keys=True).encode()
    ).hexdigest()[:16]


class _RoundCounting(SerialExecutor):
    rounds_run = 0

    def run_round(self, *args, **kwargs):
        self.rounds_run += 1
        return super().run_round(*args, **kwargs)


class TestOneAggregationPath:
    """Every rule and every strategy aggregates through one stream."""

    #: Traces from before the order statistics and the two server-side
    #: strategies streamed (4 rounds of 5 clients): folding at dispatch
    #: positions must not move a bit of them, on either engine.
    DIGESTS = {
        ("fedavg", "median"): "103c7a1a9963319e",
        ("fedavg", "trimmed_mean(1)"): "8f33fb2fb1833128",
        ("fedavg", "trimmed_mean(0)"): "71cfe2e3c252bb18",
        ("fedavg", "krum"): "5a6a9a7e6b035d23",
        ("fedavg", "multi-krum(2)"): "d185eb39676e2feb",
        ("fedavg", "clip(0.01)+krum"): "beb6ae8f5b77385a",
        ("fedavg", "clip(0.01)+median"): "45ff803d4fc64aa3",
        ("fedavg", "clip(0.01)+mean"): "cf6a5b35f708d051",
        ("fedavg", "mean"): "77f27ff2832bbc92",
        ("fedgma", "mean"): "9aebd25239210c26",
        ("feddg_ga", "mean"): "3e4a39ff074cdf62",
    }
    FACTORIES = {
        "fedavg": FedAvgStrategy,
        "fedgma": FedGMAStrategy,
        "feddg_ga": FedDGGAStrategy,
    }

    @pytest.mark.parametrize("engine", ["serial", "pool"])
    def test_rule_and_strategy_digests_are_pinned(self, engine):
        executor = (
            SerialExecutor() if engine == "serial" else ParallelExecutor(num_workers=2)
        )
        with executor:
            got = {
                (method, spec): _digest(
                    run_once(
                        executor, self.FACTORIES[method](local_config=FAST),
                        rounds=4, aggregator=spec, clients_per_round=5,
                    )
                )
                for method, spec in self.DIGESTS
            }
        assert got == self.DIGESTS

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_observes_or_refuses_the_rule(self, method):
        """``--aggregator median`` either moves a method's trace off
        ``mean``'s or is refused before the first round runs."""
        mean = _digest(
            run_once(
                SerialExecutor(), METHODS[method](local_config=FAST),
                rounds=2, aggregator="mean",
            )
        )
        executor = _RoundCounting()
        try:
            median = _digest(
                run_once(
                    executor, METHODS[method](local_config=FAST),
                    rounds=2, aggregator="median",
                )
            )
        except ValueError as exc:
            assert method in str(exc) and "'median'" in str(exc)
            assert executor.rounds_run == 0
        else:
            assert median != mean

    @pytest.mark.parametrize("command", ["run", "lodo", "serve"])
    def test_rule_the_method_refuses_is_a_usage_error(
        self, command, capsys, monkeypatch
    ):
        """An ``--aggregator`` rule the method cannot run under exits 2
        naming the rule, before any suite is built."""
        from repro import cli
        from repro.fl.net import serve

        def no_suite(seed):
            raise AssertionError("the suite was built")

        monkeypatch.setitem(cli.SUITES, "pacs", no_suite)
        split = ["--train-domains", "photo", "art_painting",
                 "--val-domain", "cartoon", "--test-domain", "sketch"]
        argv = ["--suite", "pacs", "--method", "fedgma", "--aggregator", "median"]
        with pytest.raises(SystemExit) as exit_info:
            if command == "serve":
                serve.main([*argv, *split])
            else:
                cli.main([command, *argv, *(split if command == "run" else [])])
        assert exit_info.value.code == 2
        assert "'median'" in capsys.readouterr().err

    def test_feddg_ga_folds_with_its_adjusted_weights(self):
        """FedDG-GA's weights reach any rule through ``upload_weight``,
        and move only after the round's folds."""
        strategy = FedDGGAStrategy(step_size=0.5, momentum=0.0, local_config=FAST)
        strategy.aggregator = make_aggregator("multi-krum(2)")
        clients = make_clients(3)
        strategy.client_weights = {clients[0].client_id: 3.0}
        global_state = {"w": np.zeros(2)}
        updates = [
            ClientUpdate.from_client(
                client, {"w": np.full(2, value)}, 0.0, payload={"gap": gap}
            )
            for client, value, gap in zip(clients, [1.0, 2.0, 9.0], [0.5, 2.5, 1.5])
        ]
        merged = strategy.aggregate(global_state, updates, 0)
        # multi-krum keeps the two nearest uploads, weighted 3 : 1.
        np.testing.assert_allclose(merged["w"], np.full(2, 1.25))
        assert strategy.client_weights[clients[0].client_id] == 2.5
