"""Fast checks of the benchmark harness itself (no measured runs)."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
from repro.fl.population import ClientPopulation, LazyPopulation  # noqa: E402


@pytest.mark.parametrize("count, supported", [(99, False), (100, True), (103, True)])
def test_p90_needs_ten_samples_beyond(count, supported):
    values = [float(i) for i in range(1, count + 1)]
    expected = spans.percentile(values, 90) if supported else None
    assert spans.tail_percentile(values, 90) == expected
    if supported:
        assert sum(v > expected for v in values) >= spans.MIN_SAMPLES_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(100, 0, -1)]
    assert spans.percentile(values, 50) == 50.0
    assert spans.percentile(values, 90) == 90.0
    assert spans.percentile([3.0], 90) == 3.0


def test_every_workload_runs_long_enough_for_its_p90():
    for workload in spec.WORKLOADS.values():
        intervals = [0.0] * (workload.rounds - 1)  # rounds >= 1
        assert spans.tail_percentile(intervals, 90) is not None, workload.name
        assert workload.check_rounds < workload.layer_rounds <= workload.rounds


def _span(span_id, name, start, end, parent=None, round_id=0):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "round": round_id}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "round", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),      # overlaps a
        _span(3, "c", 7.0, 12.0, parent=0),     # clipped to the parent
        _span(4, "inner", 1.5, 2.5, parent=1),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_parents_spans_under_the_open_round():
    tracer = spans.Tracer()
    with tracer.span("before"):
        pass
    tracer.begin_round(0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.begin_round(1)
    with tracer.span("later"):
        pass
    tracer.end_rounds()
    by_name = {span["name"]: span for span in tracer.spans}
    rounds = [span for span in tracer.spans if span["name"] == "round"]
    assert by_name["before"]["parent"] is None and by_name["before"]["round"] == -1
    assert by_name["outer"]["parent"] == rounds[0]["id"]
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["later"]["parent"] == rounds[1]["id"] and by_name["later"]["round"] == 1
    assert rounds[0]["end"] == rounds[1]["start"]
    assert all(span["end"] is not None for span in tracer.spans)


def test_names_units_and_bounds_are_well_formed():
    names = list(spec.WORKLOADS) + list(spec.END_TO_END) + list(spec.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_PATTERN.fullmatch(name), name
    assert len(spec.WORKLOADS) == 4 and len(spec.END_TO_END) == 10
    assert len(spec.PER_LAYER) <= 128
    for metric in spec.END_TO_END.values():
        assert metric.better in ("lower", "higher")
        assert 0 <= metric.bound <= 0.25
        assert metric.gate is None or metric.bound <= metric.gate <= 0.25
    assert set(spec.SEED_BOUND) <= set(spec.END_TO_END)
    gates = {m.name: m.gate for m in spec.gated_end_to_end()}
    assert gates["setup_s"] == max(gates.values())
    assert not set(gates) & set(spec.SEED_BOUND)
    for workload in spec.WORKLOADS.values():
        assert len(workload.why) <= 200 and "\n" not in workload.why


def test_benchmark_json_repeats_the_spec():
    document = json.loads((PERF.parents[1] / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/perf"]
    assert document["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.gate}
        for m in spec.gated_end_to_end()
    ]
    assert document["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in spec.PER_LAYER.items()
    ]
    assert document["run_seconds"] == spec.RUN_SECONDS


#: Everything FederatedServer reads off the engine it is handed.
ENGINE_ATTRIBUTES = (
    "codec", "fault_plan", "deadline_policy", "quorum", "compute",
    "last_overlap_seconds", "last_fault_report", "records_accepted",
    "wire_stats", "close", "pipeline_overlap_rounds",
)


def _fake_engine(updates):
    calls = []

    def run_round(strategy, model, global_state, participants, round_index,
                  seeds, stream=None):
        calls.append((round_index, stream))
        return updates

    engine = SimpleNamespace(
        **{name: object() for name in ENGINE_ATTRIBUTES}, run_round=run_round
    )
    return engine, calls


def test_executor_proxy_forwards_and_times():
    updates = [SimpleNamespace(train_seconds=0.25, decode_seconds=0.5, num_samples=7)]
    engine, calls = _fake_engine(updates)
    installed = []
    tracer = spans.Tracer()
    proxy = spans.ExecutorProxy(
        engine, tracer=tracer, capture_rounds=(1,),
        after_first_round=lambda: installed.append(True),
    )
    for name in ENGINE_ATTRIBUTES:
        assert getattr(proxy, name) is getattr(engine, name)
    participants = [SimpleNamespace(num_samples=3), SimpleNamespace(num_samples=4)]
    state = {"w": np.ones(2)}
    for round_index in range(2):
        assert proxy.run_round(
            "s", "m", state, participants, round_index, [1, 2], stream="x"
        ) is updates
    tracer.end_rounds()
    assert calls == [(0, "x"), (1, "x")]
    assert installed == [True]
    assert proxy.round_samples == [7, 7]
    assert len(proxy.round_starts) == len(proxy.round_ends) == 2
    assert proxy.round_uploads[0] == {"train_s": 0.25, "decode_s": 0.5, "samples": 7}
    assert list(proxy.captured) == [1] and proxy.captured[1]["w"] is not state["w"]
    names = [span["name"] for span in tracer.spans]
    assert names.count("round") == 2 and names.count("fl.executor.run_round") == 2


def test_traced_list_population_is_a_list_population():
    from repro.fl.population import ListPopulation

    clients = [SimpleNamespace(client_id=i, num_samples=1) for i in range(4)]
    tracer = spans.Tracer()
    population = spans.traced_population(clients, tracer)
    assert isinstance(population, ListPopulation) and population.clients == clients
    sampler = SimpleNamespace(sample=lambda pool, rng: pool[:2])
    assert population.sample(sampler, None) == clients[:2]
    population.release(clients[:2])
    assert [span["name"] for span in tracer.spans] == [
        "fl.population.sample", "fl.population.release",
    ]


def test_population_proxy_forwards_and_spans():
    inner = LazyPopulation(5, lambda client_id: None)
    released = []
    inner.sample = lambda sampler, rng: ["c"]
    inner.release = released.append
    tracer = spans.Tracer()
    proxy = spans.traced_population(inner, tracer)
    assert isinstance(proxy, ClientPopulation)
    assert len(proxy) == 5 and proxy.size == 5 and proxy.factory is inner.factory
    assert proxy.sample("sampler", "rng") == ["c"]
    proxy.release(["c"])
    assert released == [["c"]]
    assert [span["name"] for span in tracer.spans] == [
        "fl.population.sample", "fl.population.release",
    ]


def test_compare_verdicts():
    lower = spec.END_TO_END["round_s"]  # 8 % bound, lower is better
    assert compare.verdict(lower, [1.0], [1.05])["verdict"] == "ok"
    assert compare.verdict(lower, [1.0], [1.2])["verdict"] == "regressed"
    assert compare.verdict(lower, [1.0], [0.5])["verdict"] == "ok"
    # Wide, interleaved runs cannot resolve a bound this tight.
    noisy = compare.verdict(lower, [1.0, 1.3, 0.9], [1.25, 0.95, 1.1])
    assert noisy["verdict"] == "unresolved"
    # ... unless every new run is beyond every base run.
    assert compare.verdict(lower, [1.0, 1.3, 0.9], [2.0, 2.4, 1.9])["verdict"] == "regressed"
    higher = spec.END_TO_END["samples_per_s"]
    assert compare.verdict(higher, [100.0], [80.0])["verdict"] == "regressed"
    assert compare.verdict(higher, [100.0], [120.0])["verdict"] == "ok"
    failures = spec.END_TO_END["failed_share"]
    assert compare.verdict(failures, [0.0], [0.0])["verdict"] == "ok"
    assert compare.verdict(failures, [0.0], [0.01])["verdict"] == "regressed"
    wire = spec.END_TO_END["bytes_per_round"]
    assert compare.verdict(wire, [0.0], [0.0])["verdict"] == "ok"
    assert compare.verdict(wire, [0.0], [5.0])["verdict"] == "regressed"


def _file(rounds=104, **metrics):
    values = {"round_s": [1.0], "time_to_target_s": [9.0], **metrics}
    return {"pacs_serial": {"seeds": {0}, "rounds": {rounds}, "runs": 1, "values": values}}


def test_compare_refuses_different_run_lengths():
    lines, bad = compare.compare(_file(rounds=120), _file(rounds=104))
    assert bad and "refused" in lines[1] and len(lines) == 2
    assert not compare.compare(_file(), _file())[1]


def test_compare_counts_a_lost_metric_as_regressed():
    lines, bad = compare.compare(_file(), _file(time_to_target_s=[]))
    assert bad
    assert [line for line in lines if "time_to_target_s" in line][0].endswith("regressed")
    # The other way round there is nothing to hold the new file to.
    assert not compare.compare(_file(time_to_target_s=[]), _file())[1]
