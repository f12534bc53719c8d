"""``BENCH_trajectory.json`` (the committed per-PR perf history) stays in step
with ``BENCHMARK.json``, and ``benchmarks/trajectory.py`` writes rows it accepts."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
METRICS = {m["name"] for m in DECLARED["end_to_end"]}


def _tool():
    spec = importlib.util.spec_from_file_location(
        "trajectory", ROOT / "benchmarks" / "trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_row(row):
    assert set(row["workloads"]) == WORKLOADS
    for workload, metrics in row["workloads"].items():
        assert set(metrics) == METRICS, workload
        for name, cell in metrics.items():
            assert cell["runs"] >= 1, (workload, name)
            assert cell["q1"] <= cell["median"] <= cell["q3"], (workload, name)
    assert "git_sha" not in row["fingerprint"]


def test_committed_rows_name_the_declared_workloads_and_metrics():
    rows = json.loads((ROOT / "BENCH_trajectory.json").read_text(encoding="utf-8"))
    assert len(rows) >= 2
    for row in rows:
        _check_row(row)
    shas = [row["sha"] for row in rows]
    assert len(set(shas)) == len(shas)


def test_tool_builds_a_row_from_run_files(tmp_path):
    runs = [
        {"mode": mode, "workload": workload, "seed": seed,
         "metrics": {name: float(seed + 1) for name in METRICS} | {"final_val_acc": 0.9}}
        for workload in WORKLOADS for seed in range(5)
        for mode in ("end_to_end", "per_layer")
    ]
    out = tmp_path / "runs.json"
    out.write_text(json.dumps(
        {"fingerprint": {"nproc": 2, "git_sha": "abc"}, "runs": runs}
    ))
    row = _tool().build_row("abc", [str(out)])
    _check_row(row)
    cell = row["workloads"]["pacs_serial"]["setup_s"]
    assert (cell["median"], cell["runs"]) == (3.0, 5)
    assert row["sha"] == "abc" and row["seeds"] == [0, 1, 2, 3, 4]
