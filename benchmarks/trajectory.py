"""Append one row to ``BENCH_trajectory.json`` from ``run.py --out`` files.

    python3 benchmarks/trajectory.py --sha SHA RUNS.json [RUNS.json ...]

One row per measured tree, one line per row: the sha, the box's fingerprint,
and for every workload and gated end-to-end metric ``BENCHMARK.json`` names,
the median, quartiles and count of the files' untraced runs (below four runs
the whole range stands in for the quartiles, as in ``perf/compare.py``).
Append-only: a sha already in the file is refused.  A tree measured before it
is committed goes in as ``<parent sha>+<label>``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_trajectory.json"


def build_row(sha: str, paths: list) -> dict:
    """One row from the untraced runs of the ``run.py --out`` files at ``paths``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    documents = [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]
    runs = [r for d in documents for r in d["runs"] if r["mode"] == "end_to_end"]
    fingerprint = {k: v for k, v in documents[0]["fingerprint"].items() if k != "git_sha"}
    workloads: dict = {}
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in (m["name"] for m in declared["end_to_end"]):
            values = [r["metrics"][metric] for r in runs
                      if r["workload"] == workload and r["metrics"].get(metric) is not None]
            if not values:
                continue
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) >= 4
                         else (min(values), None, max(values)))
            workloads.setdefault(workload, {})[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}
    return {"sha": sha, "fingerprint": fingerprint,
            "seeds": sorted({r["seed"] for r in runs}), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sha", required=True)
    parser.add_argument("runs", nargs="+", help="files written by run.py --out")
    args = parser.parse_args(argv)
    rows = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
    if any(row["sha"] == args.sha for row in rows):
        parser.error(f"{TRAJECTORY.name} already has a row for {args.sha}")
    rows.append(build_row(args.sha, args.runs))
    TRAJECTORY.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
