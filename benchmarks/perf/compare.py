"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): both medians, the ratio with its
base, how much worse NEW is in the metric's own direction, the bound, the
run-to-run spread, and a verdict:

``ok``          NEW's median is no worse than BASE's by more than the bound.
``regressed``   it is worse by more than the bound.
``unresolved``  the spread between runs of one side is wider than the bound
                and the two sides' runs interleave, so the files cannot tell.

A metric BASE measured and NEW could not (a target that is no longer reached)
is ``regressed``.  Metrics that depend on the seed's learning curve or on the
workload having a wire (``SEED_BOUND`` in ``spec.py``) are compared only when
both files ran the workload on the same seeds.  A workload whose runs differ
in length between the files is refused: the benchmark was edited in between,
and totals, tails and per-round averages of different lengths do not compare.
The exit code is 1 if any row regressed, a workload was refused or is missing,
or NEW's ``failed_share`` is higher.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import END_TO_END, SEED_BOUND, EndToEnd  # noqa: E402 - needs the path above


def load(path: str) -> dict:
    """workload -> {"seeds": set, "rounds": set, "runs": count,
    "values": {metric: [value, ...]}} of the end-to-end runs; a metric a run
    could not measure is left out of its list."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    workloads: dict = {}
    for run in document["runs"]:
        if run.get("mode") != "end_to_end":
            continue
        entry = workloads.setdefault(
            run["workload"], {"seeds": set(), "rounds": set(), "runs": 0, "values": {}}
        )
        entry["runs"] += 1
        entry["seeds"].add(run["seed"])
        entry["rounds"].add(run["rounds"])
        for name, value in run["metrics"].items():
            if value is not None:
                entry["values"].setdefault(name, []).append(value)
    return workloads


def spread(values: list[float]) -> float:
    """Distance between the quartiles (the whole range below four runs)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return max(values) - min(values)
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def verdict(metric: EndToEnd, base: list[float], new: list[float]) -> dict:
    """Apply one metric's bound to two sides' runs."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse = new_median - base_median if metric.better == "lower" else base_median - new_median
    run_spread = max(spread(base), spread(new))
    if not metric.absolute:
        if base_median:
            worse /= abs(base_median)
            run_spread /= abs(base_median)
        else:
            # Nothing to take a share of: equal is ok, any change is total.
            worse = math.copysign(math.inf, worse) if worse else 0.0
            run_spread = 0.0
    interleave = min(new) <= max(base) and min(base) <= max(new)
    if run_spread > metric.bound and interleave and (len(base) > 1 or len(new) > 1):
        outcome = "unresolved"
    elif worse > metric.bound:
        outcome = "regressed"
    else:
        outcome = "ok"
    return {"base": base_median, "new": new_median, "worse": worse,
            "spread": run_spread, "verdict": outcome}


def compare(base: dict, new: dict) -> "tuple[list[str], bool]":
    lines = [
        f"{'workload':15s} {'metric':17s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'worse by':>9s} {'bound':>7s} {'spread':>7s}  verdict"
    ]
    bad = False
    for workload in base:
        if workload not in new:
            lines.append(f"{workload:15s} missing from the new file")
            bad = True
            continue
        if base[workload]["rounds"] != new[workload]["rounds"]:
            lines.append(
                f"{workload:15s} refused: run lengths differ (rounds "
                f"{sorted(base[workload]['rounds'])} vs {sorted(new[workload]['rounds'])})"
            )
            bad = True
            continue
        same_seeds = base[workload]["seeds"] == new[workload]["seeds"]
        for metric in END_TO_END.values():
            a = base[workload]["values"].get(metric.name)
            b = new[workload]["values"].get(metric.name, [])
            if not a:
                lines.append(f"{workload:15s} {metric.name:17s} n/a (not measured in the base file)")
                continue
            if metric.name in SEED_BOUND and not same_seeds:
                lines.append(f"{workload:15s} {metric.name:17s} n/a (seeds differ)")
                continue
            base_runs, new_runs = base[workload]["runs"], new[workload]["runs"]
            if len(b) * base_runs < len(a) * new_runs:
                lines.append(
                    f"{workload:15s} {metric.name:17s} measured in {len(a)} of "
                    f"{base_runs} base run(s), {len(b)} of {new_runs} new  regressed"
                )
                bad = True
                continue
            row = verdict(metric, a, b)
            ratio = f"{row['new'] / row['base']:.4f}" if row["base"] else "n/a"
            unit = "" if metric.absolute else "%"
            scale = 1 if metric.absolute else 100
            lines.append(
                f"{workload:15s} {metric.name:17s} {row['base']:12.6g} {row['new']:12.6g} "
                f"{ratio:>9s} {row['worse'] * scale:+8.2f}{unit} "
                f"{metric.bound * scale:6.2f}{unit} {row['spread'] * scale:6.2f}{unit}  "
                f"{row['verdict']}"
            )
            if row["verdict"] == "regressed":
                bad = True
            if metric.name == "failed_share" and row["new"] > row["base"]:
                bad = True
    return lines, bad


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, bad = compare(load(arguments[0]), load(arguments[1]))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
