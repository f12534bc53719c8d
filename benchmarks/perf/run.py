"""The federation benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--trace 0|1|both] [--repeat N] [--out FILE]

Each measured run happens in a fresh child process (``child.py``) whose
environment pins BLAS to one thread before numpy is imported.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` measures the
per-layer metrics (an untraced and a traced run of half the length, whose
trace digests must agree, plus the probes); ``both`` (or a bare ``--trace``)
does one after the other.  Every run's length is fixed in ``spec.py``; the
driver's ``--seconds`` is accepted only when it names that length.  The last
line of standard output is one JSON object; the exit code is 0 only if
nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))

from spec import (  # noqa: E402 - needs the path above
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, gated_end_to_end,
)

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Wall-clock allowance for one measurement of one workload (all its child
#: processes together); the driver allows 180 s.
BUDGET_SECONDS = 170.0


class ChildFailed(RuntimeError):
    """A child process ended without a result."""


def run_child(arguments: list[str], deadline: float) -> dict:
    """Run ``child.py`` in its own session, so a timeout can take every
    pool worker and agent down with it; returns its JSON report."""
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED_THREADS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *arguments],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(f"child {' '.join(arguments)} timed out and was killed")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(
            f"child {' '.join(arguments)} exited {process.returncode} without a result"
        )
    return json.loads(lines[-1])


def _run_arguments(workload: str, seed: int, rounds: int, *flags: str) -> list[str]:
    return ["run", "--workload", workload, "--seed", str(seed),
            "--rounds", str(rounds), *flags]


def measure_end_to_end(workload: str, seed: int) -> dict:
    report = run_child(
        _run_arguments(workload, seed, WORKLOADS[workload].rounds, "--check"),
        time.monotonic() + BUDGET_SECONDS,
    )
    report["mode"] = "end_to_end"
    return report


def measure_layers(workload: str, seed: int) -> dict:
    """Untraced and traced runs of half the length (their digests must be
    equal, their ``round_s`` ratio is the tracing overhead), then probes."""
    deadline = time.monotonic() + BUDGET_SECONDS
    rounds = WORKLOADS[workload].layer_rounds
    plain = run_child(_run_arguments(workload, seed, rounds), deadline)
    traced = run_child(_run_arguments(workload, seed, rounds, "--traced"), deadline)
    probed = run_child(["probes", "--seed", str(seed)], deadline)
    mismatch = []
    if plain["trace_sha256"] is None or plain["trace_sha256"] != traced["trace_sha256"]:
        mismatch.append("trace check: traced and untraced digests differ")
    layers = dict(traced["layers"] or {})
    layers.update(probed["layers"])
    if plain["metrics"]["round_s"] and traced["metrics"]["round_s"]:
        layers["trace_overhead"] = (
            traced["metrics"]["round_s"] / plain["metrics"]["round_s"] - 1
        )
    return {
        "mode": "per_layer", "workload": workload, "seed": seed, "rounds": rounds,
        "attempted": plain["attempted"] + traced["attempted"] + 1,
        "failed": plain["failed"] + traced["failed"] + len(mismatch),
        "failures": plain["failures"] + traced["failures"] + mismatch,
        "trace_sha256": traced["trace_sha256"],
        "layers": layers, "fingerprint": traced["fingerprint"],
        "info": {**traced["info"], "round_s_untraced": plain["metrics"]["round_s"],
                 "round_s_traced": traced["metrics"]["round_s"]},
    }


def cross_check(reports: list[dict]) -> list[str]:
    """The three pacs workloads run the same arithmetic: within one set,
    equal rounds and seed must give equal trace digests."""
    problems = []
    groups: dict = {}
    for report in reports:
        if report["mode"] == "end_to_end" and report["workload"].startswith("pacs_"):
            key = (report["seed"], report["rounds"], report.get("repeat", 0))
            groups.setdefault(key, {})[report["workload"]] = report["trace_sha256"]
    for key, digests in groups.items():
        if len(set(digests.values())) > 1:
            problems.append(f"trace digests differ across {sorted(digests)} (seed, rounds, repeat = {key})")
    return problems


def print_table(report: dict) -> None:
    workload = report["workload"]
    if report["mode"] == "end_to_end":
        values = report["metrics"]
        units = {name: m.unit for name, m in END_TO_END.items()}
    else:
        values = report["layers"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:15s} {name:36s} {shown:>14s} {unit}")
    info = report["info"]
    notes = [f"rounds={report['rounds']}", f"round samples={info.get('round_samples')}"]
    if report["mode"] == "per_layer":
        notes.append(f"round_s untraced={info['round_s_untraced']:.6g} "
                     f"traced={info['round_s_traced']:.6g}")
    notes.append(f"attempted={report['attempted']} failed={report['failed']}")
    print(f"{workload:15s} # " + " ".join(notes))
    for failure in report["failures"]:
        print(f"{workload:15s} # FAILED: {failure}")


def summarize(reports: list[dict]) -> dict:
    """workload -> metric -> median / min / max over this call's runs."""
    samples: dict = {}
    for report in reports:
        values = report["metrics"] if report["mode"] == "end_to_end" else report["layers"]
        for name, value in values.items():
            if value is not None:
                samples.setdefault(report["workload"], {}).setdefault(name, []).append(value)
    return {
        workload: {
            name: {"median": statistics.median(values), "min": min(values),
                   "max": max(values), "runs": len(values)}
            for name, values in metrics.items()
        }
        for workload, metrics in samples.items()
    }


def contract_metrics(reports: list[dict]) -> dict:
    """The metrics object of the final line: the gated end-to-end metrics
    of an untraced run, every per-layer metric of a traced one."""
    metrics = {}
    for report in reports:
        if report["mode"] == "end_to_end":
            for m in gated_end_to_end():
                metrics[m.name] = {"value": report["metrics"][m.name], "unit": m.unit}
        else:
            for name, (unit, _) in PER_LAYER.items():
                metrics[name] = {"value": report["layers"].get(name), "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"the driver passes it; only {RUN_SECONDS} (the "
                             "fixed work's nominal length) is accepted")
    parser.add_argument("--trace", nargs="?", choices=("0", "1", "both"),
                        const="both", default="0")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole set this many times (interleaved)")
    parser.add_argument("--out", help="write every run of this call as JSON")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"the run length is fixed at {RUN_SECONDS} s of work "
                     "(spec.RUN_SECONDS, the rounds in spec.WORKLOADS)")
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program is not here ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    measures = {"0": (measure_end_to_end,), "1": (measure_layers,),
                "both": (measure_end_to_end, measure_layers)}[args.trace]
    reports: list[dict] = []
    crashed: list[str] = []
    for repeat in range(args.repeat):
        for workload in args.workload:
            for measure in measures:
                try:
                    report = measure(workload, args.seed)
                except ChildFailed as exc:
                    print(f"run.py: {exc}", file=sys.stderr)
                    crashed.append(str(exc))
                    continue
                report["repeat"] = repeat
                reports.append(report)
                print_table(report)
    problems = cross_check(reports)
    for problem in problems:
        print(f"# FAILED: {problem}")
    if args.out:
        # One fingerprint for the file; every child reported the same one.
        fingerprints = [report.pop("fingerprint") for report in reports]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "seed": args.seed,
                "fingerprint": fingerprints[0] if fingerprints else None,
                "summary": summarize(reports),
                "runs": reports,
            }, handle, indent=1)
    if crashed and not reports:
        return 2
    attempted = sum(r["attempted"] for r in reports) + len(problems) + len(crashed)
    failed = sum(r["failed"] for r in reports) + len(problems) + len(crashed)
    checks_passed = not problems and not crashed and not any(
        failure.startswith("trace check") for r in reports for failure in r["failures"]
    )
    summary = {"correct": checks_passed, "attempted": attempted, "failed": failed}
    if len(args.workload) == 1 and args.repeat == 1:
        summary["metrics"] = contract_metrics(reports)
    else:
        summary["metrics"] = {}
        summary["runs"] = len(reports)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
