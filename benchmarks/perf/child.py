"""One measured run, inside the fresh process ``run.py`` starts for it.

``run.py`` pins the BLAS thread counts in this process's environment before
it starts, so numpy (and every pool worker and agent forked or spawned from
here) sees them at import.  The last line of standard output is one JSON
object; everything the program logs goes to standard error.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import logging
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

from repro.fl.history import RunHistory
from repro.fl.net.serve import trace_dict
from repro.fl.server import FederatedResult, FederatedServer
from repro.fl.transport import SHM_SEGMENT_PREFIX

import probes
from spans import (
    ExecutorProxy, Tracer, install_predict_span, self_times, tail_percentile,
    traced_population,
)
from spec import END_TO_END, TARGET_VAL_ACCURACY, TEARDOWN_WAIT_SECONDS, WORKLOADS
from workloads import Agents, build, make_engine

OUT_DIR = Path(__file__).resolve().parent / "out"


class _Session:
    """One built workload: experiment, engine, proxies, server."""

    def __init__(self, workload: str, seed: int, rounds: int,
                 tracer: "Tracer | None" = None,
                 capture_rounds: "tuple[int, ...]" = ()) -> None:
        self.started = time.perf_counter()
        self.workload = workload
        self.agents = Agents()
        self.experiment = build(workload, seed, rounds)
        self.engine = make_engine(workload, self.agents)
        exp = self.experiment
        clients = exp.clients
        after_first_round = None
        if tracer is not None:
            clients = traced_population(clients, tracer)
            after_first_round = lambda: install_predict_span(exp.model, tracer)
        self.proxy = ExecutorProxy(
            self.engine, tracer=tracer, capture_rounds=capture_rounds,
            after_first_round=after_first_round,
        )
        self.server = FederatedServer(
            exp.strategy, clients, exp.model, exp.eval_sets, exp.config,
            executor=self.proxy,
        )

    def close(self) -> list[str]:
        """Tear the engine down; returns one line per forced kill or leak."""
        failures = []
        self.engine.close()
        killed = self.agents.reap()
        if killed:
            failures.append(f"{killed} agent(s) killed after {TEARDOWN_WAIT_SECONDS:.0f}s")
        deadline = time.monotonic() + TEARDOWN_WAIT_SECONDS
        for process in multiprocessing.active_children():
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join()
                failures.append(f"pool worker {process.pid} killed after close")
        if self.workload == "pacs_shm":
            leaked = glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}*")
            if leaked:
                failures.append(f"{len(leaked)} leaked shm segment(s): {leaked[:3]}")
        return failures


def reference_mismatch(workload: str, seed: int, result, proxy) -> "str | None":
    """Re-run the first rounds on the plain serial engine with no wrapper
    in sight; the measured run's prefix must match bit for bit."""
    count = WORKLOADS[workload].check_rounds
    records = result.history.records[:count]
    if len(records) < count or count not in proxy.captured:
        return f"run ended before round {count}"
    reference_name = "xdev_lazy" if workload == "xdev_lazy" else "pacs_serial"
    exp = build(reference_name, seed, count)
    reference = FederatedServer(
        exp.strategy, exp.clients, exp.model, exp.eval_sets, exp.config
    ).run()
    prefix = FederatedResult(
        history=RunHistory(result.history.strategy_name, records),
        final_state=proxy.captured[count],
        timing=result.timing,
        final_accuracy=dict(records[-1].eval_accuracy),
    )
    if trace_dict(prefix) != trace_dict(reference):
        return f"first {count} rounds differ from the serial reference"
    return None


def _round_sums(tracer: Tracer, names: "tuple[str, ...]", rounds: int, field=None):
    """Per round: summed duration (or ``field``) of the named spans."""
    sums = [0.0] * rounds
    for span in tracer.spans:
        if span["name"] in names and 0 <= span["round"] < rounds:
            sums[span["round"]] += (
                span["end"] - span["start"] if field is None else span[field]
            )
    return sums


def span_layers(session: _Session, tracer: Tracer, result, rounds_to_target):
    """Per-layer metrics from spans and the run's public result fields.
    Per-round figures are medians over rounds >= 1 (round 0 is cold)."""
    proxy, timing, w = session.proxy, result.timing, WORKLOADS[session.workload]
    count = len(proxy.round_starts)
    warm = range(1, count)
    run_round = [e - s for s, e in zip(proxy.round_starts, proxy.round_ends)]
    uploads = proxy.round_uploads
    train_total = sum(uploads[r]["train_s"] for r in warm)
    trained = sum(uploads[r]["samples"] for r in warm) * session.experiment.local_epochs
    predict = _round_sums(tracer, ("fl.evaluation.predict",), count)
    images = _round_sums(tracer, ("fl.evaluation.predict",), count, field="count")
    population = _round_sums(
        tracer, ("fl.population.sample", "fl.population.release"), count
    )
    own = self_times(tracer.spans)
    round_self = {
        span["round"]: own[span["id"]]
        for span in tracer.spans if span["name"] == "round"
    }
    finalize = timing.aggregation_seconds_total / timing.rounds
    overlap = getattr(session.engine, "pipeline_overlap_rounds", None)
    predict_total = sum(predict[r] for r in warm)
    return {
        "nn.train_s": median(uploads[r]["train_s"] for r in warm),
        "nn.train_samples_per_s": trained / train_total,
        "fl.evaluation.eval_s": median(predict[r] for r in warm),
        "fl.evaluation.images_per_s": (
            sum(images[r] for r in warm) / predict_total if predict_total else 0.0
        ),
        "fl.executor.run_round_s": median(run_round[r] for r in warm),
        "fl.executor.busy_ratio": train_total / (
            sum(run_round[r] for r in warm) * w.lanes
        ),
        "fl.executor.first_round_extra_s": run_round[0] - median(
            run_round[r] for r in warm
        ),
        "fl.transport.decode_s": median(uploads[r]["decode_s"] for r in warm),
        "fl.transport.bytes_down": timing.bytes_down / timing.rounds,
        "fl.transport.unique_bytes_down": timing.unique_bytes_down / timing.rounds,
        "fl.transport.bytes_up": timing.bytes_up / timing.rounds,
        "fl.net.overlap_s": median(overlap[1:]) if overlap else 0.0,
        "fl.aggregate.finalize_s": finalize,
        "fl.population.sample_s": median(population[r] for r in warm),
        "core.prepare_s": timing.one_time_seconds,
        **session.experiment.phases,
        "fl.server.round_other_s": median(round_self[r] for r in warm) - finalize,
        # A workload without a target needs no rounds to reach it.
        "fl.server.rounds_to_target": rounds_to_target if w.has_target else 0,
        "fl.faults.dropped": sum(len(r.dropped) for r in result.history.records),
    }


def timing_metrics(session: _Session, run_end: float, end: float,
                   rounds_to_target: "int | None") -> "tuple[dict, dict]":
    """The end-to-end metrics read off the clock, and notes on the sample."""
    proxy = session.proxy
    starts = proxy.round_starts
    metrics = {
        "total_s": end - session.started,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"rounds": len(starts), "round_samples": max(0, len(starts) - 1)}
    if not starts:
        return metrics, info
    metrics["setup_s"] = starts[0] - session.started
    # Round r lasts from its run_round call to the next one (the last to
    # the end of the run); round 0 is cold and left out.
    edges = starts + [run_end]
    intervals = [edges[r + 1] - edges[r] for r in range(1, len(starts))]
    if intervals:
        metrics["round_s"] = median(intervals)
        metrics["round_p90_s"] = tail_percentile(intervals, 90)
    metrics["samples_per_s"] = (
        sum(proxy.round_samples) * session.experiment.local_epochs
        / (run_end - starts[0])
    )
    if rounds_to_target is not None:
        metrics["time_to_target_s"] = edges[rounds_to_target + 1] - session.started
    return metrics, info


def measure(workload: str, seed: int, rounds: int, traced: bool, check: bool) -> dict:
    w = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    session = _Session(workload, seed, rounds, tracer=tracer,
                       capture_rounds=(w.check_rounds,))
    failures: list[str] = []
    result = None
    try:
        result = session.server.run()
    except Exception as exc:  # a workload that raises still reports what it has
        traceback.print_exc()
        failures.append(f"round raised {type(exc).__name__}: {exc}")
    run_end = time.perf_counter()
    records = result.history.records if result is not None else []
    # ``None``: no target, or a miss, which is a failed check.
    rounds_to_target = None
    checks = 0
    if w.has_target and result is not None:
        checks += 1
        rounds_to_target = next(
            (r.round_index for r in records
             if r.eval_accuracy["val"] >= TARGET_VAL_ACCURACY), None,
        )
        if rounds_to_target is None:
            failures.append(
                f"val accuracy {TARGET_VAL_ACCURACY} not reached in {len(records)} round(s)"
            )
    layers = None
    if tracer is not None:
        tracer.end_rounds(run_end)
        if result is not None:
            # Before close: it reads the engine's public per-round lists.
            layers = span_layers(session, tracer, result, rounds_to_target)
    failures += session.close()
    clocked, info = timing_metrics(
        session, run_end, time.perf_counter(), rounds_to_target
    )
    metrics = dict.fromkeys(END_TO_END)
    metrics.update(clocked)
    digest = None
    if result is not None:
        timing = result.timing
        metrics["bytes_per_round"] = (timing.bytes_up + timing.bytes_down) / timing.rounds
        metrics["final_val_acc"] = result.final_accuracy["val"]
        digest = hashlib.sha256(
            json.dumps(trace_dict(result), sort_keys=True).encode()
        ).hexdigest()
        if check:
            checks += 1
            mismatch = reference_mismatch(workload, seed, result, session.proxy)
            if mismatch:
                failures.append(f"trace check: {mismatch}")
    # Operations: client tasks, rounds, checks.
    attempted = max(
        1, sum(len(r.participants) for r in records) + info["rounds"] + checks
    )
    failed = sum(len(r.dropped) for r in records) + len(failures)
    metrics["failed_share"] = failed / attempted
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace_{workload}.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "rounds": rounds,
                       "clock": "perf_counter seconds", "spans": tracer.spans}, handle)
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "traced": traced,
        "attempted": attempted, "failed": failed, "failures": failures,
        "trace_sha256": digest, "metrics": metrics, "layers": layers, "info": info,
    }


def fingerprint() -> dict:
    """The machine and library versions the numbers belong to."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).parent, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("run", "probes"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    logging.getLogger("repro").setLevel(logging.WARNING)
    if args.mode == "probes":
        report = {"layers": probes.run_all(args.seed)}
    else:
        report = measure(args.workload, args.seed, args.rounds, args.traced,
                         args.check)
    report["fingerprint"] = fingerprint()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
