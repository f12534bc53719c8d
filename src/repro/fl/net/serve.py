"""Standalone federation server daemon.

``python -m repro.fl.net.serve --listen host:port --agents N ...`` binds
the agent listener, waits for ``N`` remote agents
(:mod:`repro.fl.net.agent`) to join, runs one federated DG experiment
across them with a :class:`repro.fl.net.executor.RemoteExecutor`, and
prints the outcome.  Every experiment knob mirrors ``python -m repro
run`` (same suites, methods, codecs, fault specs...), so a cross-machine
run is the in-host CLI command with ``run`` swapped for this module plus
a ``--listen`` — minus the in-host flags (``--workers``, ``--transport``,
``--max-resident``, ``--timing``): this daemon *is* the engine.

Operational extras:

``--port-file PATH``
    Write ``host port`` once the listener is bound — how scripted
    launches (the CI smoke, the tests) discover an ephemeral port.
``--trace-out PATH``
    Write the run's full trace (:func:`trace_dict`) as JSON: per-round
    losses/participants/evals/drops in exact hex floats plus a sha256
    over the final model state — enough to assert bit-identical runs
    across hosts without shipping weights.
``--check-serial``
    After the federated run, re-run the identical experiment in-process
    on :class:`repro.fl.executor.SerialExecutor` and fail (exit 1)
    unless the traces match bit-for-bit — the self-contained
    transport-invariance smoke the CI job runs.
"""

from __future__ import annotations

import argparse
import json
import hashlib
import sys

import numpy as np

from repro.fl.net.executor import RemoteExecutor

__all__ = ["main", "trace_dict"]


def trace_dict(result) -> dict:
    """A JSON-safe, bit-exact digest of one run's trace.

    Floats are serialized with ``float.hex()`` (lossless round-trip), the
    final state as a sha256 over the sorted parameter arrays — equal
    dicts mean bit-identical runs, across processes and hosts.
    """
    digest = hashlib.sha256()
    for key in sorted(result.final_state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(result.final_state[key]).tobytes())
    return {
        "rounds": [
            {
                "round": record.round_index,
                "loss": float(record.mean_local_loss).hex(),
                "participants": list(record.participants),
                "eval": {
                    name: float(value).hex()
                    for name, value in sorted(record.eval_accuracy.items())
                },
                "dropped": {
                    str(client_id): reason
                    for client_id, reason in sorted(record.dropped.items())
                },
            }
            for record in result.history.records
        ],
        "final_accuracy": {
            name: float(value).hex()
            for name, value in sorted(result.final_accuracy.items())
        },
        "state_sha256": digest.hexdigest(),
    }


def _build_parser() -> argparse.ArgumentParser:
    from repro.cli import (
        METHODS,
        SUITES,
        _add_experiment_flags,
        _add_split_flags,
        _positive_int,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.fl.net.serve",
        description="Serve one federated DG experiment to remote agents.",
    )
    _add_experiment_flags(parser)
    _add_split_flags(parser)
    parser.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="bind endpoint for agents (default: loopback, ephemeral port)",
    )
    parser.add_argument(
        "--agents", type=_positive_int, default=1,
        help="remote agents that must join before the run starts",
    )
    parser.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write 'host port' here once the listener is bound",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run trace (trace_dict JSON) here",
    )
    parser.add_argument(
        "--check-serial", action="store_true",
        help="after the run, replay it on the in-process serial engine and "
        "fail unless the traces are bit-identical",
    )
    parser.set_defaults(suite_registry=SUITES, method_registry=METHODS)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    from repro.cli import _setting_from_args, _split_from_args
    from repro.eval import run_split_experiment

    parser = _build_parser()
    args = parser.parse_args(argv)
    setting = _setting_from_args(args, parser.error)
    suite = args.suite_registry[args.suite](args.seed)
    split = _split_from_args(suite, args, parser.error)
    strategy_factory = args.method_registry[args.method]
    remote = RemoteExecutor(
        listen=args.listen,
        num_agents=args.agents,
        codec=setting.codec,
        faults=setting.faults,
        deadline=setting.deadline,
        quorum=setting.quorum,
    )
    host, port = remote.address
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
    print(f"serving on {host}:{port}; waiting for {args.agents} agent(s)")
    try:
        outcome = run_split_experiment(
            suite, split, strategy_factory(), setting, executor=remote
        )
    finally:
        remote.close()
    trace = trace_dict(outcome.result)
    overlap = outcome.result.timing.pipeline_overlap_seconds
    print(
        f"{args.method} on {args.suite}: "
        f"val={outcome.val_accuracy:.4f} test={outcome.test_accuracy:.4f} "
        f"overlap={overlap:.3f}s"
    )
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=2, sort_keys=True)
    if args.check_serial:
        reference = run_split_experiment(
            suite, split, strategy_factory(), setting
        )
        if trace_dict(reference.result) != trace:
            print(
                "TRACE MISMATCH: remote run diverged from the serial engine",
                file=sys.stderr,
            )
            return 1
        print("trace matches the serial engine bit-for-bit")
    return 0


if __name__ == "__main__":  # pragma: no cover - process entrypoint
    sys.exit(main())
