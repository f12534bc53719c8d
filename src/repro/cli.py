"""Command-line interface: run a federated DG experiment from the shell.

Examples
--------
Run PARDON on synthetic PACS, training on photo+art, testing on sketch::

    python -m repro run --suite pacs --method pardon \
        --train-domains photo art_painting --val-domain cartoon \
        --test-domain sketch --rounds 20 --clients 12

Run the LODO protocol for a method across all held-out domains::

    python -m repro lodo --suite pacs --method ccst --rounds 15

List available suites and methods::

    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from typing import Callable, Sequence

from repro.baselines import (
    CCSTStrategy,
    FedAlignStrategy,
    FedAvgStrategy,
    FedCCRLStrategy,
    FedDGGAStrategy,
    FedGMAStrategy,
    FedSRStrategy,
    FPLStrategy,
)
from repro.baselines.mixstyle import MixStyleStrategy
from repro.core import PardonStrategy
from repro.data import (
    synthetic_domain_sweep,
    synthetic_iwildcam,
    synthetic_office_home,
    synthetic_pacs,
    synthetic_skew,
)
from repro.eval import (
    ExperimentSetting,
    check_split,
    run_lodo_protocol,
    run_split_experiment,
)
from repro.fl.aggregate import aggregator_specs, make_aggregator
from repro.fl.codec import codec_specs, make_codec
from repro.fl.faults import make_deadline_policy, make_fault_plan
from repro.fl.sampling import UniformClientSampler
from repro.fl.transport import make_transport, transport_usage
from repro.fl.strategy import Strategy
from repro.nn.objective import parse_objective_overrides
from repro.utils.tables import format_percent, format_table

__all__ = ["main", "METHODS", "SUITES"]

METHODS: dict[str, Callable[[], Strategy]] = {
    "fedavg": FedAvgStrategy,
    "fedsr": FedSRStrategy,
    "fedgma": FedGMAStrategy,
    "fpl": FPLStrategy,
    "feddg_ga": FedDGGAStrategy,
    "ccst": CCSTStrategy,
    "mixstyle": MixStyleStrategy,
    "pardon": PardonStrategy,
    "fedalign": FedAlignStrategy,
    "fedccrl": FedCCRLStrategy,
}

SUITES = {
    "pacs": lambda seed: synthetic_pacs(seed=seed, samples_per_class=40),
    "office_home": lambda seed: synthetic_office_home(seed=seed, samples_per_class=6),
    "iwildcam": lambda seed: synthetic_iwildcam(seed=seed),
    "domain_sweep": lambda seed: synthetic_domain_sweep(seed=seed),
    "skew": lambda seed: synthetic_skew(seed=seed),
}


def _setting_from_args(args: argparse.Namespace, usage_error) -> ExperimentSetting:
    """The experiment the flags name; a quorum no round could reach is a
    usage error."""
    if args.quorum is not None:
        round_size = UniformClientSampler(args.participation).round_size(
            args.clients
        )
        if args.quorum > round_size:
            usage_error(
                f"--quorum {args.quorum} exceeds the {round_size} client(s) "
                f"a round samples (--clients {args.clients} --participation "
                f"{args.participation}); no round could ever close"
            )
    # `serve` brings its own engine and has no in-host flags.
    engine = {
        name: getattr(args, name)
        for name in ("workers", "transport", "max_resident")
        if hasattr(args, name)
    }
    return ExperimentSetting(
        objective=args.objective,
        num_clients=args.clients,
        clients_per_round=args.participation,
        heterogeneity=args.heterogeneity,
        num_rounds=args.rounds,
        eval_every=max(args.rounds // 4, 1),
        seed=args.seed,
        codec=args.codec,
        faults=args.faults,
        deadline=args.deadline,
        aggregator=args.aggregator,
        quorum=args.quorum,
        **engine,
    )


def _participation(value: str) -> int | float:
    """``"3"`` is a client count, ``"0.25"`` a participation fraction.

    Validated at parse time so a bad value is a usage error, not a
    traceback from inside the experiment.
    """
    try:
        count = int(value)
    except ValueError:
        pass
    else:
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"a client count must be >= 1, got {value!r}"
            )
        return count
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not 0.0 < number <= 1.0:
        raise argparse.ArgumentTypeError(
            f"a fractional participation must be in (0, 1]; write an "
            f"integer for a client count, got {value!r}"
        )
    return number


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value!r}")
    return number


def _heterogeneity(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value!r}")
    return number


def _spec(make: Callable[[str], object]) -> Callable[[str], str]:
    """An argparse ``type`` for a spec string (a codec pipeline, a fault
    plan, an aggregation rule...): ``make`` builds it once at parse time
    and the result is discarded, so a typo is a usage error, not a mid-run
    traceback."""

    def check(value: str) -> str:
        try:
            make(value)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return check


def _deadline_spec(value: str) -> float | str:
    """``"1.5"`` is a fixed budget in seconds (returned as a float, as
    before adaptive policies existed); ``"percentile:p95"`` is an adaptive
    spec, passed through as a string."""
    try:
        seconds = float(value)
    except ValueError:
        return _spec(make_deadline_policy)(value)
    if seconds <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value!r}")
    return seconds


def _build_transport(value: str) -> None:
    """No transport binds a socket before its first publish, so building
    one validates any params suffix for free; ``auto`` (the default, so
    every serial run passes through here) has nothing to build and is left
    unprobed."""
    if value != "auto":
        make_transport(value)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """What defines the experiment, whichever engine runs it."""
    parser.add_argument("--suite", choices=sorted(SUITES), required=True)
    parser.add_argument(
        "--method", choices=sorted(METHODS), required=True,
        help="FedDG method (strategy) to run",
    )
    parser.add_argument(
        "--objective", type=_spec(parse_objective_overrides), default=None,
        help="reweight the method's composite objective, e.g. "
        "'proto_nce=0.7' or 'consistency=1,align=0.5'; valid term names "
        "are the ones the method's objective declares "
        "(see repro.nn.objective; checked when the strategy is built)",
    )
    parser.add_argument("--clients", type=_positive_int, default=20)
    parser.add_argument(
        "--participation", type=_participation, default=0.25,
        help="fraction (0,1] or integer count of clients per round",
    )
    parser.add_argument("--heterogeneity", type=_heterogeneity, default=0.1)
    parser.add_argument("--rounds", type=_positive_int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--codec", type=_spec(make_codec), default="identity",
        help="wire codec for weight payloads: one of "
        f"{', '.join(codec_specs())}, optionally '+deflate' (e.g. "
        "'fp16+deflate')",
    )
    parser.add_argument(
        "--faults", type=_spec(make_fault_plan), default=None,
        help="deterministic fault-injection plan, e.g. "
        "'dropout=0.1,straggler=0.25:0.05,corrupt=0.05,crash=2+5,seed=7' "
        "(see repro.fl.faults); faulty rounds aggregate over the survivors",
    )
    parser.add_argument(
        "--deadline", type=_deadline_spec, default=None,
        help="per-round wall-clock budget: seconds, or an adaptive spec "
        "like 'percentile:p95' (the p95 of recent round durations, with "
        "slack); when it expires the round closes with whatever updates "
        "arrived and stragglers are absorbed into the next round",
    )
    parser.add_argument(
        "--aggregator", type=_spec(make_aggregator), default=None,
        help="server-side aggregation rule: one of "
        f"{', '.join(aggregator_specs())}, optionally prefixed "
        "'clip(tau)+' (e.g. 'clip(5)+krum'); the default keeps the "
        "method's own rule ('mean', the historical weighted FedAvg); the "
        "others are Byzantine-robust (see repro.fl.aggregate)",
    )
    parser.add_argument(
        "--quorum", type=_positive_int, default=None,
        help="close each round as soon as this many uploads arrived; "
        "remaining participants are dropped as 'quorum' and the accepted "
        "set is recorded for exact replay",
    )


def _add_in_host_flags(parser: argparse.ArgumentParser) -> None:
    """The in-host run: its engine (serial unless a flag asks for the
    pool) and its timing report."""
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker-process count; implies the parallel engine",
    )
    parser.add_argument(
        "--transport", type=_spec(_build_transport), default="auto",
        help="wire transport for broadcast blobs: one of "
        f"{', '.join(transport_usage())}; 'pipe' copies the blob per "
        "worker, 'shm' publishes one shared-memory copy per round, "
        "'tcp[:host:port]' serves it from a loopback (or bound) blob "
        "server; 'auto' (default) prefers shm where the platform "
        "supports it",
    )
    parser.add_argument(
        "--max-resident", type=_positive_int, default=None,
        help="bound the parallel engine's resident-client LRU (server-side "
        "copies + upload reference chains) to this many clients; evicted "
        "clients re-register with a full frame when re-sampled; implies "
        "the parallel engine",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="also print the phase-timing and measured-wire-traffic report "
        "(starts tracemalloc, so the peak-memory column is populated)",
    )


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train-domains", nargs="+", required=True)
    parser.add_argument("--val-domain", required=True)
    parser.add_argument("--test-domain", required=True)


def _split_from_args(suite, args: argparse.Namespace, usage_error) -> dict:
    """The split the domain flags name; an unknown domain, or a held-out
    domain that is also trained on, is a usage error."""
    try:
        split = {
            "train": [suite.domain_index(name) for name in args.train_domains],
            "val": [suite.domain_index(args.val_domain)],
            "test": [suite.domain_index(args.test_domain)],
        }
        check_split(suite, split)
    except (KeyError, ValueError) as exc:
        usage_error(exc.args[0])
    return split


_TIMING_HEADER = [
    "run",
    "local train (s)",
    "local wall (s)",
    "speedup",
    "aggregation (s)",
    "one-time (s)",
    "wire up (KiB)",
    "wire down (KiB)",
    "unique down (KiB)",
    "bcast decode (s)",
    "overlap (s)",
    "dropped",
    "straggler (s)",
    "rebuilt",
    "rejected",
    "early close (s)",
    "peak mem (MiB)",
]


def _timing_row(name: str, timing) -> list[str]:
    """One report row; wire columns stay 0.0 for the in-process engine.

    "unique down" counts each broadcast blob once per round regardless of
    worker fan-out; "bcast decode" is worker decode time that overlapped
    the local phase; "overlap (s)" is pipelined cross-host time the
    remote engine hid behind the round's wall clock (0.0 for in-host
    engines); "dropped"/"straggler (s)"/"rebuilt" are the
    fault-tolerance counters — selected clients that produced no
    aggregated update, injected straggler slowdown absorbed, and worker
    slots rebuilt after crashes; "rejected"/"early close (s)" are the
    robustness counters — uploads the aggregation rule excluded and
    wall-clock saved by quorum early-closes; "peak mem (MiB)" is the
    tracemalloc peak the server sampled at round boundaries — 0.0 when
    tracing was off (see repro.fl.timing.TimingReport).
    """
    return [
        name,
        f"{timing.local_train_seconds_total:.2f}",
        f"{timing.local_train_wall_seconds_total:.2f}",
        f"{timing.local_train_speedup:.2f}",
        f"{timing.aggregation_seconds_total:.2f}",
        f"{timing.one_time_seconds:.2f}",
        f"{timing.bytes_up / 1024:.1f}",
        f"{timing.bytes_down / 1024:.1f}",
        f"{timing.unique_bytes_down / 1024:.1f}",
        f"{timing.broadcast_decode_seconds_total:.2f}",
        f"{timing.pipeline_overlap_seconds:.2f}",
        str(timing.dropped_clients),
        f"{timing.straggler_seconds:.2f}",
        str(timing.rebuilt_workers),
        str(timing.rejected_uploads),
        f"{timing.early_close_seconds:.2f}",
        f"{timing.peak_memory_bytes / (1024 * 1024):.1f}",
    ]


def _print_timing(rows: list[list[str]]) -> None:
    print(format_table(_TIMING_HEADER, rows, title="Timing & measured wire traffic"))


def _cmd_run(args: argparse.Namespace) -> int:
    setting = _setting_from_args(args, args.usage_error)
    suite = SUITES[args.suite](args.seed)
    split = _split_from_args(suite, args, args.usage_error)
    outcome = run_split_experiment(suite, split, METHODS[args.method](), setting)
    print(
        format_table(
            ["method", "train domains", "val acc", "test acc"],
            [[
                args.method,
                "+".join(args.train_domains),
                format_percent(outcome.val_accuracy),
                format_percent(outcome.test_accuracy),
            ]],
        )
    )
    if args.timing:
        _print_timing([_timing_row(args.method, outcome.result.timing)])
    return 0


def _cmd_lodo(args: argparse.Namespace) -> int:
    setting = _setting_from_args(args, args.usage_error)
    suite = SUITES[args.suite](args.seed)
    outcomes = run_lodo_protocol(suite, METHODS[args.method], setting)
    cells = [outcomes[d].test_accuracy for d in suite.domain_names]
    print(
        format_table(
            ["method"] + suite.domain_names + ["AVG"],
            [[args.method]
             + [format_percent(c) for c in cells]
             + [format_percent(sum(cells) / len(cells))]],
            title=f"LODO on {args.suite}",
        )
    )
    if args.timing:
        _print_timing(
            [
                _timing_row(f"holdout={domain}", outcomes[domain].result.timing)
                for domain in suite.domain_names
            ]
        )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("suites: ", ", ".join(sorted(SUITES)))
    print("methods:", ", ".join(sorted(METHODS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PARDON reproduction — federated domain generalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="single train/val/test split")
    _add_experiment_flags(run_parser)
    _add_in_host_flags(run_parser)
    _add_split_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run, usage_error=run_parser.error)

    lodo_parser = sub.add_parser("lodo", help="leave-one-domain-out protocol")
    _add_experiment_flags(lodo_parser)
    _add_in_host_flags(lodo_parser)
    lodo_parser.set_defaults(func=_cmd_lodo, usage_error=lodo_parser.error)

    list_parser = sub.add_parser("list", help="list suites and methods")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started_tracing = False
    if getattr(args, "timing", False) and not tracemalloc.is_tracing():
        # The server samples tracemalloc peaks at round boundaries only
        # while tracing is active; --timing opts in so the peak-memory
        # column reports real numbers without taxing untimed runs.
        tracemalloc.start()
        started_tracing = True
    try:
        return args.func(args)
    finally:
        if started_tracing:
            tracemalloc.stop()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
