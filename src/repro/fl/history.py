"""Round-by-round run records: the one place a round's facts are kept.

The round driver (:meth:`repro.fl.round.Executor.run_round`) builds each
:class:`RoundRecord` — membership, drop reasons, summed upload timings,
wall clock, wire bytes — and the server adds what only it measures
(aggregation time, rejected uploads, the ``tracemalloc`` peak) and the
evaluation scores.  Convergence curves, final accuracies and the run's
:class:`repro.fl.timing.TimingReport` are all read off the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RoundRecord", "RunHistory"]


@dataclass
class RoundRecord:
    """Everything one communication round did.

    ``participants`` is who the sampler *selected*; ``dropped`` maps the
    selected clients that produced no aggregated update to the reason the
    fault layer recorded (``"dropout"``, ``"straggler"``, ``"deadline"``,
    ``"corrupt"``, ``"crash"``, ``"quorum"`` — see :mod:`repro.fl.faults`).
    Aggregation reweighted over the survivors: ``participants`` minus
    ``dropped``.

    ``accepted`` is recorded only when round membership depended on wall
    clock (quorum early-close, adaptive deadlines) or on a replay: the
    exact client ids whose updates reached aggregation, in aggregation
    order.  Feeding a history carrying it to
    :meth:`repro.fl.round.Executor.set_replay` reproduces the run
    bit-identically even though the original arrival race does not.
    ``None`` (the default) keeps records from deterministic runs identical
    to prior releases.

    The remaining fields are the round's costs.  Wall-clock readings are
    excluded from ``==``, so two bit-identical runs produce equal records.
    """

    round_index: int
    mean_local_loss: float
    participants: list[int]
    eval_accuracy: dict[str, float] = field(default_factory=dict)
    dropped: dict[int, str] = field(default_factory=dict)
    accepted: list[int] | None = None
    #: Worker-measured compute of the accepted updates, summed.
    train_seconds: float = field(default=0.0, compare=False)
    #: Worker-measured lazy broadcast decodes, summed — work that ran
    #: inside the local phase instead of behind a pre-round barrier.
    decode_seconds: float = field(default=0.0, compare=False)
    #: Elapsed server-side time of the round's local phase.
    wall_seconds: float = field(default=0.0, compare=False)
    #: Cross-host broadcast/train/upload overlap (pipelined remote rounds
    #: only): endpoint busy time that ran concurrently with other hosts'.
    overlap_seconds: float = field(default=0.0, compare=False)
    #: Injected straggler slowdown — plan-derived, so cooperatively skipped
    #: stragglers count too.
    straggler_seconds: float = 0.0
    #: Worker-pool slots rebuilt after a crash.
    rebuilt_workers: int = 0
    #: Whether a quorum closed the round before every upload arrived, and
    #: the wall clock that saved against the round's deadline.
    early_closed: bool = False
    early_close_seconds: float = field(default=0.0, compare=False)
    #: Bytes the engine moved across its process boundary this round
    #: (see :class:`repro.fl.wire.WireStats`); zero in-process.
    bytes_up: int = 0
    bytes_down: int = 0
    unique_bytes_down: int = 0
    #: Server-side: the aggregation step's wall clock, ...
    aggregation_seconds: float = field(default=0.0, compare=False)
    #: ... uploads the aggregation rule excluded (krum's non-selected
    #: peers), ...
    rejected_uploads: int = 0
    #: ... and the ``tracemalloc`` peak at the round's end (0: tracing off).
    peak_memory_bytes: int = field(default=0, compare=False)

    @property
    def survivors(self) -> list[int]:
        """The selected clients whose updates reached aggregation."""
        return [cid for cid in self.participants if cid not in self.dropped]


@dataclass
class RunHistory:
    """The full trace of a federated run, one record per round."""

    strategy_name: str
    records: list[RoundRecord] = field(default_factory=list)

    def add(self, record: RoundRecord) -> None:
        self.records.append(record)

    def accuracy_series(self, eval_name: str) -> list[tuple[int, float]]:
        """(round, accuracy) points for one evaluation set (paper Fig. 3)."""
        return [
            (r.round_index, r.eval_accuracy[eval_name])
            for r in self.records
            if eval_name in r.eval_accuracy
        ]

    def final_accuracy(self, eval_name: str) -> float:
        """Accuracy of the last round that evaluated ``eval_name``."""
        series = self.accuracy_series(eval_name)
        if not series:
            raise KeyError(f"no evaluations recorded for {eval_name!r}")
        return series[-1][1]

    def loss_series(self) -> list[tuple[int, float]]:
        return [(r.round_index, r.mean_local_loss) for r in self.records]
