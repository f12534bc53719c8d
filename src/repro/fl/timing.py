"""Wall-clock and traffic totals for the overhead comparison (paper Fig. 4).

The paper breaks computation into (i) local training per client, (ii) server
aggregation, and (iii) remaining one-time cost (for PARDON: the style
extraction before round 1).  :class:`TimingReport` holds exactly those
buckets, plus the run's wire, fault and robustness counters — all of them a
fold of the run's :class:`repro.fl.history.RoundRecord` rows
(:meth:`TimingReport.from_records`), so every strategy and every engine is
measured identically and nothing keeps a counter of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fl.history import RoundRecord

__all__ = ["TimingReport"]


@dataclass
class TimingReport:
    """Aggregated wall-clock costs of one federated run.

    ``local_train_seconds_total`` sums the *per-worker* compute time of every
    local update (what Fig. 4 compares — it is execution-engine-invariant),
    while ``local_train_wall_seconds_total`` is the elapsed server-side time
    of the local phase.  Serially the two coincide; under a parallel
    executor the wall clock shrinks while the compute total stays put, and
    their ratio is the achieved speedup.  Every other field is the sum of
    the same-named :class:`repro.fl.history.RoundRecord` field (the memory
    peak: the maximum), documented there.
    """

    one_time_seconds: float = 0.0
    local_train_seconds_total: float = 0.0
    local_train_invocations: int = 0
    aggregation_seconds_total: float = 0.0
    rounds: int = 0
    local_train_wall_seconds_total: float = 0.0
    bytes_up: int = 0
    bytes_down: int = 0
    #: Downlink traffic with fan-out duplicates counted once: the broadcast
    #: blob counts once per round, not once per participating worker.  The
    #: gap to ``bytes_down`` is what a single-copy transport (shm) saves.
    unique_bytes_down: int = 0
    broadcast_decode_seconds_total: float = 0.0
    pipeline_overlap_seconds: float = 0.0
    #: Selected clients that produced no aggregated update.
    dropped_clients: int = 0
    straggler_seconds: float = 0.0
    rebuilt_workers: int = 0
    rejected_uploads: int = 0
    early_closed_rounds: int = 0
    early_close_seconds: float = 0.0
    #: With streaming aggregation and a lazy population this is
    #: O(participants), not O(population) — the scaling invariant the
    #: memory smoke test pins.
    peak_memory_bytes: int = 0

    @classmethod
    def from_records(
        cls, records: "Iterable[RoundRecord]", one_time_seconds: float = 0.0
    ) -> "TimingReport":
        """The report of a run whose rounds are ``records``."""
        records = list(records)

        def total(name: str):
            return sum(getattr(record, name) for record in records)

        return cls(
            one_time_seconds=one_time_seconds,
            local_train_seconds_total=total("train_seconds"),
            local_train_invocations=sum(len(r.survivors) for r in records),
            aggregation_seconds_total=total("aggregation_seconds"),
            rounds=len(records),
            local_train_wall_seconds_total=total("wall_seconds"),
            bytes_up=total("bytes_up"),
            bytes_down=total("bytes_down"),
            unique_bytes_down=total("unique_bytes_down"),
            broadcast_decode_seconds_total=total("decode_seconds"),
            pipeline_overlap_seconds=total("overlap_seconds"),
            dropped_clients=sum(len(r.dropped) for r in records),
            straggler_seconds=total("straggler_seconds"),
            rebuilt_workers=total("rebuilt_workers"),
            rejected_uploads=total("rejected_uploads"),
            early_closed_rounds=total("early_closed"),
            early_close_seconds=total("early_close_seconds"),
            peak_memory_bytes=max(
                (r.peak_memory_bytes for r in records), default=0
            ),
        )

    @property
    def local_train_seconds_mean(self) -> float:
        """Average local-training time per client invocation."""
        if self.local_train_invocations == 0:
            return 0.0
        return self.local_train_seconds_total / self.local_train_invocations

    @property
    def aggregation_seconds_mean(self) -> float:
        """Average aggregation time per round."""
        if self.rounds == 0:
            return 0.0
        return self.aggregation_seconds_total / self.rounds

    @property
    def local_train_speedup(self) -> float:
        """Per-worker compute over elapsed wall clock (1.0 when serial)."""
        if self.local_train_wall_seconds_total <= 0.0:
            return 1.0
        return self.local_train_seconds_total / self.local_train_wall_seconds_total

    @property
    def bytes_total(self) -> int:
        """All measured wire traffic, both directions."""
        return self.bytes_up + self.bytes_down
