"""Wall-clock instrumentation for the overhead comparison (paper Fig. 4).

The paper breaks computation into (i) local training per client, (ii) server
aggregation, and (iii) remaining one-time cost (for PARDON: the style
extraction before round 1).  :class:`PhaseTimer` accumulates exactly those
three buckets so every strategy is measured identically.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = ["PhaseTimer", "TimingReport"]


@dataclass
class TimingReport:
    """Aggregated wall-clock costs of one federated run.

    ``local_train_seconds_total`` sums the *per-worker* compute time of every
    local update (what Fig. 4 compares — it is execution-engine-invariant),
    while ``local_train_wall_seconds_total`` is the elapsed server-side time
    of the local phase.  Serially the two coincide; under a parallel
    executor the wall clock shrinks while the compute total stays put, and
    their ratio is the achieved speedup.
    """

    one_time_seconds: float = 0.0
    local_train_seconds_total: float = 0.0
    local_train_invocations: int = 0
    aggregation_seconds_total: float = 0.0
    rounds: int = 0
    local_train_wall_seconds_total: float = 0.0
    #: Measured traffic across the execution engine's process boundary
    #: (zero for in-process engines); see repro.fl.executor.WireStats.
    bytes_up: int = 0
    bytes_down: int = 0
    #: Downlink traffic with fan-out duplicates counted once: the broadcast
    #: blob counts once per round, not once per participating worker.  The
    #: gap to ``bytes_down`` is what a single-copy transport (shm) saves.
    unique_bytes_down: int = 0
    #: Worker-measured wall clock of the lazy broadcast decodes — work that
    #: ran *inside* the local phase (overlapped with training and dispatch)
    #: instead of behind a synchronous pre-round barrier.
    broadcast_decode_seconds_total: float = 0.0
    #: Cross-host broadcast/train/upload overlap (pipelined multi-host
    #: rounds only — see :class:`repro.fl.net.executor.RemoteExecutor`):
    #: remote-endpoint busy time that ran concurrently with other hosts'
    #: work instead of serializing behind it.  Zero for in-host engines.
    pipeline_overlap_seconds: float = 0.0
    #: Fault-tolerance counters (see repro.fl.faults): selected clients
    #: that produced no aggregated update (dropouts, crash victims,
    #: deadline misses, corrupt uploads), ...
    dropped_clients: int = 0
    #: ... total injected straggler slowdown the run absorbed, ...
    straggler_seconds: float = 0.0
    #: ... and worker-pool slots rebuilt after a crash.
    rebuilt_workers: int = 0
    #: Robustness counters (see repro.fl.aggregate): uploads the
    #: aggregation rule excluded outright (krum's non-selected peers), ...
    rejected_uploads: int = 0
    #: ... rounds a quorum closed before every upload arrived, ...
    early_closed_rounds: int = 0
    #: ... and the wall-clock headroom those early closes saved against
    #: the rounds' deadlines.
    early_close_seconds: float = 0.0
    #: Peak traced server-process memory (``tracemalloc``) observed at any
    #: round boundary, in bytes; 0 when tracing was off.  With streaming
    #: aggregation and a lazy population this is O(participants), not
    #: O(population) — the scaling invariant the memory smoke test pins.
    peak_memory_bytes: int = 0

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


class PhaseTimer:
    """Accumulate durations and counters into one :class:`TimingReport`."""

    def __init__(self) -> None:
        self._report = TimingReport()

    @contextmanager
    def one_time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._report.one_time_seconds += time.perf_counter() - start

    @contextmanager
    def local_train(self) -> Iterator[None]:
        """Time one in-process local update (compute == wall by definition).

        The round loop itself uses :meth:`record_local_train` /
        :meth:`record_local_wall` because worker-measured compute and
        server-side wall clock diverge under parallel execution; this
        context manager is the convenience API for external callers timing
        serial code.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.record_local_train(elapsed)
            self.record_local_wall(elapsed)

    def record_local_train(self, seconds: float) -> None:
        """Account one local update measured elsewhere (e.g. in a worker)."""
        self._report.local_train_seconds_total += seconds
        self._report.local_train_invocations += 1

    def record_local_wall(self, seconds: float) -> None:
        """Account the elapsed server-side time of one round's local phase."""
        self._report.local_train_wall_seconds_total += seconds

    def record_bytes(
        self,
        bytes_up: int,
        bytes_down: int,
        unique_bytes_down: int | None = None,
    ) -> None:
        """Account measured wire traffic (e.g. one round's executor delta).

        ``unique_bytes_down`` is the fan-out-deduplicated downlink; callers
        without dedup information may omit it, which counts every downlink
        byte as unique (true when nothing fanned out).
        """
        self._report.bytes_up += int(bytes_up)
        self._report.bytes_down += int(bytes_down)
        self._report.unique_bytes_down += int(
            bytes_down if unique_bytes_down is None else unique_bytes_down
        )

    def record_faults(
        self,
        dropped_clients: int = 0,
        straggler_seconds: float = 0.0,
        rebuilt_workers: int = 0,
    ) -> None:
        """Account one round's fault-tolerance outcome (see
        :class:`repro.fl.faults.RoundFaultReport`)."""
        self._report.dropped_clients += int(dropped_clients)
        self._report.straggler_seconds += float(straggler_seconds)
        self._report.rebuilt_workers += int(rebuilt_workers)

    def record_robustness(
        self,
        rejected_uploads: int = 0,
        early_closed_rounds: int = 0,
        early_close_seconds: float = 0.0,
    ) -> None:
        """Account one round's robustness outcome: uploads the aggregation
        rule rejected (:attr:`repro.fl.aggregate.Aggregator.last_rejected`)
        and quorum early-close savings
        (:class:`repro.fl.faults.RoundFaultReport`)."""
        self._report.rejected_uploads += int(rejected_uploads)
        self._report.early_closed_rounds += int(early_closed_rounds)
        self._report.early_close_seconds += float(early_close_seconds)

    def record_peak_memory(self, nbytes: int) -> None:
        """Account a ``tracemalloc`` peak sample (the server takes one per
        round when tracing is active); the report keeps the maximum."""
        self._report.peak_memory_bytes = max(
            self._report.peak_memory_bytes, int(nbytes)
        )

    def record_broadcast_decode(self, seconds: float) -> None:
        """Account one worker-measured lazy broadcast decode (the overlap
        window: this work ran inside the local phase, not behind a
        pre-round barrier)."""
        self._report.broadcast_decode_seconds_total += seconds

    def record_pipeline_overlap(self, seconds: float) -> None:
        """Account one round's cross-host pipelining win: remote busy time
        that ran concurrently with other hosts' broadcast/train/upload
        instead of serializing behind it."""
        self._report.pipeline_overlap_seconds += float(seconds)

    @contextmanager
    def aggregation(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._report.aggregation_seconds_total += time.perf_counter() - start
            self._report.rounds += 1

    def report(self) -> TimingReport:
        """A snapshot: later records do not reach a report already taken."""
        return replace(self._report)
