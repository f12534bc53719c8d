"""Spans recorded from outside the program, and the arithmetic on them.

The benchmark owns every object in this file.  The proxies delegate to
objects the benchmark itself constructs and hands to ``FederatedServer``;
they never cross a process boundary (pool workers and agents receive the
plain strategy and model), which the trace-digest check proves.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

from repro.fl.population import ClientPopulation, ListPopulation

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, pct: float):
    """Nearest-rank percentile (the smallest sample with at least ``pct``
    percent of the samples at or below it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, pct: float):
    """``percentile(values, pct)``, or ``None`` when fewer than
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it (a run cut short)."""
    if len(values) - math.ceil(pct / 100 * len(values)) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(values, pct)


class Tracer:
    """In-memory span store.  A span is a dict with ``id``, ``name``,
    ``start``, ``end``, ``parent`` (id or ``None``) and ``round``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._round_span: "int | None" = None
        self._round_id = -1

    @contextmanager
    def span(self, name: str, **fields):
        """Record one span around the ``with`` body; its parent is the span
        open around it, or else the open round."""
        parent = self._stack[-1] if self._stack else self._round_span
        span = {
            "id": len(self.spans), "name": name, "start": time.perf_counter(),
            "end": None, "parent": parent, "round": self._round_id, **fields,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def begin_round(self, round_id: int) -> None:
        """Close the open round span and open the next: a round lasts from
        one ``run_round`` call to the next, so it holds the engine call,
        aggregation, evaluation, bookkeeping and the next round's sampling."""
        now = time.perf_counter()
        self.end_rounds(now)
        self._round_id = round_id
        self._round_span = len(self.spans)
        self.spans.append({
            "id": self._round_span, "name": "round", "start": now,
            "end": None, "parent": None, "round": round_id,
        })

    def end_rounds(self, now: "float | None" = None) -> None:
        if self._round_span is not None:
            self.spans[self._round_span]["end"] = (
                time.perf_counter() if now is None else now
            )
            self._round_span = None


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover
    (children may overlap each other and are clipped to the parent)."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


class ExecutorProxy:
    """Delegating wrapper around the engine handed to ``FederatedServer``.

    Always on, because ``round_s`` is defined by when ``run_round`` is
    called: untraced it takes two timestamps a round and counts samples;
    with a tracer it also records spans and the uploads' public timing
    fields.  Everything else the server reads is forwarded untouched.
    """

    def __init__(self, inner, tracer: "Tracer | None" = None,
                 capture_rounds: "tuple[int, ...]" = (),
                 after_first_round=None) -> None:
        self._inner = inner
        self._tracer = tracer
        self._capture_rounds = capture_rounds
        self._after_first_round = after_first_round
        self.round_starts: list[float] = []
        self.round_ends: list[float] = []
        #: Per round: participants' dataset sizes, summed.
        self.round_samples: list[int] = []
        #: Per round with a tracer: summed upload timing fields.
        self.round_uploads: list[dict] = []
        #: Round index -> copy of the global state handed in at that round,
        #: i.e. the state after that many completed rounds.
        self.captured: dict[int, dict] = {}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_round(self, strategy, model, global_state, participants,
                  round_index, seeds, stream=None):
        self.round_starts.append(time.perf_counter())
        self.round_samples.append(sum(c.num_samples for c in participants))
        if round_index in self._capture_rounds:
            self.captured[round_index] = {
                key: value.copy() for key, value in global_state.items()
            }
        tracer = self._tracer
        if tracer is None:
            updates = self._inner.run_round(
                strategy, model, global_state, participants, round_index,
                seeds, stream=stream,
            )
        else:
            tracer.begin_round(round_index)
            with tracer.span("fl.executor.run_round"):
                updates = self._inner.run_round(
                    strategy, model, global_state, participants, round_index,
                    seeds, stream=stream,
                )
            self.round_uploads.append({
                "train_s": sum(u.train_seconds for u in updates),
                "decode_s": sum(u.decode_seconds for u in updates),
                "samples": sum(u.num_samples for u in updates),
            })
        self.round_ends.append(time.perf_counter())
        if len(self.round_starts) == 1 and self._after_first_round is not None:
            self._after_first_round()
        return updates


class PopulationProxy(ClientPopulation):
    """Spans around a population's ``sample``/``release``; the rest is
    forwarded.  Subclasses ``ClientPopulation`` because the server coerces
    anything else into a list population."""

    def __init__(self, inner: ClientPopulation, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)

    def sample(self, sampler, rng):
        with self._tracer.span("fl.population.sample"):
            return self._inner.sample(sampler, rng)

    def release(self, participants) -> None:
        with self._tracer.span("fl.population.release"):
            self._inner.release(participants)


class TracedListPopulation(ListPopulation):
    """The same spans for an explicit client list.  A subclass, not a
    proxy: the server takes ``clients`` for ``Strategy.prepare`` from
    ``ListPopulation`` instances only."""

    def __init__(self, clients, tracer: Tracer) -> None:
        super().__init__(clients)
        self._tracer = tracer

    def sample(self, sampler, rng):
        with self._tracer.span("fl.population.sample"):
            return super().sample(sampler, rng)

    def release(self, participants) -> None:
        with self._tracer.span("fl.population.release"):
            super().release(participants)


def traced_population(clients, tracer: Tracer) -> ClientPopulation:
    if isinstance(clients, ClientPopulation):
        return PopulationProxy(clients, tracer)
    return TracedListPopulation(clients, tracer)


def install_predict_span(model, tracer: Tracer) -> None:
    """Shadow ``model.predict_logits`` on this one instance with a timed
    call.  Installed after the engine's first round, because engines pickle
    the model template when they build their pool or greet their agents and
    a closure cannot (and must not) travel."""
    inner = model.predict_logits

    def predict_logits(x, batch_size: int = 256):
        with tracer.span("fl.evaluation.predict", count=int(x.shape[0])):
            return inner(x, batch_size=batch_size)

    model.predict_logits = predict_logits
