"""Robust server-side aggregation: how client uploads become the next
global state.

PARDON's title promises *robust* federated DG, and :mod:`repro.fl.faults`
(PR 5) delivered the mechanical half — crashes, stragglers, corrupted
uploads.  This module is the adversarial half: a registry of
Byzantine-robust aggregation rules, mirroring the codec / transport /
compute registries, resolved at config time and routed through
:meth:`repro.fl.strategy.Strategy.aggregate` so every strategy (FedAvg,
FPL, PARDON, ...) inherits the chosen rule.

Rules
-----
``mean``
    The historical path: data-size-weighted FedAvg via
    :func:`repro.nn.serialize.average_states`.  Bit-identical to every
    prior release, and the default everywhere.  Breakdown point 0: one
    adversarial upload steers the result arbitrarily.
``median``
    Coordinate-wise median over the uploads (weights ignored — the median
    is an order statistic).  Breakdown point 1/2: correct while fewer than
    half the uploads are adversarial, per coordinate.
``trimmed_mean(k)``
    Per coordinate, drop the ``k`` largest and ``k`` smallest values and
    average the rest (``k`` clamped to ``(n-1)//2`` so something always
    remains).  Robust to ``k`` adversarial uploads per coordinate.
``krum`` / ``krum(f)``
    Select the single upload minimizing the summed squared distance to its
    ``n - f - 2`` nearest neighbours (Blanchard et al., NeurIPS 2017).
    Requires ``n >= 2f + 3`` for its guarantee — roughly ``f < n/3``
    adversaries; ``f`` defaults to the largest tolerable ``(n-3)//2``.
``multi-krum(m)`` / ``multi-krum(m, f)``
    Krum-score all uploads, keep the best ``m``, and weighted-average the
    keepers — smoother than single-selection Krum, same ``f < n/3``-style
    guarantee.
``clip(tau)+<rule>``
    Composable prefix (the codec registry's ``+`` idiom): norm-clip each
    upload's *update* (its delta from the broadcast state) to L2 norm
    ``tau`` before handing the uploads to the wrapped rule.  Bounds any
    single upload's pull even under ``mean``.

Streaming
---------
Rules that are online-reducible set :attr:`Aggregator.streaming` and
implement :meth:`Aggregator.begin_stream`, which returns an
:class:`AggregationStream`: the engine folds each upload in as it
arrives (``fold(state, weight)``) and frees it, and the server
finalizes — constant memory in the number of participants, and
aggregation work overlapped with upload collection.  ``mean`` (and
``clip(tau)+mean``) stream; ``median`` / ``trimmed_mean`` / ``krum`` are
order statistics over the full upload set and explicitly declare
themselves non-streaming — they fall back to the batch path that
materializes the survivor list.

Determinism contract
--------------------
Aggregation sits on the determinism-critical path (the cross-engine trace
tests compare it bit-for-bit), so every rule is a pure function of the
upload *multiset* — no RNG, no wall clock.  ``mean`` is defined as the
compensated (double-double) weighted reduction of
:class:`repro.nn.serialize.MeanAccumulator`, which is fold-order-invariant
to ~106 bits: batch and streaming-in-arrival-order reductions produce the
same float64 bits, which is what lets the parallel engine fold uploads in
nondeterministic arrival order without breaking trace identity.  The
hypothesis tests pin the permutation invariance down.

Selection rules publish which uploads they excluded in
:attr:`Aggregator.last_rejected` (indices into the round's update list);
the server folds the count into
:attr:`repro.fl.timing.TimingReport.rejected_uploads`.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np

from repro.nn.serialize import (
    MeanAccumulator,
    StateDict,
    average_states,
    flatten_state,
)

__all__ = [
    "AggregationStream",
    "Aggregator",
    "MeanAggregator",
    "MedianAggregator",
    "TrimmedMeanAggregator",
    "KrumAggregator",
    "ClipAggregator",
    "aggregator_specs",
    "make_aggregator",
    "register_aggregator",
]

class AggregationStream:
    """One in-flight streaming reduction.

    Created by :meth:`Aggregator.begin_stream`; the execution engine calls
    :meth:`fold` once per accepted upload — *in arrival order*, then frees
    the upload's state — and the server calls :meth:`finalize` once.
    Arrival order carries no meaning, by the order-invariance contract of
    the underlying compensated reduction.
    """

    #: Number of uploads folded in so far.
    count = 0

    def fold(self, state: StateDict, weight: float) -> None:
        raise NotImplementedError

    def finalize(self) -> StateDict:
        """The aggregate of everything folded; raises if nothing was."""
        raise NotImplementedError


class _MeanStream(AggregationStream):
    """Streaming form of ``mean``: one compensated accumulator.

    The batch path falls back to uniform weights when every survivor
    weighs zero (an all-empty-client round); the stream mirrors that with
    a shadow accumulator folding each state at weight 1.0 for as long as
    the real weights are all zero.  The first positive weight makes the
    fallback unreachable (weights are non-negative sample counts, so the
    total is now > 0) and drops the shadow — memory stays constant.
    """

    def __init__(self, aggregator: "Aggregator") -> None:
        self._aggregator = aggregator
        self.partial = MeanAccumulator()
        self.uniform: MeanAccumulator | None = MeanAccumulator()

    @property
    def count(self) -> int:  # type: ignore[override]
        return self.partial.count

    def fold(self, state: StateDict, weight: float) -> None:
        if self.uniform is not None:
            if weight > 0:
                self.uniform = None
            else:
                self.uniform.fold(state, 1.0)
        self.partial.fold(state, weight)

    def finalize(self) -> StateDict:
        self._aggregator.last_rejected = ()
        if self.uniform is not None and self.uniform.count:
            return self.uniform.finalize()
        return self.partial.finalize()


class _ClipStream(AggregationStream):
    """Streaming form of ``clip(tau)+<inner>``: clip each upload against
    the broadcast ``ref`` as it arrives, then fold into the inner stream."""

    def __init__(self, aggregator: "ClipAggregator", ref: StateDict | None) -> None:
        self._aggregator = aggregator
        self._ref = ref
        self._clipped = 0
        self._inner = aggregator.inner.begin_stream(ref)

    @property
    def count(self) -> int:  # type: ignore[override]
        return self._inner.count

    def fold(self, state: StateDict, weight: float) -> None:
        shrunk, was_clipped = self._aggregator.clip_one(state, self._ref)
        self._clipped += was_clipped
        self._inner.fold(shrunk, weight)

    def finalize(self) -> StateDict:
        result = self._inner.finalize()
        self._aggregator.last_clipped = self._clipped
        self._aggregator.last_rejected = ()
        return result


class Aggregator:
    """One server-side aggregation rule.

    ``aggregate`` consumes the round's decoded upload states (immutable —
    possibly read-only zero-copy views) with their raw sample-count
    weights, plus the broadcast ``ref`` state the round trained from
    (``clip`` measures deltas against it), and returns a freshly allocated
    next global state.

    ``robust`` marks rules with a nonzero breakdown point; strategy-level
    side channels (FPL's prototype fusion) consult it to harden their own
    aggregation the same way.
    """

    name = "aggregator"
    #: Whether the rule survives adversarial uploads (breakdown point > 0).
    robust = False
    #: Whether the rule is online-reducible (supports :meth:`begin_stream`).
    #: Order statistics (median, trimmed mean, krum) need the full upload
    #: set and stay ``False`` — they fall back to the batch path.
    streaming = False

    def __init__(self) -> None:
        #: Indices (into the last call's upload list) excluded outright.
        self.last_rejected: tuple[int, ...] = ()
        #: Uploads the last call norm-clipped (``clip`` prefix only).
        self.last_clipped: int = 0

    @property
    def spec(self) -> str:
        """Canonical spec string (round-trips through make_aggregator)."""
        return self.name

    def aggregate(
        self,
        states: Sequence[StateDict],
        weights: Sequence[float],
        ref: StateDict | None = None,
    ) -> StateDict:
        raise NotImplementedError

    def begin_stream(self, ref: StateDict | None = None) -> AggregationStream:
        """Open a streaming reduction (only when :attr:`streaming`).

        ``ref`` is the broadcast state the round trained from, for rules
        that measure uploads against it (``clip``).
        """
        raise NotImplementedError(
            f"aggregator {self.spec!r} is not streaming-capable"
        )

    def reduce_vectors(self, matrix: np.ndarray) -> np.ndarray:
        """Robustly fuse row vectors (strategy side channels, e.g. FPL's
        per-class prototypes): the plain mean for the historical rule, the
        coordinate-wise median — breakdown point 1/2 — for robust ones."""
        if self.robust:
            return np.median(matrix, axis=0)
        return matrix.mean(axis=0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Aggregator) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class MeanAggregator(Aggregator):
    """Weighted FedAvg — bit-identical to
    :func:`repro.nn.serialize.average_states` (paper §III-B), and the
    only base rule that streams."""

    name = "mean"
    streaming = True

    def aggregate(
        self,
        states: Sequence[StateDict],
        weights: Sequence[float],
        ref: StateDict | None = None,
    ) -> StateDict:
        self.last_rejected = ()
        return average_states(states, weights)

    def begin_stream(self, ref: StateDict | None = None) -> AggregationStream:
        return _MeanStream(self)


class MedianAggregator(Aggregator):
    """Coordinate-wise median (weights ignored: an order statistic)."""

    name = "median"
    robust = True

    def aggregate(
        self,
        states: Sequence[StateDict],
        weights: Sequence[float],
        ref: StateDict | None = None,
    ) -> StateDict:
        self.last_rejected = ()
        if not states:
            raise ValueError("need at least one state to aggregate")
        result: StateDict = {}
        for key in sorted(states[0]):
            stacked = np.stack([np.asarray(state[key]) for state in states])
            value = np.median(stacked, axis=0)
            result[key] = value.astype(stacked.dtype, copy=False)
        return result


class TrimmedMeanAggregator(Aggregator):
    """Per coordinate, drop the ``k`` smallest and ``k`` largest values
    and average the remainder.  ``k`` is clamped to ``(n-1)//2`` so at
    least one value always survives the trim."""

    name = "trimmed_mean"
    robust = True

    def __init__(self, k: int = 1) -> None:
        super().__init__()
        if k < 0:
            raise ValueError(f"trimmed_mean k must be >= 0, got {k}")
        self.k = int(k)

    @property
    def spec(self) -> str:
        return f"trimmed_mean({self.k})"

    def aggregate(
        self,
        states: Sequence[StateDict],
        weights: Sequence[float],
        ref: StateDict | None = None,
    ) -> StateDict:
        self.last_rejected = ()
        if not states:
            raise ValueError("need at least one state to aggregate")
        count = len(states)
        k = min(self.k, (count - 1) // 2)
        result: StateDict = {}
        for key in sorted(states[0]):
            stacked = np.stack([np.asarray(state[key]) for state in states])
            if k == 0:
                value = stacked.mean(axis=0)
            else:
                value = np.sort(stacked, axis=0)[k : count - k].mean(axis=0)
            result[key] = value.astype(stacked.dtype, copy=False)
        return result


class KrumAggregator(Aggregator):
    """(Multi-)Krum selection (Blanchard et al., NeurIPS 2017).

    Each upload is scored by the summed squared L2 distance to its
    ``n - f - 2`` nearest peers; the ``m`` lowest-scoring uploads are kept
    (``m=1`` is classic Krum — the winner is returned verbatim; ``m>1``
    weighted-averages the keepers).  ``f`` is the number of Byzantine
    uploads to tolerate; when ``None`` it defaults to the largest value
    the guarantee admits, ``(n-3)//2``.  Ties break by upload position,
    stably, so the selection is deterministic.
    """

    robust = True

    def __init__(self, m: int = 1, f: int | None = None) -> None:
        super().__init__()
        if m < 1:
            raise ValueError(f"multi-krum m must be >= 1, got {m}")
        if f is not None and f < 0:
            raise ValueError(f"krum f must be >= 0, got {f}")
        self.m = int(m)
        self.f = None if f is None else int(f)

    @property
    def name(self) -> str:  # type: ignore[override]
        return "krum" if self.m == 1 else "multi-krum"

    @property
    def spec(self) -> str:
        args = [] if self.m == 1 else [str(self.m)]
        if self.f is not None:
            args.append(str(self.f))
        return self.name + (f"({', '.join(args)})" if args else "")

    def aggregate(
        self,
        states: Sequence[StateDict],
        weights: Sequence[float],
        ref: StateDict | None = None,
    ) -> StateDict:
        if not states:
            raise ValueError("need at least one state to aggregate")
        count = len(states)
        keep = min(self.m, count)
        if count <= keep:
            self.last_rejected = ()
            chosen = list(range(count))
        else:
            f = self.f if self.f is not None else max(0, (count - 3) // 2)
            vectors = np.stack(
                [flatten_state(state).astype(np.float64) for state in states]
            )
            squared = ((vectors[:, None, :] - vectors[None, :, :]) ** 2).sum(
                axis=2
            )
            neighbours = max(1, count - f - 2)
            scores = np.array(
                [
                    np.sort(np.delete(squared[i], i))[:neighbours].sum()
                    for i in range(count)
                ]
            )
            order = np.argsort(scores, kind="stable")
            chosen = sorted(int(i) for i in order[:keep])
            self.last_rejected = tuple(
                i for i in range(count) if i not in set(chosen)
            )
        if len(chosen) == 1:
            state = states[chosen[0]]
            return {key: np.array(value) for key, value in state.items()}
        return average_states(
            [states[i] for i in chosen], [weights[i] for i in chosen]
        )


def _state_norm(state: StateDict, ref: StateDict | None) -> float:
    """L2 norm of ``state`` (or of ``state - ref`` when a reference is
    given), over floating tensors only."""
    total = 0.0
    for key in sorted(state):
        value = np.asarray(state[key])
        if not np.issubdtype(value.dtype, np.floating):
            continue
        delta = value if ref is None else value - np.asarray(ref[key])
        total += float(np.square(delta, dtype=np.float64).sum())
    return float(np.sqrt(total))


class ClipAggregator(Aggregator):
    """Norm-clipping prefix: bound each upload's update (its delta from
    the broadcast ``ref``) to L2 norm ``tau``, then delegate to the
    wrapped rule.  With no ``ref`` the state's own norm is clipped."""

    def __init__(self, tau: float, inner: Aggregator) -> None:
        super().__init__()
        if tau <= 0:
            raise ValueError(f"clip tau must be > 0, got {tau}")
        self.tau = float(tau)
        self.inner = inner
        self.robust = inner.robust

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def spec(self) -> str:
        return f"clip({self.tau:g})+{self.inner.spec}"

    @property
    def streaming(self) -> bool:  # type: ignore[override]
        return self.inner.streaming

    def reduce_vectors(self, matrix: np.ndarray) -> np.ndarray:
        return self.inner.reduce_vectors(matrix)

    def clip_one(self, state: StateDict, ref: StateDict | None) -> tuple[StateDict, bool]:
        """One upload clipped against ``ref``; True when it shrank."""
        norm = _state_norm(state, ref)
        if norm <= self.tau:
            return state, False
        scale = self.tau / norm
        shrunk: StateDict = {}
        for key, value in state.items():
            value = np.asarray(value)
            if not np.issubdtype(value.dtype, np.floating):
                shrunk[key] = value
            elif ref is None:
                shrunk[key] = (value * scale).astype(value.dtype, copy=False)
            else:
                base = np.asarray(ref[key])
                shrunk[key] = (base + scale * (value - base)).astype(
                    value.dtype, copy=False
                )
        return shrunk, True

    def begin_stream(self, ref: StateDict | None = None) -> AggregationStream:
        if not self.streaming:
            return super().begin_stream(ref)
        return _ClipStream(self, ref)

    def aggregate(
        self,
        states: Sequence[StateDict],
        weights: Sequence[float],
        ref: StateDict | None = None,
    ) -> StateDict:
        clipped_states: list[StateDict] = []
        clipped = 0
        for state in states:
            shrunk, was_clipped = self.clip_one(state, ref)
            clipped += was_clipped
            clipped_states.append(shrunk)
        result = self.inner.aggregate(clipped_states, weights, ref)
        self.last_clipped = clipped
        self.last_rejected = self.inner.last_rejected
        return result


# -- registry -----------------------------------------------------------------

_AggregatorFactory = Callable[..., Aggregator]
_AGGREGATORS: dict[str, _AggregatorFactory] = {}

_SPEC_ITEM = re.compile(r"^\s*([a-z_\-]+)\s*(?:\(\s*([^()]*?)\s*\))?\s*$")


def register_aggregator(name: str, factory: _AggregatorFactory) -> None:
    """Register a rule factory under ``name``; the factory receives the
    spec's parenthesized arguments as positional strings (``krum(2)`` calls
    ``factory("2")``)."""
    _AGGREGATORS[name] = factory


def aggregator_specs() -> tuple[str, ...]:
    """Registered base-rule names, sorted (mirrors codec_specs etc.)."""
    return tuple(sorted(_AGGREGATORS))


def _build_one(item: str, spec: str) -> tuple[str, tuple[str, ...]]:
    match = _SPEC_ITEM.match(item)
    if match is None:
        raise ValueError(
            f"bad aggregator spec item {item!r} in {spec!r}; expected "
            f"name or name(args)"
        )
    name, args = match.group(1), match.group(2)
    arg_tuple = tuple(
        part.strip() for part in args.split(",") if part.strip()
    ) if args else ()
    return name, arg_tuple


def make_aggregator(spec: "str | Aggregator | None") -> Aggregator:
    """Build an aggregation rule from a spec string.

    ``None`` means the default (``mean``); already-built aggregators pass
    through unchanged — the same convention as
    :func:`repro.fl.codec.make_codec`.  Specs compose with ``+`` where the
    left side is a ``clip(tau)`` prefix: ``clip(2.5)+median``.
    """
    if spec is None:
        return MeanAggregator()
    if isinstance(spec, Aggregator):
        return spec
    if not isinstance(spec, str) or not spec.strip():
        raise TypeError(f"aggregator spec must be a non-empty string, got {spec!r}")
    parts = [part for part in spec.split("+")]
    name, args = _build_one(parts[-1], spec)
    factory = _AGGREGATORS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown aggregator {name!r} in {spec!r}; expected one of "
            f"{', '.join(aggregator_specs())} (optionally prefixed "
            f"'clip(tau)+')"
        )
    try:
        aggregator = factory(*args)
    except TypeError as exc:
        raise ValueError(
            f"bad arguments for aggregator {name!r} in {spec!r}: {exc}"
        ) from exc
    for part in reversed(parts[:-1]):
        prefix, prefix_args = _build_one(part, spec)
        if prefix != "clip":
            raise ValueError(
                f"only 'clip(tau)' may prefix an aggregator, "
                f"got {part!r} in {spec!r}"
            )
        if len(prefix_args) != 1:
            raise ValueError(
                f"clip takes exactly one argument (tau), got {part!r} in "
                f"{spec!r}"
            )
        try:
            tau = float(prefix_args[0])
        except ValueError as exc:
            raise ValueError(
                f"bad clip tau {prefix_args[0]!r} in {spec!r}"
            ) from exc
        aggregator = ClipAggregator(tau, aggregator)
    return aggregator


def _int_arg(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ValueError(f"bad {name} argument {value!r}") from exc


register_aggregator("mean", lambda: MeanAggregator())
register_aggregator("median", lambda: MedianAggregator())
register_aggregator(
    "trimmed_mean",
    lambda k="1": TrimmedMeanAggregator(k=_int_arg("trimmed_mean", k)),
)
register_aggregator(
    "krum",
    lambda f=None: KrumAggregator(
        m=1, f=None if f is None else _int_arg("krum", f)
    ),
)
register_aggregator(
    "multi-krum",
    lambda m="2", f=None: KrumAggregator(
        m=_int_arg("multi-krum", m),
        f=None if f is None else _int_arg("multi-krum", f),
    ),
)
