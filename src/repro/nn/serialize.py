"""State-dict arithmetic: the wire format of federated learning.

Clients exchange ``dict[str, np.ndarray]`` state dicts.  Aggregation rules
(FedAvg, gradient-masked averaging, generalization adjustment) are all linear
operations over these dicts, collected here so every strategy reuses the same
verified primitives.
"""

from __future__ import annotations

import json
import pickle
from typing import Any, Sequence

import numpy as np

__all__ = [
    "StateDict",
    "MeanAccumulator",
    "average_states",
    "state_sub",
    "flatten_state",
    "unflatten_state",
    "state_allclose",
    "encode_payload",
    "decode_payload",
    "encode_meta",
]

StateDict = dict[str, np.ndarray]


def _check_same_keys(states: Sequence[StateDict]) -> list[str]:
    if not states:
        raise ValueError("need at least one state dict")
    keys = sorted(states[0])
    for index, state in enumerate(states[1:], start=1):
        if sorted(state) != keys:
            raise KeyError(f"state dict {index} has different keys")
    return keys


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """Knuth's branch-free TwoSum: ``a + b`` as a rounded sum plus its
    exact rounding error (both floats)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


class MeanAccumulator:
    """Online weighted mean over state dicts, in compensated (double-double)
    arithmetic so the fold *order does not matter*.

    Each ``fold(state, w)`` adds the per-key products ``w * state[key]``
    (computed in float64) into a ``(hi, lo)`` running-sum pair via TwoSum,
    and the weight into a scalar ``(hi, lo)`` pair the same way;
    ``finalize`` divides once at the end.  The compensated sum carries
    ~106 bits of precision, so reorderings — streaming arrival order —
    agree with the sequential batch reduction to well below the final
    float64 rounding step, and traces stay bit-identical across engines
    regardless of upload arrival order.

    Memory is one ``(6, P)`` float64 block allocated at the first fold —
    rows ``hi``, ``lo``, the weighted term and three TwoSum temporaries,
    with ``_hi`` / ``_lo`` / ``_term`` per-key views into it — so a fold is
    one multiply per key plus eight whole-row ufunc calls, none allocating.
    It stays constant in the number of folds, which is what lets the server
    aggregate without materializing the round's survivor list.
    """

    __slots__ = ("_keys", "_block", "_hi", "_lo", "_term", "_w_hi", "_w_lo", "count")

    def __init__(self) -> None:
        self._keys: list[str] | None = None
        self._block = np.zeros((6, 0))
        self._hi: StateDict = {}
        self._lo: StateDict = {}
        self._term: StateDict = {}
        self._w_hi = 0.0
        self._w_lo = 0.0
        #: Number of states folded in.
        self.count = 0

    def fold(self, state: StateDict, weight: float) -> None:
        """Add one state with raw (un-normalized) weight ``weight``."""
        weight = float(weight)
        if weight < 0:
            raise ValueError("weights must be non-negative")
        keys = sorted(state)
        if self._keys is None:
            self._keys = keys
            sizes = [np.size(state[key]) for key in keys]
            self._block = np.zeros((6, sum(sizes)))
            end = 0
            for key, size in zip(keys, sizes):
                end += size
                rows = self._block[:3, end - size : end].reshape(
                    (3,) + np.shape(state[key])
                )  # `rows[i, ...]`, not unpacking: a 0-d tensor stays a view
                self._hi[key], self._lo[key], self._term[key] = (
                    rows[row, ...] for row in range(3)
                )
        elif keys != self._keys:
            raise KeyError("state dict has different keys")
        for key in keys:
            np.multiply(state[key], weight, out=self._term[key], dtype=np.float64)
        hi, lo, value, s, bb, tmp = self._block
        np.add(hi, value, out=s)
        np.subtract(s, hi, out=bb)
        np.subtract(s, bb, out=tmp)
        np.subtract(hi, tmp, out=tmp)
        np.subtract(value, bb, out=bb)
        np.add(tmp, bb, out=tmp)
        np.add(lo, tmp, out=lo)
        np.copyto(hi, s)
        s, err = _two_sum(self._w_hi, weight)
        self._w_hi, self._w_lo = s, self._w_lo + err
        self.count += 1

    def total_weight(self) -> float:
        return self._w_hi + self._w_lo

    def finalize(self, out: StateDict | None = None) -> StateDict:
        """The weighted mean of everything folded so far.

        With ``out=`` the result is written into the caller's float64
        buffers (reused, not re-allocated) and ``out`` is returned; when
        nothing was folded, ``out`` is returned untouched — the
        empty-survivor edge case falls back to the caller's state without
        a fresh allocation.
        """
        if self.count == 0:
            if out is not None:
                return out
            raise ValueError("need at least one state dict")
        total = self.total_weight()
        if total <= 0:
            raise ValueError("weights must not sum to zero")
        result: StateDict = out if out is not None else {}
        for key in self._keys or []:
            value = self._hi[key] + self._lo[key]
            if out is not None:
                np.divide(value, total, out=result[key])
            else:
                result[key] = value / total
        return result


def average_states(
    states: Sequence[StateDict],
    weights: Sequence[float] | None = None,
    out: StateDict | None = None,
) -> StateDict:
    """Weighted average of state dicts (FedAvg, paper §III-B Aggregation).

    ``weights`` default to uniform; callers pass raw client dataset sizes
    ``n_i`` directly — normalization happens in a single pass, as one
    divide of the compensated product-sum by the compensated weight total
    (see :class:`MeanAccumulator`, which this wraps and whose order
    invariance makes streaming and hierarchical reductions bit-identical
    to this batch form).  ``out=`` reuses the caller's float64 buffers for
    the result; with an empty ``states`` it is returned untouched instead
    of raising.
    """
    if not states and out is not None:
        return out
    _check_same_keys(states)
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("one weight per state dict required")
    acc = MeanAccumulator()
    for state, weight in zip(states, weights):
        acc.fold(state, weight)
    return acc.finalize(out=out)


def state_sub(a: StateDict, b: StateDict) -> StateDict:
    """Elementwise ``a - b`` (e.g. a client's update delta)."""
    _check_same_keys([a, b])
    return {key: a[key] - b[key] for key in a}


def flatten_state(state: StateDict) -> np.ndarray:
    """Concatenate all tensors (sorted by key) into one flat vector."""
    return np.concatenate([np.ravel(state[key]) for key in sorted(state)])


def unflatten_state(vector: np.ndarray, reference: StateDict) -> StateDict:
    """Inverse of :func:`flatten_state`, using ``reference`` for shapes."""
    result: StateDict = {}
    offset = 0
    for key in sorted(reference):
        size = reference[key].size
        chunk = vector[offset : offset + size]
        if chunk.size != size:
            raise ValueError("vector too short for reference state")
        result[key] = chunk.reshape(reference[key].shape).copy()
        offset += size
    if offset != vector.size:
        raise ValueError("vector too long for reference state")
    return result


def state_allclose(a: StateDict, b: StateDict, atol: float = 1e-10) -> bool:
    """True when both states have identical keys and close values."""
    if sorted(a) != sorted(b):
        return False
    return all(np.allclose(a[key], b[key], atol=atol) for key in a)


def encode_payload(obj: Any) -> bytes:
    """Pickle an object for an endpoint that trusts this process: the model
    template of an agent's welcome and the strategy of each broadcast
    (:mod:`repro.fl.net.protocol`).  States and uploads never take this
    path; they cross as typed messages (:mod:`repro.fl.wire`).

    Turns "is it serializable?" into an error naming the offending object
    at dispatch time.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # surface *what* failed to serialize
        raise TypeError(f"payload of type {type(obj).__name__} is not serializable: {exc}") from exc


def decode_payload(data: "bytes | memoryview") -> Any:
    """Inverse of :func:`encode_payload`.  It unpickles, so only an agent
    calls it, on bytes from the server it dialled."""
    return pickle.loads(data)


_META_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_meta(fields: dict) -> bytes:
    """The one encoding of a wire message's plain fields (its *meta*):
    compact ASCII JSON.  The wire accounting measures meta bytes with it
    too, so the bytes it charges are the bytes a frame carries."""
    return _META_ENCODER.encode(fields).encode("ascii")
