"""State-dict arithmetic: the wire format of federated learning.

Clients exchange ``dict[str, np.ndarray]`` state dicts.  Aggregation rules
(FedAvg, gradient-masked averaging, generalization adjustment) are all linear
operations over these dicts, collected here so every strategy reuses the same
verified primitives.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "StateDict",
    "MeanAccumulator",
    "average_states",
    "state_add",
    "state_sub",
    "zeros_like_state",
    "flatten_state",
    "unflatten_state",
    "state_allclose",
    "encode_payload",
    "decode_payload",
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


def state_add(a: StateDict, b: StateDict) -> StateDict:
    """Elementwise ``a + b``."""
    _check_same_keys([a, b])
    return {key: a[key] + b[key] for key in a}


def state_sub(a: StateDict, b: StateDict) -> StateDict:
    """Elementwise ``a - b`` (e.g. a client's update delta)."""
    _check_same_keys([a, b])
    return {key: a[key] - b[key] for key in a}


def zeros_like_state(state: StateDict) -> StateDict:
    """A state dict of zeros with the same structure."""
    return {key: np.zeros_like(value) for key, value in state.items()}


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


# Array-carrying payloads get a pickle-protocol-5 fast path: array bodies
# leave the pickle stream as out-of-band buffers and are framed after the
# (tiny) head, so encoding skips pickle's per-array framing and *decoding*
# hands numpy zero-copy views into the received blob instead of fresh
# allocations.  Eligible are state dicts, bare arrays, and any type that
# opts in with a ``__wire_oob__ = True`` class attribute (the codec
# :class:`repro.fl.codec.Payload` and the executor's ``ClientUpdate`` — the
# latter is what puts FPL's prototype arrays out of band on the upload
# hop).
_OOB_MAGIC = b"RPB5"
_OOB_LEN = struct.Struct("<Q")


def _is_state_dict(obj: Any) -> bool:
    return (
        type(obj) is dict
        and bool(obj)
        and all(
            type(key) is str and isinstance(value, np.ndarray)
            for key, value in obj.items()
        )
    )


def _wants_oob(obj: Any) -> bool:
    return (
        isinstance(obj, np.ndarray)
        or _is_state_dict(obj)
        or bool(getattr(type(obj), "__wire_oob__", False))
    )


def encode_payload(obj: Any) -> bytes:
    """Serialize a broadcast payload (model template, strategy state) to bytes.

    The parallel execution engine uses this pair for the payloads it encodes
    explicitly; it turns "is it serializable?" into an error naming the
    offending object at dispatch time.  (Task arguments are pickled by the
    process pool itself and fail with the pool's own traceback instead.)

    :class:`StateDict`-shaped objects, bare arrays, and ``__wire_oob__``
    types take the out-of-band fast path; both framings decode through
    :func:`decode_payload`, which dispatches on the leading magic bytes (a
    plain pickle stream can never start with them).
    """
    try:
        if _wants_oob(obj):
            buffers: list[pickle.PickleBuffer] = []
            head = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
            parts: list[bytes | memoryview] = [
                _OOB_MAGIC,
                _OOB_LEN.pack(len(head)),
                head,
                _OOB_LEN.pack(len(buffers)),
            ]
            for buffer in buffers:
                raw = buffer.raw()
                parts.append(_OOB_LEN.pack(raw.nbytes))
                parts.append(raw)
            return b"".join(parts)
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # surface *what* failed to serialize
        raise TypeError(f"payload of type {type(obj).__name__} is not serializable: {exc}") from exc


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`.

    Fast-path blobs decode zero-copy: the returned arrays are *read-only
    views* into ``data``.  Every consumer in this repository treats decoded
    states as immutable (``load_state_dict`` copies; aggregation allocates
    fresh outputs); call ``.copy()`` first if you need to mutate one.
    """
    if data[: len(_OOB_MAGIC)] == _OOB_MAGIC:
        view = memoryview(data)
        offset = len(_OOB_MAGIC)
        (head_len,) = _OOB_LEN.unpack_from(view, offset)
        offset += _OOB_LEN.size
        head = view[offset : offset + head_len]
        offset += head_len
        (count,) = _OOB_LEN.unpack_from(view, offset)
        offset += _OOB_LEN.size
        buffers = []
        for _ in range(count):
            (length,) = _OOB_LEN.unpack_from(view, offset)
            offset += _OOB_LEN.size
            buffers.append(view[offset : offset + length])
            offset += length
        return pickle.loads(head, buffers=buffers)
    return pickle.loads(data)
