"""Layered codec stack for the federated wire.

Everything that crosses a process (or, eventually, network) boundary in this
repository is a :class:`repro.nn.serialize.StateDict`.  A :class:`Codec`
turns one into a :class:`Payload` — the unit the transport serializes — and
back, optionally against a *reference state* both endpoints already hold.
The execution engines (:mod:`repro.fl.executor`) maintain those references:
a broadcast diffs against the previous broadcast its endpoint decoded, and
an upload against the broadcast it trained from, so a stateful codec can
ship only what changed.

Four codecs ship by default, selectable by spec string (``--codec`` on the
CLI, ``codec=`` on :class:`repro.fl.server.FederatedConfig` and
:class:`repro.eval.protocols.ExperimentSetting`):

``identity``
    Raw state dicts — the historical wire format and the default.
``delta``
    Lossless: the bitwise XOR against the reference state, byte-transposed
    and DEFLATE-compressed.  Decoding is bit-exact, so run traces stay
    identical to ``identity`` on every engine.  *How much* it saves is
    entropy-bound: an SGD step randomizes the low mantissa bits, so only
    the sign/exponent/high-mantissa bytes (which agree between state and
    reference) compress away.  Dense float64 training at bench learning
    rates yields ~1.3x; the win grows with temporal redundancy and reaches
    well past 2x in fine-tuning / near-convergence regimes where updates
    are small relative to the weights — exactly the production-FL setting
    (continual fine-tuning) delta encoding exists for.
``fp16``
    Lossy: float tensors travel as IEEE half precision (4x smaller than
    this library's float64), everything else unchanged.
``qint8``
    Lossy: float tensors travel as uint8 with a per-tensor affine
    (scale, offset) — 8x smaller, max error half a quantization step.

Codecs compose into a pipeline with ``+``: ``"fp16+deflate"`` quantizes and
then byte-transposes + DEFLATEs the wire tensors.  ``delta`` already
includes its DEFLATE stage (an uncompressed XOR delta is the same size as
the state).  Register new stages with :func:`register_codec` /
:func:`register_filter`.

The DEFLATE stage runs zlib's run-length + Huffman strategy (``Z_RLE``), not
its default match search.  A byte plane of a shuffled float64 frame holds
either noise (planes 0-4 of an XOR delta measure 8.00 bits/byte) or runs
under a skewed histogram (planes 5-7) — never the repeated substrings LZ77
hunts for — so ``Z_RLE`` is faster *and* no larger on every plane (level 6
vs ``Z_RLE``, PARDON state, round 5 -> 6 delta: plane 4 0.77 -> 0.30 ms at
equal size, plane 5 1.12 ms / 36 378 B -> 0.51 ms / 36 308 B, plane 6
2.61 ms / 11 686 B -> 0.39 ms / 10 216 B, plane 7 0.21 ms / 435 B ->
0.04 ms / 344 B).  The level is irrelevant under this strategy, so there
is none.
The output is still one plain zlib stream; the decoder inflates it bounded
by the byte count its spec implies (see :func:`_unpack`).

Contract
--------
* ``decode(encode(state, ref), ref) == state`` bit-exactly when
  ``lossless`` is true, and within the codec's stated tolerance otherwise.
* ``stateful`` codecs require lossless round-trips: both endpoints advance
  their reference from the decoded state, and any loss would compound as
  reference drift.  Lossy codecs must ignore ``ref`` (they are applied
  afresh to every payload), which is also what keeps serial and parallel
  traces identical under them.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.nn.serialize import StateDict

__all__ = [
    "Codec",
    "Payload",
    "IdentityCodec",
    "DeltaCodec",
    "Fp16Codec",
    "Qint8Codec",
    "DeflateCodec",
    "make_codec",
    "wire_dtype",
    "register_codec",
    "register_filter",
    "codec_specs",
    "analytic_scalar_bytes",
]


#: The dtypes a peer may name for an array: little-endian numbers and
#: bools.  Every dtype read off the wire — a registered array's, a state
#: frame's or upload's tensor's, a packing spec's, and the dtype fp16 and
#: qint8 restore — passes :func:`wire_dtype` before numpy sees it.
_ARRAY_DTYPES = frozenset({"<f8", "<f4", "<f2", "<i8", "<i4", "|u1", "|b1"})


def wire_dtype(name: object) -> np.dtype:
    """The dtype a peer named, or a :class:`ValueError` if it is not one
    of :data:`_ARRAY_DTYPES`."""
    if type(name) is not str or name not in _ARRAY_DTYPES:
        raise ValueError(f"wire dtype {name!r} is not allowed")
    return np.dtype(name)


@dataclass(frozen=True)
class Payload:
    """One codec-encoded state, ready for the transport.

    ``tensors`` carries array-valued wire content and ``blob``
    byte-filtered (compressed) content; both cross as raw message buffers
    (:mod:`repro.fl.wire`), so a received payload's tensors and blob are
    views of its frame.  ``meta`` is small per-tensor metadata (dtypes,
    quantization parameters, packing specs) that crosses as JSON: tuples
    in it arrive as lists.  ``codec`` records the producing pipeline spec
    so a decode with the wrong codec fails loudly instead of corrupting
    states.
    """

    codec: str
    kind: str
    tensors: StateDict = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    blob: bytes | None = None


class Codec:
    """State <-> payload transform; subclasses implement one wire format."""

    #: Spec string this codec answers to in the registry.
    name = "codec"
    #: True when decode(encode(s, ref), ref) is bit-exact.
    lossless = True
    #: True when the codec consumes/advances endpoint reference states.
    stateful = False

    @property
    def spec(self) -> str:
        """The pipeline spec string that rebuilds this codec."""
        return self.name

    def encode(self, state: StateDict, ref: StateDict | None = None) -> Payload:
        raise NotImplementedError

    def decode(self, payload: Payload, ref: StateDict | None = None) -> StateDict:
        raise NotImplementedError

    def roundtrip(self, state: StateDict) -> StateDict:
        """What the far endpoint would see — used by in-process engines to
        reproduce a lossy wire without one (lossless codecs: the state)."""
        if self.lossless:
            return state
        return self.decode(self.encode(state))

    def analytic_scalar_bytes(self, dense_bytes: float = 8.0) -> float:
        """Wire bytes per state scalar for the analytic communication model
        (an upper bound: byte-filter compression is data-dependent and not
        modeled — the measured columns are ground truth)."""
        return dense_bytes

    def _check(self, payload: Payload) -> None:
        if payload.codec != self.spec:
            raise ValueError(
                f"payload was encoded by codec {payload.codec!r}, "
                f"not {self.spec!r}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec!r})"


# -- byte packing helpers -----------------------------------------------------
#
# The transpose ("shuffle") filter groups the i-th byte of every element
# together before DEFLATE, so low-entropy byte planes — exponents across a
# tensor, the zeroed high bytes of an XOR delta — compress as long runs
# instead of being interleaved with full-entropy mantissa bytes.


def _as_bytes_matrix(array: np.ndarray) -> np.ndarray:
    """A C-contiguous ``(size, itemsize)`` uint8 view of ``array``'s bytes."""
    contiguous = np.ascontiguousarray(array)
    return contiguous.view(np.uint8).reshape(contiguous.size, contiguous.itemsize)


def _shuffle(array: np.ndarray) -> bytes:
    if array.size == 0:
        return b""
    if array.itemsize == 1:
        return np.ascontiguousarray(array).tobytes()
    return _as_bytes_matrix(array).T.tobytes()


def _unshuffle(chunk: memoryview | bytes, dtype: np.dtype, shape: tuple) -> np.ndarray:
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if count == 0:
        return np.empty(shape, dtype=dtype)
    flat = np.frombuffer(chunk, dtype=np.uint8)
    if dtype.itemsize == 1:
        return flat.reshape(shape).astype(dtype, copy=True).reshape(shape)
    matrix = np.ascontiguousarray(flat.reshape(dtype.itemsize, count).T)
    return matrix.view(dtype).reshape(shape)


def _tensor_spec(tensors: StateDict) -> tuple:
    return tuple(
        (key, tensors[key].dtype.str, tuple(tensors[key].shape))
        for key in sorted(tensors)
    )


def _deflate(body: bytes) -> bytes:
    """``body`` as one zlib stream, run-length + Huffman coded (``Z_RLE``)."""
    stream = zlib.compressobj(
        zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE
    )
    return stream.compress(body) + stream.flush()


def _pack(tensors: StateDict) -> tuple[bytes, tuple]:
    """Shuffle + concatenate + DEFLATE a state dict; spec rebuilds it."""
    spec = _tensor_spec(tensors)
    body = b"".join(_shuffle(tensors[key]) for key, _, _ in spec)
    return _deflate(body), spec


def _unpack(
    blob: "bytes | memoryview", spec: "tuple | list", ref: StateDict | None = None
) -> StateDict:
    """Inflate ``blob`` and unshuffle it into the tensors ``spec`` names.

    Inflation stops one byte past what ``spec`` implies, so a frame cannot
    make this endpoint allocate more than that (the extra byte exposes an
    over-long stream and lets an exact one reach its end; ``max_length=0``
    would mean *unlimited*).  For ``delta`` frames the bound comes from the
    local reference; for full and ``+deflate`` frames it is the peer's own
    ``meta`` spec, so it is only as trustworthy as the peer — which is why
    each of its entries must be ``[key, allowed dtype, shape]``, a spec
    naming more bytes than the local reference state ``ref`` holds (no
    codec packs a state larger than itself) is refused before anything
    inflates, and a stream that does not inflate is a
    :class:`ValueError` too.
    """
    entries = []
    for key, dtype_str, shape in spec:
        if (
            type(key) is not str
            or not isinstance(shape, (list, tuple))
            or not all(type(dim) is int and dim >= 0 for dim in shape)
        ):
            raise ValueError(f"packed tensor {key!r} of shape {shape!r} is malformed")
        dtype = wire_dtype(dtype_str)
        entries.append((key, dtype, tuple(shape), dtype.itemsize * math.prod(shape)))
    expected = sum(entry[3] for entry in entries)
    if ref is not None and expected > sum(value.nbytes for value in ref.values()):
        raise ValueError("packed payload names more bytes than the reference state")
    inflater = zlib.decompressobj()
    try:
        body = memoryview(inflater.decompress(blob, expected + 1))
    except (zlib.error, OverflowError) as exc:
        raise ValueError(f"packed payload does not inflate: {exc}") from None
    if (
        len(body) != expected
        or inflater.unconsumed_tail
        or inflater.unused_data
        or not inflater.eof
    ):
        raise ValueError("packed payload length does not match its spec")
    tensors: StateDict = {}
    offset = 0
    for key, dtype, shape, nbytes in entries:
        tensors[key] = _unshuffle(body[offset : offset + nbytes], dtype, shape)
        offset += nbytes
    return tensors


def _xor_bytes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise XOR of two same-structured arrays as a (size, itemsize)
    uint8 matrix — exact for every dtype, reversible by XORing again."""
    if a.shape != b.shape or a.dtype != b.dtype:
        raise ValueError("delta endpoints disagree on tensor structure")
    return _as_bytes_matrix(a) ^ _as_bytes_matrix(b)


# -- the four stock codecs ----------------------------------------------------


class IdentityCodec(Codec):
    """Today's wire format: the state dict itself (zero-copy both ways)."""

    name = "identity"

    def encode(self, state: StateDict, ref: StateDict | None = None) -> Payload:
        return Payload(codec=self.spec, kind="full", tensors=state)

    def decode(self, payload: Payload, ref: StateDict | None = None) -> StateDict:
        self._check(payload)
        return payload.tensors


class DeltaCodec(Codec):
    """Lossless bidirectional deltas: XOR vs. the reference, shuffled and
    DEFLATEd.  Without a reference (an endpoint's first broadcast) the
    full state travels, still shuffled + DEFLATEd.
    """

    name = "delta"
    stateful = True

    def encode(self, state: StateDict, ref: StateDict | None = None) -> Payload:
        if ref is not None and sorted(ref) != sorted(state):
            raise ValueError("delta endpoints disagree on state keys")
        if ref is None:
            blob, spec = _pack(state)
            return Payload(
                codec=self.spec, kind="full", meta={"spec": spec}, blob=blob
            )
        spec = _tensor_spec(state)
        body = b"".join(
            _xor_bytes(state[key], ref[key]).T.tobytes() for key, _, _ in spec
        )
        return Payload(
            codec=self.spec,
            kind="delta",
            blob=_deflate(body),
        )

    def decode(self, payload: Payload, ref: StateDict | None = None) -> StateDict:
        self._check(payload)
        if payload.kind == "full":
            return _unpack(payload.blob, payload.meta["spec"], ref)
        if ref is None:
            raise ValueError(
                "delta frame arrived without a reference state; the "
                "endpoints' reference chains are out of sync"
            )
        deltas = _unpack(payload.blob, _tensor_spec(ref))
        state: StateDict = {}
        for key in deltas:
            matrix = _as_bytes_matrix(deltas[key]) ^ _as_bytes_matrix(ref[key])
            state[key] = (
                np.ascontiguousarray(matrix).view(ref[key].dtype).reshape(ref[key].shape)
            )
        return state


def _is_quantizable(value: np.ndarray) -> bool:
    return value.dtype.kind == "f" and value.size > 0


class Fp16Codec(Codec):
    """Lossy: float tensors cross the wire as IEEE half precision.

    4x smaller than this library's float64; relative error ~2^-11, with
    values beyond half-precision range saturating to inf (model weights in
    this repository live well inside it).  Non-float tensors pass through
    untouched.  Stateless: ``ref`` is ignored.
    """

    name = "fp16"
    lossless = False

    def analytic_scalar_bytes(self, dense_bytes: float = 8.0) -> float:
        return 2.0

    def encode(self, state: StateDict, ref: StateDict | None = None) -> Payload:
        tensors: StateDict = {}
        dtypes: dict[str, str] = {}
        for key, value in state.items():
            if _is_quantizable(value) and value.itemsize > 2:
                tensors[key] = value.astype(np.float16)
                dtypes[key] = value.dtype.str
            else:
                tensors[key] = value
        return Payload(
            codec=self.spec, kind="full", tensors=tensors, meta={"dtypes": dtypes}
        )

    def decode(self, payload: Payload, ref: StateDict | None = None) -> StateDict:
        self._check(payload)
        dtypes = payload.meta["dtypes"]
        return {
            key: value.astype(wire_dtype(dtypes[key])) if key in dtypes else value
            for key, value in payload.tensors.items()
        }


class Qint8Codec(Codec):
    """Lossy: float tensors quantize to uint8 with a per-tensor affine map.

    ``q = round((x - offset) / scale)`` with ``scale = (max - min) / 255``;
    8x smaller than float64, max absolute error ``scale / 2`` per tensor.
    Constant tensors (``max == min``) ship as offset only.  Stateless.
    """

    name = "qint8"
    lossless = False

    def analytic_scalar_bytes(self, dense_bytes: float = 8.0) -> float:
        return 1.0

    def encode(self, state: StateDict, ref: StateDict | None = None) -> Payload:
        tensors: StateDict = {}
        affine: dict[str, tuple[float, float, str]] = {}
        for key, value in state.items():
            if not _is_quantizable(value):
                tensors[key] = value
                continue
            low = float(value.min())
            high = float(value.max())
            scale = (high - low) / 255.0
            if scale > 0.0:
                levels = np.clip(np.round((value - low) / scale), 0.0, 255.0)
            else:
                levels = np.zeros(value.shape)
            tensors[key] = levels.astype(np.uint8)
            affine[key] = (scale, low, value.dtype.str)
        return Payload(
            codec=self.spec, kind="full", tensors=tensors, meta={"affine": affine}
        )

    def decode(self, payload: Payload, ref: StateDict | None = None) -> StateDict:
        self._check(payload)
        affine = payload.meta["affine"]
        state: StateDict = {}
        for key, value in payload.tensors.items():
            if key in affine:
                scale, offset, dtype_str = affine[key]
                state[key] = (value.astype(wire_dtype(dtype_str)) * scale) + offset
            else:
                state[key] = value
        return state


class DeflateCodec(Codec):
    """Byte-filter stage: shuffle + DEFLATE an inner codec's wire tensors.

    Composes via the ``+deflate`` spec suffix (e.g. ``"fp16+deflate"``).
    Pure transport compression: losslessness, statefulness, and tolerance
    are the inner codec's.
    """

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.lossless = inner.lossless
        self.stateful = inner.stateful

    @property
    def spec(self) -> str:
        return f"{self.inner.spec}+deflate"

    def analytic_scalar_bytes(self, dense_bytes: float = 8.0) -> float:
        return self.inner.analytic_scalar_bytes(dense_bytes)

    def encode(self, state: StateDict, ref: StateDict | None = None) -> Payload:
        payload = self.inner.encode(state, ref)
        if not payload.tensors:  # inner stage already byte-packed
            return Payload(
                codec=self.spec,
                kind=payload.kind,
                meta=payload.meta,
                blob=payload.blob,
            )
        blob, spec = _pack(payload.tensors)
        return Payload(
            codec=self.spec,
            kind=payload.kind,
            meta={**payload.meta, "packed": spec},
            blob=blob,
        )

    def decode(self, payload: Payload, ref: StateDict | None = None) -> StateDict:
        self._check(payload)
        meta = dict(payload.meta)
        spec = meta.pop("packed", None)
        tensors = _unpack(payload.blob, spec, ref) if spec is not None else {}
        inner_payload = Payload(
            codec=self.inner.spec,
            kind=payload.kind,
            tensors=tensors,
            meta=meta,
            blob=None if spec is not None else payload.blob,
        )
        return self.inner.decode(inner_payload, ref)


# -- registry -----------------------------------------------------------------

_BASE_CODECS: dict[str, Callable[[], Codec]] = {}
_FILTERS: dict[str, Callable[[Codec], Codec]] = {}


def register_codec(name: str, factory: Callable[[], Codec]) -> None:
    """Register a base codec under a spec name."""
    _BASE_CODECS[name] = factory


def register_filter(name: str, factory: Callable[[Codec], Codec]) -> None:
    """Register a pipeline stage usable as a ``+name`` spec suffix."""
    _FILTERS[name] = factory


register_codec("identity", IdentityCodec)
register_codec("delta", DeltaCodec)
register_codec("fp16", Fp16Codec)
register_codec("qint8", Qint8Codec)
register_filter("deflate", DeflateCodec)


def codec_specs() -> tuple[str, ...]:
    """The registered base codec names (filters compose via ``+``)."""
    return tuple(sorted(_BASE_CODECS))


def make_codec(spec: "str | Codec") -> Codec:
    """Build a codec pipeline from its spec string (``"base[+filter...]"``).

    Accepts an already-built :class:`Codec` unchanged, so every API taking
    a codec accepts either form.
    """
    if isinstance(spec, Codec):
        return spec
    if not isinstance(spec, str) or not spec:
        raise TypeError(f"codec spec must be a non-empty string, got {spec!r}")
    base, *filters = spec.split("+")
    if base not in _BASE_CODECS:
        raise ValueError(
            f"unknown codec {base!r}; expected one of {codec_specs()}"
        )
    codec = _BASE_CODECS[base]()
    for stage in filters:
        if stage not in _FILTERS:
            raise ValueError(
                f"unknown codec filter {stage!r}; expected one of "
                f"{tuple(sorted(_FILTERS))}"
            )
        codec = _FILTERS[stage](codec)
    return codec


def analytic_scalar_bytes(spec: "str | Codec", dense_bytes: float = 8.0) -> float:
    """Wire bytes per state scalar for a codec spec (analytic upper bound)."""
    return make_codec(spec).analytic_scalar_bytes(dense_bytes)
