"""Tests for the layered wire codec stack (`repro.fl.codec`).

Three contracts, in order of importance:

1. Lossless codecs round-trip **bit-exactly** (``decode(encode(s, ref),
   ref) == s``), so run traces cannot depend on the wire format.
2. Lossy codecs round-trip within their stated tolerance, ignore the
   reference state, and produce **engine-invariant** traces (serial ==
   parallel) because the in-process engine replays the same round-trips.
3. With ``codec="delta"`` the measured per-round traffic genuinely drops —
   by the lossless entropy bound at training step sizes, and past the 2x
   acceptance bar in the fine-tuning regime delta encoding exists for.
"""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FedAvgStrategy
from repro.data import partition_clients, synthetic_pacs
from repro.fl import (
    Client,
    FederatedConfig,
    FederatedServer,
    LocalTrainingConfig,
    ParallelExecutor,
    SerialExecutor,
    make_codec,
)
from repro.fl.codec import (
    Codec,
    DeflateCodec,
    DeltaCodec,
    Fp16Codec,
    IdentityCodec,
    Payload,
    Qint8Codec,
    _deflate,
    _shuffle,
    _tensor_spec,
    _xor_bytes,
    analytic_scalar_bytes,
    codec_specs,
)
from repro.fl.communication import method_communication
from repro.nn import build_mlp_model
from repro.nn.serialize import encode_payload
from repro.utils.rng import SeedTree

SUITE = synthetic_pacs(seed=0, samples_per_class=8, image_size=8)
FAST = LocalTrainingConfig(batch_size=8)


def make_state(rng, offset=0.0):
    return {
        "conv.weight": rng.normal(size=(4, 3, 2, 2)) + offset,
        "conv.bias": rng.normal(size=(4,)) + offset,
        "head.weight": rng.normal(size=(5, 4)).astype(np.float32),
        "bn.count": np.arange(6, dtype=np.int64),
    }


def assert_states_bit_identical(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        assert a[key].dtype == b[key].dtype
        assert a[key].shape == b[key].shape
        np.testing.assert_array_equal(a[key], b[key])


class TestRegistry:
    def test_stock_codecs_are_registered(self):
        assert set(codec_specs()) == {"identity", "delta", "fp16", "qint8"}

    @pytest.mark.parametrize("spec", ["identity", "delta", "fp16", "qint8"])
    def test_spec_round_trips(self, spec):
        assert make_codec(spec).spec == spec

    def test_deflate_composes_onto_any_base(self):
        codec = make_codec("fp16+deflate")
        assert isinstance(codec, DeflateCodec)
        assert isinstance(codec.inner, Fp16Codec)
        assert codec.spec == "fp16+deflate"
        assert not codec.lossless

    def test_codec_instances_pass_through(self):
        codec = DeltaCodec()
        assert make_codec(codec) is codec

    def test_unknown_base_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec("zstd")

    def test_unknown_filter_raises(self):
        with pytest.raises(ValueError, match="unknown codec filter"):
            make_codec("identity+brotli")

    def test_non_string_spec_raises(self):
        with pytest.raises(TypeError):
            make_codec(42)

    def test_stateful_implies_lossless_for_stock_codecs(self):
        for spec in codec_specs():
            codec = make_codec(spec)
            if codec.stateful:
                assert codec.lossless


class TestLosslessRoundTrips:
    @pytest.mark.parametrize("spec", ["identity", "delta", "identity+deflate"])
    def test_exact_without_reference(self, rng, spec):
        codec = make_codec(spec)
        state = make_state(rng)
        decoded = codec.decode(codec.encode(state), None)
        assert_states_bit_identical(decoded, state)

    @pytest.mark.parametrize("spec", ["delta", "delta+deflate"])
    def test_exact_against_reference(self, rng, spec):
        codec = make_codec(spec)
        state = make_state(rng)
        ref = make_state(rng, offset=0.5)
        payload = codec.encode(state, ref)
        assert payload.kind == "delta"
        assert_states_bit_identical(codec.decode(payload, ref), state)

    def test_delta_frame_needs_its_reference(self, rng):
        codec = DeltaCodec()
        payload = codec.encode(make_state(rng), make_state(rng))
        with pytest.raises(ValueError, match="reference"):
            codec.decode(payload, None)

    def test_delta_rejects_mismatched_reference_keys(self, rng):
        codec = DeltaCodec()
        ref = make_state(rng)
        ref.pop("conv.bias")
        with pytest.raises(ValueError, match="keys"):
            codec.encode(make_state(rng), ref)

    def test_decode_with_wrong_codec_fails_loudly(self, rng):
        payload = IdentityCodec().encode(make_state(rng))
        with pytest.raises(ValueError, match="encoded by codec"):
            DeltaCodec().decode(payload, None)

    def test_roundtrip_is_identity_for_lossless(self, rng):
        state = make_state(rng)
        assert DeltaCodec().roundtrip(state) is state
        assert IdentityCodec().roundtrip(state) is state

    @given(st.integers(min_value=0, max_value=2**31), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_delta_round_trip_property(self, seed, with_ref):
        """Property: delta decoding is bit-exact for arbitrary float and
        integer tensors, with and without a reference."""
        rng = np.random.default_rng(seed)
        state = {
            "f64": rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-8, 8),
            "f32": rng.normal(size=(7,)).astype(np.float32),
            "i32": rng.integers(-1000, 1000, size=(2, 5)).astype(np.int32),
            "scalar": np.array(rng.normal()),
        }
        ref = (
            {key: value + rng.normal() * 1e-6 for key, value in state.items()}
            if with_ref
            else None
        )
        if ref is not None:
            ref = {k: v.astype(state[k].dtype) for k, v in ref.items()}
        codec = DeltaCodec()
        decoded = codec.decode(codec.encode(state, ref), ref)
        assert_states_bit_identical(decoded, state)


class TestLossyRoundTrips:
    def test_fp16_within_relative_tolerance(self, rng):
        state = make_state(rng)
        decoded = Fp16Codec().roundtrip(state)
        for key in ("conv.weight", "conv.bias"):
            assert decoded[key].dtype == state[key].dtype
            np.testing.assert_allclose(decoded[key], state[key], rtol=1e-3, atol=1e-4)

    def test_fp16_passes_non_floats_through_exactly(self, rng):
        state = make_state(rng)
        decoded = Fp16Codec().roundtrip(state)
        np.testing.assert_array_equal(decoded["bn.count"], state["bn.count"])
        assert decoded["bn.count"].dtype == state["bn.count"].dtype

    def test_qint8_within_half_step_tolerance(self, rng):
        state = make_state(rng)
        decoded = Qint8Codec().roundtrip(state)
        for key in ("conv.weight", "conv.bias", "head.weight"):
            value = state[key]
            step = (value.max() - value.min()) / 255.0
            assert decoded[key].dtype == value.dtype
            assert np.max(np.abs(decoded[key] - value)) <= step / 2 + 1e-12
        np.testing.assert_array_equal(decoded["bn.count"], state["bn.count"])

    def test_qint8_constant_tensor_is_exact(self):
        state = {"w": np.full((3, 3), 0.25)}
        decoded = Qint8Codec().roundtrip(state)
        np.testing.assert_array_equal(decoded["w"], state["w"])

    @pytest.mark.parametrize("spec", ["fp16", "qint8"])
    def test_lossy_codecs_ignore_the_reference(self, rng, spec):
        """Statelessness is what keeps serial and parallel traces identical
        under lossy codecs: a reference chain would make the decode depend
        on engine-side history."""
        codec = make_codec(spec)
        state = make_state(rng)
        ref = make_state(rng, offset=1.0)
        with_ref = codec.decode(codec.encode(state, ref), ref)
        without = codec.decode(codec.encode(state), None)
        assert_states_bit_identical(with_ref, without)

    def test_deflate_preserves_the_inner_result(self, rng):
        state = make_state(rng)
        plain = Fp16Codec().roundtrip(state)
        packed = make_codec("fp16+deflate").roundtrip(state)
        assert_states_bit_identical(plain, packed)


class TestWireSizes:
    """Encoded payload sizes, through the real serializer."""

    @staticmethod
    def _bytes(codec, state, ref=None):
        return len(encode_payload(make_codec(codec).encode(state, ref)))

    def test_quantized_codecs_shrink_the_wire(self, rng):
        state = {"w": rng.normal(size=(64, 64)), "b": rng.normal(size=(64,))}
        identity = self._bytes("identity", state)
        assert self._bytes("fp16", state) < identity / 3.5
        assert self._bytes("qint8", state) < identity / 6.5

    def test_delta_beats_identity_near_a_reference(self, rng):
        """The acceptance-bar property at the codec level: against a
        fine-tune-scale reference (relative change ~1e-8) the delta frame
        is at least 2x smaller than the identity wire."""
        state = {"w": rng.normal(size=(64, 64)), "b": rng.normal(size=(64,))}
        ref = {key: value * (1.0 + 1e-8) for key, value in state.items()}
        assert self._bytes("delta", state, ref) * 2 <= self._bytes("identity", state)

    def test_delta_full_frame_still_compresses(self, rng):
        """Even the reference-less first frame ships shuffled + DEFLATEd:
        exponent byte planes across a tensor are low-entropy."""
        state = {"w": rng.normal(size=(64, 64))}
        assert self._bytes("delta", state) < self._bytes("identity", state)

    def test_analytic_scalar_bytes_per_codec(self):
        assert analytic_scalar_bytes("identity") == 8.0
        assert analytic_scalar_bytes("delta") == 8.0  # lossless upper bound
        assert analytic_scalar_bytes("fp16") == 2.0
        assert analytic_scalar_bytes("qint8") == 1.0
        assert analytic_scalar_bytes("qint8+deflate") == 1.0

    def test_method_communication_codec_adjustment(self):
        model = build_mlp_model((3, 8, 8), 7, rng=np.random.default_rng(0))
        dense = method_communication("fedavg", model)
        half = method_communication("fedavg", model, codec="fp16")
        assert half.per_round_up * 4 == dense.per_round_up
        assert half.per_round_down * 4 == dense.per_round_down


# -- end-to-end: codecs under the execution engines ---------------------------


def _make_clients(n_clients=8, seed=0):
    partition = partition_clients(
        SUITE, [0, 1], n_clients, 0.2, np.random.default_rng(seed)
    )
    return [Client(i, d) for i, d in enumerate(partition.client_datasets)]


def _run_once(codec, executor, rounds=3, local_config=FAST):
    server = FederatedServer(
        strategy=FedAvgStrategy(local_config),
        clients=_make_clients(),
        model=build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        ),
        eval_sets={"test": SUITE.datasets[2]},
        config=FederatedConfig(
            num_rounds=rounds, clients_per_round=4, seed=0, codec=codec
        ),
        executor=executor,
    )
    return server.run()


def _trace(result):
    return (
        [
            (
                record.round_index,
                record.mean_local_loss,
                tuple(record.participants),
                tuple(sorted(record.eval_accuracy.items())),
            )
            for record in result.history.records
        ],
        tuple(sorted(result.final_accuracy.items())),
    )


class TestCrossEngineTraces:
    def test_delta_trace_bit_identical_to_identity_on_both_engines(self):
        """The headline regression: codec="delta" may not change a single
        bit of the run trace, serially or across the process pool."""
        baseline = _run_once("identity", SerialExecutor())
        serial_delta = _run_once("delta", SerialExecutor(codec="delta"))
        with ParallelExecutor(num_workers=2, codec="delta") as executor:
            parallel_delta = _run_once("delta", executor)
        with ParallelExecutor(num_workers=2) as executor:
            parallel_identity = _run_once("identity", executor)
        reference = _trace(baseline)
        assert _trace(serial_delta) == reference
        assert _trace(parallel_delta) == reference
        assert _trace(parallel_identity) == reference
        for key in baseline.final_state:
            np.testing.assert_array_equal(
                baseline.final_state[key], parallel_delta.final_state[key]
            )

    @pytest.mark.parametrize("spec", ["fp16", "qint8"])
    def test_lossy_codecs_are_engine_invariant(self, spec):
        serial = _run_once(spec, SerialExecutor(codec=spec))
        with ParallelExecutor(num_workers=2, codec=spec) as executor:
            parallel = _run_once(spec, executor)
        assert _trace(serial) == _trace(parallel)
        for key in serial.final_state:
            np.testing.assert_array_equal(
                serial.final_state[key], parallel.final_state[key]
            )

    def test_fp16_accuracy_stays_within_tolerance(self):
        """Stated tolerance for the lossy wire: half-precision training must
        track the identity run's accuracy closely at this scale."""
        baseline = _run_once("identity", SerialExecutor())
        fp16 = _run_once("fp16", SerialExecutor(codec="fp16"))
        for name, accuracy in baseline.final_accuracy.items():
            assert abs(fp16.final_accuracy[name] - accuracy) <= 0.1

    def test_mismatched_executor_codec_is_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            FederatedServer(
                strategy=FedAvgStrategy(FAST),
                clients=_make_clients(),
                model=build_mlp_model(
                    SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
                ),
                eval_sets={},
                config=FederatedConfig(num_rounds=1, codec="delta"),
                executor=SerialExecutor(),  # carries identity
            )

    def test_bad_codec_spec_fails_at_config_time(self):
        with pytest.raises(ValueError, match="unknown codec"):
            FederatedConfig(codec="zstd")


class TestMeasuredWireReduction:
    """Per-round measured bytes with codec="delta" vs. identity."""

    @staticmethod
    def _per_round_bytes(codec, local_config, rounds=3):
        """Total wire bytes per round, measured hop-by-hop on a 2-worker
        pool (registration lands in round 0's bucket)."""
        clients = _make_clients()
        model = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        strategy = FedAvgStrategy(local_config)
        state = model.state_dict()
        tree = SeedTree(0).child("server", "codec-bytes")
        totals = []
        with ParallelExecutor(num_workers=2, codec=codec) as executor:
            for round_index in range(rounds):
                before = executor.wire_stats()
                seeds = [
                    tree.seed("client", client.client_id, "round", round_index)
                    for client in clients
                ]
                updates = executor.run_round(
                    strategy, model, state, clients, round_index, seeds
                )
                after = executor.wire_stats()
                totals.append(
                    (after.bytes_up - before.bytes_up)
                    + (after.bytes_down - before.bytes_down)
                )
                state = strategy.aggregate(state, updates, round_index)
        return totals

    def test_delta_halves_traffic_in_the_fine_tune_regime(self):
        """The acceptance bar: after round 1, delta moves <= half of
        identity's bytes.  Measured in the regime delta encoding is *for*
        — fine-tuning, where updates are tiny relative to the weights.
        (From-scratch training at bench learning rates randomizes the low
        mantissa bits every round, which caps any lossless codec near
        1.3x; see the module docstring of repro.fl.codec.)"""
        fine_tune = LocalTrainingConfig(batch_size=8, learning_rate=1e-8)
        identity = self._per_round_bytes("identity", fine_tune)
        delta = self._per_round_bytes("delta", fine_tune)
        for identity_round, delta_round in zip(identity[1:], delta[1:]):
            assert delta_round * 2 <= identity_round

    def test_delta_still_wins_at_training_step_sizes(self):
        """From-scratch regression floor: even with full-entropy updates,
        the shuffled-XOR delta must beat identity by a clear margin."""
        identity = self._per_round_bytes("identity", FAST)
        delta = self._per_round_bytes("delta", FAST)
        assert sum(delta[1:]) * 1.1 <= sum(identity[1:])


class TestPayloadTransport:
    def test_payload_takes_the_out_of_band_fast_path(self, rng):
        payload = IdentityCodec().encode(make_state(rng))
        blob = encode_payload(payload)
        assert blob[:4] == b"RPB5"
        from repro.nn.serialize import decode_payload

        decoded = decode_payload(blob)
        assert isinstance(decoded, Payload)
        assert_states_bit_identical(decoded.tensors, payload.tensors)

    def test_custom_codec_registration(self):
        class NoopCodec(Codec):
            name = "noop-test"

            def encode(self, state, ref=None):
                return Payload(codec=self.spec, kind="full", tensors=state)

            def decode(self, payload, ref=None):
                return payload.tensors

        from repro.fl.codec import _BASE_CODECS, register_codec

        register_codec("noop-test", NoopCodec)
        try:
            assert isinstance(make_codec("noop-test"), NoopCodec)
            assert "noop-test" in codec_specs()
        finally:
            _BASE_CODECS.pop("noop-test", None)


# -- the DEFLATE stage: same stream format, bounded inflate --------------------


def _frame_body(state, ref=None):
    """The bytes a frame compresses — the parent's construction, kept here:
    shuffled tensors (full frame) or shuffled XOR planes (delta frame)."""
    if ref is None:
        return b"".join(_shuffle(state[key]) for key, _, _ in _tensor_spec(state))
    return b"".join(
        _xor_bytes(state[key], ref[key]).T.tobytes() for key, _, _ in _tensor_spec(state)
    )


class TestWireCompatibility:
    """Why there is no protocol bump: the frame is one plain zlib stream on
    both sides of this change, whichever strategy wrote it."""

    def test_frames_compressed_the_old_way_still_decode(self, rng):
        state, ref = make_state(rng), make_state(rng, offset=0.5)
        codec = DeltaCodec()
        delta = Payload(
            codec="delta", kind="delta", blob=zlib.compress(_frame_body(state, ref), 6)
        )
        assert_states_bit_identical(codec.decode(delta, ref), state)
        full = Payload(
            codec="delta",
            kind="full",
            meta={"spec": _tensor_spec(state)},
            blob=zlib.compress(_frame_body(state), 6),
        )
        assert_states_bit_identical(codec.decode(full, None), state)

    def test_new_frames_inflate_with_a_bare_decompress(self, rng):
        state, ref = make_state(rng), make_state(rng, offset=0.5)
        codec = DeltaCodec()
        assert zlib.decompress(codec.encode(state, ref).blob) == _frame_body(state, ref)
        assert zlib.decompress(codec.encode(state).blob) == _frame_body(state)
        packed = make_codec("identity+deflate").encode(state)
        assert zlib.decompress(packed.blob) == _frame_body(state)


_WIRE_DTYPES = ["<f8", "<f4", "<f2", "<i8", "|u1", "|b1"]
_WIRE_SHAPES = [(), (0,), (1,), (5,), (3, 4), (2, 0, 3), (2, 3, 2)]


@st.composite
def _wire_states(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    state = {}
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        dtype = np.dtype(draw(st.sampled_from(_WIRE_DTYPES)))
        shape = draw(st.sampled_from(_WIRE_SHAPES))
        state[f"t{index}"] = (rng.normal(size=shape) * 3).astype(dtype)
    mode = draw(st.sampled_from(["none", "self", "near"]))
    if mode == "none":
        return state, None
    if mode == "self":
        return state, state
    return state, {
        key: (value + (rng.random(value.shape) < 0.3)).astype(value.dtype)
        for key, value in state.items()
    }


class TestDeflateRoundTripProperty:
    @given(_wire_states())
    @settings(max_examples=60, deadline=None)
    def test_delta_is_exact_for_every_wire_dtype(self, drawn):
        state, ref = drawn
        codec = DeltaCodec()
        payload = codec.encode(state, ref)
        assert payload.kind == ("full" if ref is None else "delta")
        assert_states_bit_identical(codec.decode(payload, ref), state)

    @pytest.mark.parametrize("spec", ["fp16+deflate", "qint8+deflate"])
    @given(_wire_states())
    @settings(max_examples=40, deadline=None)
    def test_deflate_filter_preserves_the_inner_codec(self, spec, drawn):
        state, ref = drawn
        codec = make_codec(spec)
        decoded = codec.decode(codec.encode(state, ref), ref)
        assert_states_bit_identical(decoded, codec.inner.roundtrip(state))


class TestDeflateSize:
    """Size is pinned, time is not: run-length + Huffman must not cost bytes
    against zlib's default strategy on the frames a real run produces."""

    @staticmethod
    def _recorded_pairs(rounds=3):
        """(state, reference) for every broadcast and upload of a tiny FedAvg
        run; the reference is what the delta codec would hold (None first)."""
        clients = _make_clients()
        model = build_mlp_model(
            SUITE.image_shape, SUITE.num_classes, rng=np.random.default_rng(0)
        )
        strategy = FedAvgStrategy(FAST)
        state = model.state_dict()
        tree = SeedTree(0).child("server", "codec-bytes")
        pairs, last_broadcast, last_upload = [], None, {}
        executor = SerialExecutor()
        for round_index in range(rounds):
            seeds = [
                tree.seed("client", client.client_id, "round", round_index)
                for client in clients
            ]
            pairs.append((state, last_broadcast))
            last_broadcast = state
            updates = executor.run_round(
                strategy, model, state, clients, round_index, seeds
            )
            for update in updates:
                pairs.append((update.state, last_upload.get(update.client_id)))
                last_upload[update.client_id] = update.state
            state = strategy.aggregate(state, updates, round_index)
        return pairs

    def test_rle_frames_are_no_larger_than_default_strategy_frames(self):
        pairs = self._recorded_pairs()
        assert sum(ref is None for _, ref in pairs) == 9  # 1 broadcast + 8 clients
        assert sum(ref is not None for _, ref in pairs) == 18
        for state, ref in pairs:
            body = _frame_body(state, ref)
            blob = DeltaCodec().encode(state, ref).blob
            assert blob == _deflate(body)
            slack = 1.02 if ref is None else 1.01
            assert len(blob) <= slack * len(zlib.compress(body, 6))


class TestBoundedInflate:
    """`_unpack` knows its byte count before it inflates; nothing a frame
    says may make it allocate past that."""

    REF = {"w": np.zeros(16)}

    def _decode(self, blob):
        payload = Payload(codec="delta", kind="delta", blob=blob)
        return DeltaCodec().decode(payload, self.REF)

    def test_a_bomb_is_refused_before_it_inflates(self):
        deflater = zlib.compressobj()  # 300 MiB of zeros, never held at once
        bomb = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(300))
        bomb += deflater.flush()
        assert len(bomb) < 400_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="does not match its spec"):
                self._decode(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # What may be held: the 129 inflated bytes, zlib's inflate state (a
        # 32 KiB window + tables) and `unconsumed_tail`, a copy of the unread
        # *input* — frame-sized, never the 300 MiB the stream would inflate to.
        assert peak < 4 * self.REF["w"].nbytes + len(bomb) + (64 << 10)

    def test_truncated_trailing_and_overlong_streams_are_refused(self):
        good = _deflate(b"\x01" * 128)
        np.testing.assert_array_equal(
            self._decode(good)["w"].view(np.uint8), np.ones(128, dtype=np.uint8)
        )
        for blob in (good[:-3], good + b"x", _deflate(b"\x01" * 129)):
            with pytest.raises(ValueError, match="does not match its spec"):
                self._decode(blob)

    def test_full_frames_are_bounded_by_their_own_spec(self):
        state = {"w": np.arange(16.0)}
        payload = DeltaCodec().encode(state)
        lying = Payload(
            codec="delta",
            kind="full",
            meta={"spec": (("w", "<f8", (15,)),)},
            blob=payload.blob,
        )
        with pytest.raises(ValueError, match="does not match its spec"):
            DeltaCodec().decode(lying, None)
        packed = make_codec("identity+deflate").encode(state)
        short = Payload(
            codec=packed.codec,
            kind="full",
            meta={"packed": (("w", "<f8", (17,)),)},
            blob=packed.blob,
        )
        with pytest.raises(ValueError, match="does not match its spec"):
            make_codec("identity+deflate").decode(short, None)
