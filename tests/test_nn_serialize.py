"""Tests for state-dict arithmetic (the FL wire format), incl. properties."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregate import make_aggregator
from repro.nn.serialize import (
    MeanAccumulator,
    average_states,
    decode_payload,
    encode_payload,
    flatten_state,
    state_add,
    state_allclose,
    state_sub,
    unflatten_state,
    zeros_like_state,
)


def make_state(rng, offset=0.0):
    return {
        "a.weight": rng.normal(size=(3, 2)) + offset,
        "a.bias": rng.normal(size=(2,)) + offset,
        "b.weight": rng.normal(size=(4,)) + offset,
    }


class TestAverageStates:
    def test_uniform_average(self, rng):
        s1, s2 = make_state(rng), make_state(rng)
        avg = average_states([s1, s2])
        for key in s1:
            np.testing.assert_allclose(avg[key], (s1[key] + s2[key]) / 2)

    def test_weighted_by_dataset_size(self, rng):
        s1, s2 = make_state(rng), make_state(rng)
        avg = average_states([s1, s2], weights=[30, 10])
        for key in s1:
            np.testing.assert_allclose(avg[key], 0.75 * s1[key] + 0.25 * s2[key])

    def test_single_state_identity(self, rng):
        s = make_state(rng)
        assert state_allclose(average_states([s]), s)

    def test_rejects_key_mismatch(self, rng):
        s1 = make_state(rng)
        s2 = make_state(rng)
        s2.pop("a.bias")
        with pytest.raises(KeyError):
            average_states([s1, s2])

    def test_rejects_zero_total_weight(self, rng):
        with pytest.raises(ValueError):
            average_states([make_state(rng)], weights=[0.0])

    def test_rejects_negative_weight(self, rng):
        with pytest.raises(ValueError):
            average_states([make_state(rng), make_state(rng)], weights=[1.0, -1.0])

    def test_average_of_identical_states_is_identity(self, rng):
        s = make_state(rng)
        avg = average_states([s, s, s], weights=[5, 1, 2])
        assert state_allclose(avg, s)


class TestStateArithmetic:
    def test_add_sub_round_trip(self, rng):
        s1, s2 = make_state(rng), make_state(rng)
        delta = state_sub(s1, s2)
        back = state_add(s2, delta)
        assert state_allclose(back, s1)

    def test_zeros_like(self, rng):
        zeros = zeros_like_state(make_state(rng))
        assert all(np.all(v == 0) for v in zeros.values())


class TestFlatten:
    def test_round_trip(self, rng):
        s = make_state(rng)
        vector = flatten_state(s)
        assert vector.shape == (3 * 2 + 2 + 4,)
        restored = unflatten_state(vector, s)
        assert state_allclose(restored, s)

    def test_rejects_wrong_length(self, rng):
        s = make_state(rng)
        with pytest.raises(ValueError):
            unflatten_state(np.zeros(3), s)
        with pytest.raises(ValueError):
            unflatten_state(np.zeros(1000), s)

    def test_key_order_is_stable(self, rng):
        s = make_state(rng)
        reordered = {k: s[k] for k in reversed(list(s))}
        np.testing.assert_array_equal(flatten_state(s), flatten_state(reordered))


@st.composite
def state_lists(draw):
    """Random lists of compatible state dicts plus positive weights."""
    n_states = draw(st.integers(min_value=1, max_value=4))
    shapes = [(2, 3), (4,)]
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    states = [
        {f"k{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        for _ in range(n_states)
    ]
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=n_states,
            max_size=n_states,
        )
    )
    return states, weights


class TestAveragingProperties:
    @given(state_lists())
    @settings(max_examples=30, deadline=None)
    def test_average_within_componentwise_bounds(self, states_weights):
        """A convex combination never escapes the componentwise min/max."""
        states, weights = states_weights
        avg = average_states(states, weights)
        for key in states[0]:
            stack = np.stack([s[key] for s in states])
            assert np.all(avg[key] <= stack.max(axis=0) + 1e-9)
            assert np.all(avg[key] >= stack.min(axis=0) - 1e-9)

    @given(state_lists(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_weight_scale_invariance(self, states_weights, factor):
        """Scaling all weights by a constant leaves the average unchanged."""
        states, weights = states_weights
        base = average_states(states, weights)
        scaled = average_states(states, [w * factor for w in weights])
        assert state_allclose(base, scaled, atol=1e-8)

    @given(state_lists())
    @settings(max_examples=30, deadline=None)
    def test_flatten_round_trip_property(self, states_weights):
        states, _ = states_weights
        for state in states:
            assert state_allclose(
                unflatten_state(flatten_state(state), state), state
            )


class TestAverageStatesInPlace:
    """The vectorized accumulation must be bit-identical to a scalar
    reimplementation of the canonical reduction (compensated
    double-double TwoSum folds, one divide at the end)."""

    @staticmethod
    def naive(states, weights=None):
        if weights is None:
            weights = [1.0] * len(states)

        def two_sum(a, b):
            s = a + b
            bb = s - a
            return s, (a - (s - bb)) + (b - bb)

        w_hi, w_lo = 0.0, 0.0
        for w in weights:
            w_hi, err = two_sum(w_hi, float(w))
            w_lo += err
        total = w_hi + w_lo
        out = {}
        for key in sorted(states[0]):
            shape = np.shape(states[0][key])
            result = np.empty(shape, dtype=np.float64)
            for idx in np.ndindex(shape):
                hi, lo = 0.0, 0.0
                for w, state in zip(weights, states):
                    hi, err = two_sum(
                        hi, float(state[key][idx]) * float(w)
                    )
                    lo += err
                result[idx] = (hi + lo) / total
            out[key] = result
        return out

    def test_bit_identical_to_naive_sum(self, rng):
        states = [make_state(rng, offset=i * 0.3) for i in range(5)]
        weights = [3.0, 0.0, 1.5, 7.0, 2.0]
        fast = average_states(states, weights)
        for key, value in self.naive(states, weights).items():
            np.testing.assert_array_equal(fast[key], value)

    def test_bit_identical_with_uniform_weights(self, rng):
        states = [make_state(rng) for _ in range(3)]
        fast = average_states(states)
        for key, value in self.naive(states).items():
            np.testing.assert_array_equal(fast[key], value)

    def test_accepts_readonly_inputs_and_returns_writable(self, rng):
        states = [make_state(rng) for _ in range(2)]
        for state in states:
            for value in state.values():
                value.setflags(write=False)
        avg = average_states(states)
        assert all(value.flags.writeable for value in avg.values())

    def test_does_not_mutate_inputs(self, rng):
        states = [make_state(rng) for _ in range(3)]
        originals = [{k: v.copy() for k, v in s.items()} for s in states]
        average_states(states, weights=[1.0, 2.0, 3.0])
        for state, original in zip(states, originals):
            for key in state:
                np.testing.assert_array_equal(state[key], original[key])


class PerKeyMeanAccumulator:
    """The accumulator as it was before the ``(6, P)`` block: one ``(hi,
    lo)`` array pair per key and seven allocating calls per key per fold.
    Kept as the reference the shipped one must equal bit for bit."""

    def __init__(self):
        self.keys = None
        self.hi, self.lo = {}, {}
        self.w_hi = self.w_lo = 0.0
        self.count = 0

    def fold(self, state, weight):
        weight = float(weight)
        keys = sorted(state)
        if self.keys is None:
            self.keys = keys
            for key in keys:
                self.hi[key] = np.zeros(np.shape(state[key]), dtype=np.float64)
                self.lo[key] = np.zeros(np.shape(state[key]), dtype=np.float64)
        for key in keys:
            value = np.multiply(state[key], weight, dtype=np.float64)
            hi, lo = self.hi[key], self.lo[key]
            s = hi + value
            bb = s - hi
            lo += (hi - (s - bb)) + (value - bb)
            hi[...] = s
        s = self.w_hi + weight
        bb = s - self.w_hi
        self.w_lo += (self.w_hi - (s - bb)) + (weight - bb)
        self.w_hi = s
        self.count += 1

    def finalize(self):
        total = self.w_hi + self.w_lo
        return {key: (self.hi[key] + self.lo[key]) / total for key in self.keys}


_FOLD_SHAPES = [(), (0,), (1,), (7,), (3, 4), (2, 0, 3), (2, 3, 2)]
_FOLD_DTYPES = [np.float64, np.float32, np.int64, np.uint8]


@st.composite
def fold_sequences(draw):
    """(states, weights): 1-6 states sharing 1-4 keys of mixed shape and
    dtype, some tensors non-contiguous, weights that may be 0.0 — in a
    drawn order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = [
        (f"k{index}", draw(st.sampled_from(_FOLD_SHAPES)),
         draw(st.sampled_from(_FOLD_DTYPES)), draw(st.booleans()))
        for index in range(draw(st.integers(1, 4)))
    ]
    count = draw(st.integers(1, 6))
    states = []
    for _ in range(count):
        state = {}
        for key, shape, dtype, strided in layout:
            scale = 10.0 ** rng.integers(-6, 7) if dtype in _FOLD_DTYPES[:2] else 50
            if strided and shape:
                wide = (rng.normal(size=shape[:-1] + (2 * shape[-1],)) * scale).astype(dtype)
                state[key] = wide[..., ::2]
            else:
                state[key] = np.asarray(rng.normal(size=shape) * scale).astype(dtype)
        states.append(state)
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e4)),
        min_size=count, max_size=count,
    ))
    order = draw(st.permutations(range(count)))
    return [states[i] for i in order], [weights[i] for i in order]


class TestMeanAccumulatorBlock:
    """The one-block accumulator is the per-key one's arithmetic, moved."""

    @given(fold_sequences())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_the_per_key_reference(self, drawn):
        states, weights = drawn
        acc, reference = MeanAccumulator(), PerKeyMeanAccumulator()
        for state, weight in zip(states, weights):
            acc.fold(state, weight)
            reference.fold(state, weight)
            for key in state:  # running sums too, not only the quotient
                np.testing.assert_array_equal(acc._hi[key], reference.hi[key])
                np.testing.assert_array_equal(acc._lo[key], reference.lo[key])
        assert acc.count == reference.count
        if sum(weights) > 0:
            result, expected = acc.finalize(), reference.finalize()
            for key in expected:
                assert result[key].shape == expected[key].shape
                np.testing.assert_array_equal(result[key], expected[key])
        else:
            with pytest.raises(ValueError, match="sum to zero"):
                acc.finalize()

    @given(fold_sequences())
    @settings(max_examples=30, deadline=None)
    def test_all_zero_weights_take_the_uniform_shadow(self, drawn):
        states, _ = drawn
        stream = make_aggregator("mean").begin_stream()
        reference = PerKeyMeanAccumulator()
        for state in states:
            stream.fold(state, 0.0)
            reference.fold(state, 1.0)
        result, expected = stream.finalize(), reference.finalize()
        for key in expected:
            np.testing.assert_array_equal(result[key], expected[key])

    def test_views_share_the_one_block(self, rng):
        acc = MeanAccumulator()
        acc.fold({"s": np.array(2.0), "e": np.empty((0, 3)), "m": rng.normal(size=(3, 2))}, 1.0)
        assert acc._block.shape == (6, 7)
        for views in (acc._hi, acc._lo, acc._term):
            for key, shape in (("s", ()), ("e", (0, 3)), ("m", (3, 2))):
                assert views[key].shape == shape
                assert views[key].size == 0 or np.shares_memory(views[key], acc._block)

    def test_memory_is_constant_in_the_number_of_folds(self, rng):
        acc = MeanAccumulator()
        acc.fold(make_state(rng), 1.0)
        block = acc._block
        for _ in range(5):
            acc.fold(make_state(rng), 2.0)
        assert acc._block is block

    def test_mutating_a_folded_state_does_not_change_the_mean(self, rng):
        states = [make_state(rng) for _ in range(3)]
        expected = average_states([{k: v.copy() for k, v in s.items()} for s in states])
        acc = MeanAccumulator()
        for state in states:
            acc.fold(state, 1.0)
            for value in state.values():
                value[...] = np.nan
        for key, value in acc.finalize().items():
            np.testing.assert_array_equal(value, expected[key])

    def test_finalize_out_and_empty_paths(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            MeanAccumulator().finalize()
        out = make_state(rng)
        untouched = {key: value.copy() for key, value in out.items()}
        assert MeanAccumulator().finalize(out=out) is out
        for key in out:
            np.testing.assert_array_equal(out[key], untouched[key])
        acc = MeanAccumulator()
        state = make_state(rng)
        acc.fold(state, 3.0)
        assert acc.finalize(out=out) is out
        for key in out:
            np.testing.assert_array_equal(out[key], acc.finalize()[key])
        empty = MeanAccumulator()
        empty.fold({}, 1.0)
        assert empty.finalize() == {}

    def test_a_state_of_another_shape_or_key_set_raises(self, rng):
        acc = MeanAccumulator()
        acc.fold(make_state(rng), 1.0)
        wrong = make_state(rng)
        wrong["a.weight"] = rng.normal(size=(3, 3))
        with pytest.raises(ValueError):
            acc.fold(wrong, 1.0)
        missing = make_state(rng)
        del missing["a.bias"]
        with pytest.raises(KeyError):
            acc.fold(missing, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            acc.fold(make_state(rng), -1.0)


class TestPayloadCodec:
    """encode/decode round trips, incl. the protocol-5 StateDict fast path."""

    def test_state_dict_takes_out_of_band_fast_path(self, rng):
        state = make_state(rng)
        blob = encode_payload(state)
        assert blob[:4] == b"RPB5"
        decoded = decode_payload(blob)
        assert sorted(decoded) == sorted(state)
        for key in state:
            np.testing.assert_array_equal(decoded[key], state[key])

    def test_fast_path_decodes_zero_copy_readonly(self, rng):
        """Documented contract: fast-path arrays are read-only views into
        the blob; consumers copy before mutating."""
        decoded = decode_payload(encode_payload(make_state(rng)))
        assert all(not value.flags.writeable for value in decoded.values())

    def test_fast_path_handles_noncontiguous_arrays(self, rng):
        state = {"t": np.asarray(rng.normal(size=(6, 4))).T}  # F-contiguous
        decoded = decode_payload(encode_payload(state))
        np.testing.assert_array_equal(decoded["t"], state["t"])

    def test_non_state_dicts_use_the_plain_pickle_path(self):
        for payload in ([1, 2, 3], {"mixed": 1}, {}, "text"):
            blob = encode_payload(payload)
            assert blob[:4] != b"RPB5"
            assert decode_payload(blob) == payload
        # Non-string keys disqualify a dict from the StateDict fast path.
        int_keyed = {1: np.zeros(2)}
        blob = encode_payload(int_keyed)
        assert blob[:4] != b"RPB5"
        np.testing.assert_array_equal(decode_payload(blob)[1], int_keyed[1])

    def test_legacy_plain_pickle_blobs_still_decode(self, rng):
        state = make_state(rng)
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        decoded = decode_payload(blob)
        for key in state:
            np.testing.assert_array_equal(decoded[key], state[key])

    def test_unserializable_payload_names_the_offender(self):
        with pytest.raises(TypeError, match="generator"):
            encode_payload((x for x in range(3)))


class TestBareArrayFastPath:
    """Satellite: bare ndarrays and ``__wire_oob__`` opt-ins take the
    protocol-5 out-of-band path too (FPL's prototype arrays ride inside a
    ``__wire_oob__`` ClientUpdate and previously paid in-band pickling)."""

    def test_bare_array_takes_the_fast_path(self, rng):
        array = rng.normal(size=(32, 8))
        blob = encode_payload(array)
        assert blob[:4] == b"RPB5"
        np.testing.assert_array_equal(decode_payload(blob), array)

    def test_bare_array_decodes_zero_copy(self, rng):
        """Zero-copy contract: the decoded array is a read-only view
        backed by the received blob, not a fresh allocation."""
        array = rng.normal(size=(16, 4))
        blob = encode_payload(array)
        decoded = decode_payload(blob)
        assert not decoded.flags.writeable
        assert np.shares_memory(
            decoded, np.frombuffer(blob, dtype=np.uint8)
        )

    def test_wire_oob_opt_in_carries_nested_arrays_out_of_band(self, rng):
        """An opted-in record (here: the executor's ClientUpdate) puts every
        nested array — including non-state-dict payload entries like FPL's
        integer-keyed prototypes — out of band, decoded zero-copy."""
        from repro.fl.executor import ClientUpdate

        update = ClientUpdate(
            client_id=3,
            num_samples=10,
            state={"w": rng.normal(size=(8, 2))},
            loss=0.5,
            payload={"prototypes": {0: rng.normal(size=4), 1: rng.normal(size=4)}},
        )
        blob = encode_payload(update)
        assert blob[:4] == b"RPB5"
        decoded = decode_payload(blob)
        np.testing.assert_array_equal(decoded.state["w"], update.state["w"])
        for label, proto in update.payload["prototypes"].items():
            clone = decoded.payload["prototypes"][label]
            np.testing.assert_array_equal(clone, proto)
            assert not clone.flags.writeable  # out-of-band view, not a copy

    def test_non_contiguous_bare_array_round_trips(self, rng):
        array = np.asarray(rng.normal(size=(6, 4))).T  # F-contiguous
        np.testing.assert_array_equal(decode_payload(encode_payload(array)), array)
