"""Gradient and behaviour tests for dense/elementwise layers."""

import numpy as np
import pytest

from repro import nn
from tests.gradcheck import check_module_gradients


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_gradients(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        check_module_gradients(layer, rng.normal(size=(5, 4)))

    def test_no_bias(self, rng):
        layer = nn.Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        check_module_gradients(layer, rng.normal(size=(2, 4)))

    def test_rejects_wrong_input_width(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(rng.normal(size=(5, 7)))

    def test_backward_before_forward_raises(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 3)))


class TestActivations:
    @pytest.mark.parametrize(
        "layer_factory",
        [nn.ReLU, nn.Tanh],
        ids=["relu", "tanh"],
    )
    def test_gradients(self, layer_factory, rng):
        layer = layer_factory()
        # Keep values away from the ReLU kink where FD is ill-defined.
        x = rng.normal(size=(4, 6))
        x[np.abs(x) < 1e-3] = 0.5
        check_module_gradients(layer, x)

    def test_relu_zeroes_negatives(self, rng):
        out = nn.ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    @pytest.mark.parametrize("step", [1, 2, 3], ids=["contiguous", "step2", "step3"])
    def test_relu_is_bit_equal_to_where(self, step):
        """±0.0 -> +0.0, NaN -> 0.0, -inf -> 0.0: the ufunc form must agree with
        np.where(x > 0, x, 0.0) bit for bit, on SIMD bodies and scalar tails."""
        tiny = np.finfo(np.float64).tiny
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 5e-324, -5e-324]
        x = np.array((special + [1.5, -2.5]) * 7)[::step]
        with np.errstate(invalid="ignore"):
            out = nn.ReLU().forward(x)
            expected = np.where(x > 0, x, 0.0)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_relu_keeps_the_memory_layout_of_its_input(self, rng):
        x = rng.normal(size=(2, 4, 4, 3)).transpose(0, 3, 1, 2)
        layer = nn.ReLU()
        out = layer.forward(x)
        assert out.strides == x.strides
        np.testing.assert_array_equal(out, np.where(x > 0, x, 0.0))
        assert layer.backward(out).strides == x.strides

    def test_tanh_matches_numpy(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(nn.Tanh().forward(x), np.tanh(x))

    def test_tanh_saturates_without_overflow(self):
        x = np.array([[-1e308, -50.0, 0.0, 50.0, 1e308]])
        layer = nn.Tanh()
        with np.errstate(all="raise"):
            out = layer.forward(x)
            grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(out, [[-1.0, -1.0, 0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "layer_factory", [nn.ReLU, nn.Tanh, nn.Flatten], ids=["relu", "tanh", "flatten"]
    )
    def test_backward_before_forward_raises(self, layer_factory):
        with pytest.raises(RuntimeError, match="before forward"):
            layer_factory().backward(np.zeros((2, 3)))


class TestFlatten:
    def test_round_trip_shapes(self, rng):
        layer = nn.Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        out = layer.forward(x)
        assert out.shape == (3, 32)
        grad = layer.backward(out)
        assert grad.shape == x.shape

    def test_gradients(self, rng):
        check_module_gradients(nn.Flatten(), rng.normal(size=(2, 3, 4, 4)))

    def test_backward_returns_the_forward_inputs_memory_layout(self, rng):
        """After a conv stack the input is an NCHW view of NHWC memory; the
        gradient must come back laid out the same way (values unchanged)."""
        layer = nn.Flatten()
        x = rng.normal(size=(2, 4, 4, 3)).transpose(0, 3, 1, 2)
        out = layer.forward(x)
        np.testing.assert_array_equal(out, np.ascontiguousarray(x).reshape(2, -1))
        grad_out = rng.normal(size=out.shape)
        grad = layer.backward(grad_out)
        assert grad.strides == x.strides
        np.testing.assert_array_equal(grad, grad_out.reshape(x.shape))


class TestSequential:
    def test_chains_forward_and_backward(self, rng):
        model = nn.Sequential(
            nn.Linear(6, 5, rng=rng), nn.Tanh(), nn.Linear(5, 2, rng=rng)
        )
        check_module_gradients(model, rng.normal(size=(3, 6)))

    def test_indexing_and_len(self, rng):
        model = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(model) == 2
        assert isinstance(model[1], nn.Tanh)

    def test_append(self, rng):
        model = nn.Sequential()
        model.append(nn.Linear(3, 3, rng=rng))
        assert len(model) == 1
        assert len(model.parameters()) == 2

    def test_empty_sequential_is_the_identity(self, rng):
        model = nn.Sequential()
        x = rng.normal(size=(2, 3))
        assert model.forward(x) is x
        assert model.backward(x) is x
