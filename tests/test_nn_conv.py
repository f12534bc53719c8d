"""Tests for convolution and pooling, including an independent naive oracle."""

import numpy as np
import pytest

from repro import nn
from repro.nn.conv import col2im, im2col
from repro.nn.ensemble import EnsembleConv2d
from repro.style.encoder import FrozenConvEncoder
from tests.gradcheck import check_module_gradients

# Every kernel is checked on this grid, for a C-contiguous NCHW input and for
# the NCHW-shaped view of an NHWC buffer the conv layers hand each other.
KERNEL_GRID = [
    (kernel, stride, padding)
    for kernel in (1, 3, 5)
    for stride in (1, 2)
    for padding in (0, 1, 2)
]
GRID_IDS = [f"k{k}s{s}p{p}" for k, s, p in KERNEL_GRID]
LAYOUTS = ["contiguous", "channels_last"]


def as_layout(x, layout):
    """``x`` unchanged, or the same values as a transposed view of NHWC memory."""
    if layout == "contiguous":
        return x
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def naive_conv2d(x, weight, bias, stride, padding):
    """Reference convolution via explicit loops (the oracle)."""
    batch, _, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kernel) // stride + 1
    out_w = (x.shape[3] - kernel) // stride + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[
                        b, :, i * stride : i * stride + kernel,
                        j * stride : j * stride + kernel,
                    ]
                    out[b, oc, i, j] = np.sum(patch * weight[oc]) + bias[oc]
    return out


class TestIm2col:
    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), c> == <x, col2im(c)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = im2col(x, kernel=3, stride=2, padding=1)
        c = rng.normal(size=cols.shape)
        lhs = np.sum(cols * c)
        rhs = np.sum(x * col2im(c, x.shape, kernel=3, stride=2, padding=1))
        np.testing.assert_allclose(lhs, rhs)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel,stride,padding", KERNEL_GRID, ids=GRID_IDS)
    def test_adjoint_pair_is_exact_on_the_grid(
        self, kernel, stride, padding, layout, rng
    ):
        """Integer-valued operands make both inner products exact in float64,
        so the adjoint identity must hold with ``==``, not a tolerance."""
        x = as_layout(rng.integers(-8, 9, size=(2, 3, 7, 6)).astype(float), layout)
        cols, (out_h, out_w) = im2col(x, kernel, stride, padding)
        assert cols.shape == (2 * out_h * out_w, kernel * kernel * 3)
        assert cols.flags.c_contiguous
        c = rng.integers(-8, 9, size=cols.shape).astype(float)
        back = col2im(c, x.shape, kernel, stride, padding)
        assert back.shape == x.shape
        assert np.sum(cols * c) == np.sum(x * back)

    def test_columns_are_ordered_ki_kj_c(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        cols, _ = im2col(x, kernel=3, stride=1, padding=0)
        np.testing.assert_array_equal(cols[0], x[0].transpose(1, 2, 0).reshape(-1))

    def test_rejects_too_small_input(self, rng):
        with pytest.raises(ValueError, match="non-positive"):
            im2col(rng.normal(size=(1, 1, 2, 2)), kernel=5, stride=1, padding=0)


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding", [(1, 0), (1, 1), (2, 1)], ids=["s1p0", "s1p1", "s2p1"]
    )
    def test_matches_naive_oracle(self, stride, padding, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding, rng=rng)
        x = rng.normal(size=(2, 3, 8, 8))
        expected = naive_conv2d(x, layer.weight.data, layer.bias.data, stride, padding)
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-10)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("kernel,stride,padding", KERNEL_GRID, ids=GRID_IDS)
    def test_matches_naive_oracle_on_the_grid(
        self, kernel, stride, padding, layout, rng
    ):
        layer = nn.Conv2d(3, 4, kernel, stride=stride, padding=padding, rng=rng)
        layer.bias.data += rng.normal(size=4)
        x = rng.normal(size=(2, 3, 7, 6))
        expected = naive_conv2d(x, layer.weight.data, layer.bias.data, stride, padding)
        np.testing.assert_allclose(
            layer.forward(as_layout(x, layout)), expected, rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_frozen_encoder_matches_naive_oracle(self, layout, rng):
        encoder = FrozenConvEncoder(widths=(4, 5), seed=3)
        x = rng.normal(size=(2, 3, 8, 8))
        expected = x
        for weight in (encoder.weight1, encoder.weight2):
            expected = naive_conv2d(expected, weight, np.zeros(len(weight)), 2, 1)
            expected = np.maximum(expected, 0.0)
        np.testing.assert_allclose(
            encoder.encode(as_layout(x, layout)), expected, rtol=1e-12, atol=1e-13
        )

    def test_gradients(self, rng):
        layer = nn.Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        check_module_gradients(layer, rng.normal(size=(2, 2, 6, 6)))

    def test_gradients_do_not_depend_on_the_gradient_layout(self, rng):
        layer = nn.Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        grad = rng.normal(size=layer.forward(x).shape)
        layer.zero_grad()
        reference = layer.backward(grad)
        reference_weight = layer.weight.grad.copy()
        layer.zero_grad()
        layer.forward(x)
        np.testing.assert_array_equal(
            layer.backward(as_layout(grad, "channels_last")), reference
        )
        np.testing.assert_array_equal(layer.weight.grad, reference_weight)

    @pytest.mark.parametrize("ensemble", [False, True], ids=["conv", "ensemble"])
    def test_backward_params_is_backward_without_the_input_gradient(
        self, ensemble, rng
    ):
        """Skipping the input gradient must leave the parameter gradients
        bitwise what the full backward accumulates."""
        layer = nn.Conv2d(3, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 6, 6))
        if ensemble:
            layer = EnsembleConv2d(layer, 3)
            for param in layer.parameters():
                param.data += rng.normal(size=param.data.shape)
            x = rng.normal(size=(3, 2, 3, 6, 6))
        grad = rng.normal(size=layer.forward(x).shape)
        layer.zero_grad()
        assert layer.backward(grad).shape == x.shape
        full = [param.grad.copy() for param in layer.parameters()]
        layer.zero_grad()
        layer.forward(x)
        assert layer.backward_params(grad) is None
        for param, expected in zip(layer.parameters(), full):
            assert np.any(expected)
            assert np.array_equal(param.grad, expected)

    def test_gradients_no_bias(self, rng):
        layer = nn.Conv2d(2, 2, kernel_size=2, stride=1, padding=0, rng=rng, bias=False)
        check_module_gradients(layer, rng.normal(size=(1, 2, 4, 4)))

    def test_rejects_wrong_channels(self, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, rng=rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))


class TestPooling:
    def test_maxpool_selects_max(self):
        layer = nn.MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradients(self, rng):
        # Distinct values avoid FD ambiguity at ties.
        x = rng.permutation(64).astype(np.float64).reshape(1, 4, 4, 4)
        check_module_gradients(nn.MaxPool2d(2), x)

    def test_avgpool_is_mean(self):
        layer = nn.AvgPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradients(self, rng):
        check_module_gradients(nn.AvgPool2d(2), rng.normal(size=(2, 3, 4, 4)))

    @pytest.mark.parametrize("pool", [nn.MaxPool2d, nn.AvgPool2d])
    def test_pools_accept_channels_last_input(self, pool, rng):
        """Pools sit behind convs, so they see NHWC-memory views."""
        x = rng.permutation(2 * 3 * 6 * 6).astype(np.float64).reshape(2, 3, 6, 6)
        plain, strided = pool(3, stride=2), pool(3, stride=2)
        out = plain.forward(x)
        np.testing.assert_array_equal(
            strided.forward(as_layout(x, "channels_last")), out
        )
        grad = rng.normal(size=out.shape)
        np.testing.assert_array_equal(
            strided.backward(as_layout(grad, "channels_last")), plain.backward(grad)
        )

    def test_maxpool_gradient_takes_the_upstream_dtype(self, rng):
        layer = nn.MaxPool2d(2)
        out = layer.forward(rng.normal(size=(1, 2, 4, 4)))
        assert layer.backward(np.ones_like(out, dtype=np.float32)).dtype == np.float32

    def test_global_avgpool(self, rng):
        layer = nn.GlobalAvgPool2d()
        x = rng.normal(size=(2, 3, 5, 5))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(2, 3)))

    def test_global_avgpool_gradients(self, rng):
        check_module_gradients(nn.GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))
