"""The convolution layer.

Conv2d is implemented with im2col: patches are gathered into a matrix so the
convolution becomes one matmul, which is the only way to get acceptable
throughput from numpy.  Like every parameterised layer it is written once,
over a leading stack axis (:class:`repro.nn.module.StackedModule`): K
clients' patches go through one batched matmul, and a template runs the
same code as a stack of one.

Memory layout.  Arrays are NCHW at the API — shapes, axis order and
``Flatten``'s feature order are unchanged — but the conv data path is
channels-last (NHWC) *in memory*: ``im2col`` gathers from an NHWC zero-padded
buffer into columns ordered ``(ki, kj, c)``, the GEMM output ``(rows, out)``
is already NHWC and is handed on as an NCHW-shaped transposed view, and
``col2im`` scatters ``c``-contiguous runs back.  Elementwise layers keep the
layout of their input, so from one conv to the next nothing is transposed.

Buffers.  ``im2col``, ``col2im`` and ``conv2d`` write into arrays a
``take(role, shape, dtype)`` callable supplies: fresh ones by default, and
on a model with a workspace (:class:`repro.nn.module.Workspace`) the
layer's own ``"cols"`` and ``"out"`` buffers plus the ``"pad"`` and
``"weights"`` buffers every layer of the model takes in turn, so a warm
step allocates none of them.  The backward writes the column gradient over
the spent columns and scatters ``col2im`` into the pad buffer.  The pad
buffer's border is zeroed on every ``im2col``, so whatever wrote it last
(a ``col2im``, another layer's padding, a smaller step) never shows
through.  A buffer belongs to one model, and two models on two threads
(training and the server's evaluation) share none.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Parameter, StackedModule

__all__ = [
    "Conv2d",
    "im2col",
    "col2im",
    "conv2d",
    "weight_matrix",
]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _fresh(role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    return np.empty(shape, dtype)


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int, take=_fresh
) -> tuple[np.ndarray, tuple[int, int]]:
    """Rearrange sliding ``kernel x kernel`` patches of NCHW ``x`` into rows.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(batch * out_h * out_w, kernel * kernel * channels)``, each row ordered
    ``(ki, kj, c)`` so a copied run is ``kernel * channels`` contiguous values.
    ``take(role, shape, dtype)`` supplies the arrays written: the ``"pad"``
    staging buffer (NHWC, its border zeroed on every call, so a buffer a
    backward or another padding wrote before is as good as a fresh one)
    and ``"cols"``; fresh ones by default.
    """
    batch, channels, height, width = x.shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    x = x.transpose(0, 2, 3, 1)
    if padding:
        padded = take(
            "pad",
            (batch, height + 2 * padding, width + 2 * padding, channels),
            x.dtype,
        )
        inner = slice(padding, -padding)
        padded[:, :padding] = 0.0
        padded[:, -padding:] = 0.0
        padded[:, inner, :padding] = 0.0
        padded[:, inner, -padding:] = 0.0
        padded[:, inner, inner] = x
        x = padded
    s_batch, s_row, s_col, s_chan = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kernel, kernel, channels),
        strides=(s_batch, s_row * stride, s_col * stride, s_row, s_col, s_chan),
    )
    cols = take("cols", (batch * out_h * out_w, kernel * kernel * channels), x.dtype)
    np.copyto(cols.reshape(patches.shape), patches)
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    take=_fresh,
) -> np.ndarray:
    """Scatter-add column rows back into an NCHW tensor (adjoint of im2col).

    The result is NCHW-shaped and channels-last in memory, a view of the
    ``"pad"`` array ``take`` supplies (fresh by default).
    """
    batch, channels, height, width = x_shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    padded = take(
        "pad",
        (batch, height + 2 * padding, width + 2 * padding, channels),
        cols.dtype,
    )
    padded.fill(0.0)
    patches = cols.reshape(batch, out_h, out_w, kernel, kernel, channels)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                ki : ki + stride * out_h : stride,
                kj : kj + stride * out_w : stride,
            ] += patches[:, :, :, ki, kj]
    if padding:
        padded = padded[:, padding:-padding, padding:-padding]
    return padded.transpose(0, 3, 1, 2)


def weight_matrix(weight: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(..., out, in, k, k)`` conv weights as ``(..., out, k*k*in)`` rows in
    im2col's ``(ki, kj, c)`` column order (a contiguous copy, into ``out``
    when given)."""
    lead = weight.ndim - 3
    permuted = np.moveaxis(weight, lead, -1)
    if out is None:
        return permuted.reshape(weight.shape[:lead] + (-1,))
    np.copyto(out.reshape(permuted.shape), permuted)
    return out


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    take=_fresh,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolve each slice of a ``(K, batch, C, H, W)`` stack with its own
    ``(out, in, k, k)`` weights (``weight`` is ``(K, out, in, k, k)``,
    ``bias`` ``(K, out)``).

    One ``im2col`` over the flattened ``(K*batch, C, H, W)`` input feeds a
    single ``(K, batch*oh*ow, k*k*C) @ (K, k*k*C, out)`` batched product.
    Returns ``(out, cols)``: the ``(K, batch, out, oh, ow)``-shaped,
    channels-last-in-memory output and the ``(K, rows, k*k*C)`` patch
    matrix the backward pass needs.  ``take`` supplies the arrays written,
    as for :func:`im2col` plus the ``"weights"`` in GEMM layout and the
    ``"out"`` product.
    """
    stack, batch = x.shape[:2]
    kernel = weight.shape[-1]
    flat = x.reshape(stack * batch, *x.shape[2:])
    cols, (out_h, out_w) = im2col(flat, kernel, stride, padding, take)
    cols = cols.reshape(stack, batch * out_h * out_w, -1)
    matrix = weight_matrix(
        weight, take("weights", (stack, weight.shape[1], cols.shape[2]), weight.dtype)
    )
    out = np.matmul(
        cols,
        matrix.transpose(0, 2, 1),
        out=take("out", cols.shape[:2] + (weight.shape[1],), cols.dtype),
    )
    if bias is not None:
        out += bias[:, None, :]
    out = out.reshape(stack, batch, out_h, out_w, weight.shape[1]).transpose(
        0, 1, 4, 2, 3
    )
    return out, cols


class Conv2d(StackedModule):
    """2-D convolution over NCHW input (``(K, batch, C, H, W)`` on a stack)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.he_normal(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in=fan_in,
                rng=rng,
            ),
            name="weight",
        )
        self.bias = (
            Parameter(init.zeros((out_channels,)), name="bias") if bias else None
        )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _take(self, role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        # What dies within the call that writes it (the pad buffer, the
        # weights in GEMM layout, weight-gradient products) is one
        # workspace buffer that every layer takes in turn.
        owner = self if role in ("cols", "out") else None
        return self._workspace.take(owner, role, shape, dtype)

    def stack_forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[0] != self.stack_size or x.shape[2] != self.in_channels:
            self._refuse(x, f"batch, {self.in_channels}, H, W")
        weight, _ = self.stacked(self.weight)
        bias = None if self.bias is None else self.stacked(self.bias)[0]
        out, self._cols = conv2d(
            x, weight, bias, self.stride, self.padding, self._take
        )
        self._x_shape = x.shape
        return out

    def _gemm_weights(self) -> np.ndarray:
        """A ``(K, out, k*k*in)`` array: the weights' or the weight
        gradient's GEMM layout."""
        shape = self._cols.shape[:1] + (self.out_channels, self._cols.shape[2])
        return self._take("weights", shape, self._cols.dtype)

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add the parameter gradients; returns ``grad_output`` as GEMM rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        stack, kernel = self._x_shape[0], self.kernel_size
        grad_rows = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            stack, -1, self.out_channels
        )
        _, weight_grad = self.stacked(self.weight)
        product = np.matmul(
            grad_rows.transpose(0, 2, 1), self._cols, out=self._gemm_weights()
        )
        weight_grad += product.reshape(
            stack, self.out_channels, kernel, kernel, self.in_channels
        ).transpose(0, 1, 4, 2, 3)
        if self.bias is not None:
            _, bias_grad = self.stacked(self.bias)
            bias_grad += grad_rows.sum(axis=1)
        return grad_rows

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        weight, _ = self.stacked(self.weight)
        grad_rows = self._accumulate(grad_output)
        # The columns are spent once the weight gradient has them: on a
        # workspace the column gradient takes their buffer, and col2im
        # scatters into the forward's pad buffer.
        grad_cols = np.matmul(
            grad_rows,
            weight_matrix(weight, self._gemm_weights()),
            out=self._take("cols", self._cols.shape, self._cols.dtype),
        )
        stack, batch = self._x_shape[:2]
        flat = col2im(
            grad_cols.reshape(-1, grad_cols.shape[2]),
            (stack * batch,) + self._x_shape[2:],
            self.kernel_size,
            self.stride,
            self.padding,
            self._take,
        )
        return flat.reshape(self._x_shape)

    def stack_backward_params(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)
