"""Convolution and pooling layers.

Conv2d is implemented with im2col: patches are gathered into a matrix so the
convolution becomes one matmul, which is the only way to get acceptable
throughput from numpy.

Memory layout.  Arrays are NCHW at the API — shapes, axis order and
``Flatten``'s feature order are unchanged — but the conv data path is
channels-last (NHWC) *in memory*: ``im2col`` gathers from an NHWC zero-padded
buffer into columns ordered ``(ki, kj, c)``, the GEMM output ``(rows, out)``
is already NHWC and is handed on as an NCHW-shaped transposed view, and
``col2im`` scatters ``c``-contiguous runs back.  Elementwise layers keep the
layout of their input, so from one conv to the next nothing is transposed.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = [
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
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


# Reusable zero-padded NHWC staging buffers, keyed by (shape, dtype), most
# recently used last.  A training step calls im2col once per conv layer per
# batch with identical shapes, so reusing the allocation avoids a fresh
# zero-fill (and, at these sizes, a fresh mmap + page faults) every call.
# Only the interior is overwritten; the border is zeroed once at allocation
# and never touched again.  The byte budget bounds memory when many distinct
# shapes cycle through; eviction is least-recently-used, one entry at a time,
# so the handful of shapes a round alternates between never evict each other.
#
# A buffer must never be visible to two threads at once — between the
# interior write and the gather it *is* the caller's input — and the server's
# evaluation thread runs im2col on shapes that collide with training's (an
# evaluation tail chunk is as large as a training tail batch).  So the pool
# is per thread: ``_PAD_SCRATCH`` is the main thread's, every other thread
# gets its own (same budget each), released when the thread ends.  No lock:
# one held across the gather would serialise the two threads' largest copies.
_PAD_SCRATCH: dict[tuple, np.ndarray] = {}
_PAD_SCRATCH_MAX_BYTES = 64 << 20


class _ThreadScratch(threading.local):
    def __init__(self) -> None:  # runs once in each thread that touches it
        self.pool: dict[tuple, np.ndarray] = {}


_OTHER_THREADS = _ThreadScratch()


def _scratch_pool() -> dict[tuple, np.ndarray]:
    if threading.current_thread() is threading.main_thread():
        return _PAD_SCRATCH
    return _OTHER_THREADS.pool


def _padded_scratch(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    pool = _scratch_pool()
    key = (shape, dtype.str)
    buffer = pool.pop(key, None)
    if buffer is None:
        buffer = np.zeros(shape, dtype=dtype)
        if buffer.nbytes > _PAD_SCRATCH_MAX_BYTES:
            return buffer
        held = sum(entry.nbytes for entry in pool.values())
        while held + buffer.nbytes > _PAD_SCRATCH_MAX_BYTES:
            held -= pool.pop(next(iter(pool))).nbytes
    pool[key] = buffer
    return buffer


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Rearrange sliding ``kernel x kernel`` patches of NCHW ``x`` into rows.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(batch * out_h * out_w, kernel * kernel * channels)``, each row ordered
    ``(ki, kj, c)`` so a copied run is ``kernel * channels`` contiguous values.
    """
    batch, channels, height, width = x.shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    x = x.transpose(0, 2, 3, 1)
    if padding:
        padded = _padded_scratch(
            (batch, height + 2 * padding, width + 2 * padding, channels), x.dtype
        )
        padded[:, padding : padding + height, padding : padding + width] = x
        x = padded
    s_batch, s_row, s_col, s_chan = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kernel, kernel, channels),
        strides=(s_batch, s_row * stride, s_col * stride, s_row, s_col, s_chan),
    )
    cols = patches.reshape(batch * out_h * out_w, kernel * kernel * channels)
    if not cols.flags.c_contiguous:
        # reshape returned a non-contiguous view (rare layouts, e.g. 1x1
        # kernels); downstream matmuls want contiguous rows, so copy here.
        cols = np.ascontiguousarray(cols)
    elif padding and np.may_share_memory(cols, x):
        # reshape returned a view into the reusable scratch buffer; callers
        # cache cols across forward/backward, so detach it.
        cols = cols.copy()
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add column rows back into an NCHW tensor (adjoint of im2col).

    The result is NCHW-shaped and channels-last in memory.
    """
    batch, channels, height, width = x_shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels), dtype=cols.dtype
    )
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


def weight_matrix(weight: np.ndarray) -> np.ndarray:
    """``(..., out, in, k, k)`` conv weights as ``(..., out, k*k*in)`` rows in
    im2col's ``(ki, kj, c)`` column order (a small contiguous copy)."""
    lead = weight.ndim - 3
    permuted = np.moveaxis(weight, lead, -1)
    return permuted.reshape(weight.shape[:lead] + (-1,))


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolve NCHW ``x`` with ``(out, in, k, k)`` weights.

    Returns ``(out, cols)``: the NCHW-shaped, channels-last-in-memory output
    and the patch matrix the backward pass needs.
    """
    out_channels, _, kernel, _ = weight.shape
    cols, (out_h, out_w) = im2col(x, kernel, stride, padding)
    out = cols @ weight_matrix(weight).T
    if bias is not None:
        out += bias
    out = out.reshape(x.shape[0], out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    return out, cols


class Conv2d(Module):
    """2-D convolution over NCHW input."""

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
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        out, self._cols = conv2d(
            x,
            self.weight.data,
            None if self.bias is None else self.bias.data,
            self.stride,
            self.padding,
        )
        self._x_shape = x.shape
        return out

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add the parameter gradients; returns ``grad_output`` as GEMM rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad_rows = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        kernel = self.kernel_size
        self.weight.grad += (
            (grad_rows.T @ self._cols)
            .reshape(self.out_channels, kernel, kernel, self.in_channels)
            .transpose(0, 3, 1, 2)
        )
        if self.bias is not None:
            self.bias.grad += grad_rows.sum(axis=0)
        return grad_rows

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_cols = self._accumulate(grad_output) @ weight_matrix(self.weight.data)
        return col2im(
            grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding
        )

    def backward_params(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)


class MaxPool2d(Module):
    """Max pooling with square window; stride defaults to the window size."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        reshaped = x.reshape(batch * channels, 1, height, width)
        cols, (out_h, out_w) = im2col(reshaped, self.kernel_size, self.stride, 0)
        self._argmax = np.argmax(cols, axis=1)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = cols[np.arange(cols.shape[0]), self._argmax]
        return out.reshape(batch, channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._x_shape
        out_h, out_w = self._out_hw
        grad_cols = np.zeros(
            (batch * channels * out_h * out_w, self.kernel_size * self.kernel_size),
            dtype=grad_output.dtype,
        )
        grad_cols[np.arange(grad_cols.shape[0]), self._argmax] = grad_output.reshape(-1)
        grad = col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.stride,
            0,
        )
        return grad.reshape(batch, channels, height, width)


class AvgPool2d(Module):
    """Average pooling with square window; stride defaults to the window."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        reshaped = x.reshape(batch * channels, 1, height, width)
        cols, (out_h, out_w) = im2col(reshaped, self.kernel_size, self.stride, 0)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return cols.mean(axis=1).reshape(batch, channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._x_shape
        window = self.kernel_size * self.kernel_size
        grad_cols = np.repeat(
            grad_output.reshape(-1, 1) / window, window, axis=1
        )
        grad = col2im(
            grad_cols,
            (batch * channels, 1, height, width),
            self.kernel_size,
            self.stride,
            0,
        )
        return grad.reshape(batch, channels, height, width)


class GlobalAvgPool2d(Module):
    """Average each channel over its full spatial extent → (batch, channels)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        batch, channels, height, width = self._x_shape
        spread = grad_output[:, :, None, None] / (height * width)
        return np.broadcast_to(spread, self._x_shape).copy()
