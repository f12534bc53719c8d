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
"""

from __future__ import annotations

import threading

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


# Reusable zero-padded NHWC staging buffers, keyed by (shape, padding,
# dtype), most recently used last.  The padding is part of the key because
# one padded shape arises from several (side, padding) pairs, and a buffer
# whose interior was written at padding 1 holds data in the ring padding 2
# needs zero.  A training step calls im2col once per conv layer per
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


def _padded_scratch(
    shape: tuple[int, ...], padding: int, dtype: np.dtype
) -> np.ndarray:
    pool = _scratch_pool()
    key = (shape, padding, dtype.str)
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
            (batch, height + 2 * padding, width + 2 * padding, channels),
            padding,
            x.dtype,
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
    """Convolve each slice of a ``(K, batch, C, H, W)`` stack with its own
    ``(out, in, k, k)`` weights (``weight`` is ``(K, out, in, k, k)``,
    ``bias`` ``(K, out)``).

    One ``im2col`` over the flattened ``(K*batch, C, H, W)`` input feeds a
    single ``(K, batch*oh*ow, k*k*C) @ (K, k*k*C, out)`` batched product.
    Returns ``(out, cols)``: the ``(K, batch, out, oh, ow)``-shaped,
    channels-last-in-memory output and the ``(K, rows, k*k*C)`` patch
    matrix the backward pass needs.
    """
    stack, batch = x.shape[:2]
    kernel = weight.shape[-1]
    flat = x.reshape(stack * batch, *x.shape[2:])
    cols, (out_h, out_w) = im2col(flat, kernel, stride, padding)
    cols = cols.reshape(stack, batch * out_h * out_w, -1)
    out = np.matmul(cols, weight_matrix(weight).transpose(0, 2, 1))
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

    def stack_forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[0] != self.stack_size or x.shape[2] != self.in_channels:
            self._refuse(x, f"batch, {self.in_channels}, H, W")
        weight, _ = self.stacked(self.weight)
        bias = None if self.bias is None else self.stacked(self.bias)[0]
        out, self._cols = conv2d(x, weight, bias, self.stride, self.padding)
        self._x_shape = x.shape
        return out

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add the parameter gradients; returns ``grad_output`` as GEMM rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        stack, kernel = self._x_shape[0], self.kernel_size
        grad_rows = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            stack, -1, self.out_channels
        )
        _, weight_grad = self.stacked(self.weight)
        weight_grad += (
            np.matmul(grad_rows.transpose(0, 2, 1), self._cols)
            .reshape(stack, self.out_channels, kernel, kernel, self.in_channels)
            .transpose(0, 1, 4, 2, 3)
        )
        if self.bias is not None:
            _, bias_grad = self.stacked(self.bias)
            bias_grad += grad_rows.sum(axis=1)
        return grad_rows

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        weight, _ = self.stacked(self.weight)
        grad_cols = np.matmul(self._accumulate(grad_output), weight_matrix(weight))
        stack, batch = self._x_shape[:2]
        flat = col2im(
            grad_cols.reshape(-1, grad_cols.shape[2]),
            (stack * batch,) + self._x_shape[2:],
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return flat.reshape(self._x_shape)

    def stack_backward_params(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)
