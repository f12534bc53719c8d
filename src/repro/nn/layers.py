"""Dense and elementwise layers for the numpy substrate.

``Linear`` and ``Flatten`` are written once, over a leading stack axis
(:class:`repro.nn.module.StackedModule`); the elementwise layers are
shape-agnostic, so one instance serves a template and a stack alike.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter, StackedModule

__all__ = ["Linear", "ReLU", "Tanh", "Flatten"]


def memory_axes(x: np.ndarray) -> tuple[int, ...] | None:
    """Axes of ``x`` from slowest- to fastest-varying in memory, or ``None``
    when ``x`` is C-contiguous (the axes are already in that order)."""
    if x.flags.c_contiguous:
        return None
    strides = x.strides
    return tuple(sorted(range(x.ndim), key=lambda axis: -strides[axis]))


def in_memory_order(x: np.ndarray, axes: tuple[int, ...] | None) -> np.ndarray:
    """``x`` (same shape, same values) laid out in memory in ``axes`` order."""
    if axes is None:
        return x
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    return np.ascontiguousarray(x.transpose(axes)).transpose(inverse)


class Linear(StackedModule):
    """Affine map ``y = x @ W + b`` over the last axis of ``(batch, in)``
    input (``(K, batch, in)`` on a stack)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.he_normal((in_features, out_features), fan_in=in_features, rng=rng),
            name="weight",
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None
        self._input: np.ndarray | None = None

    def stack_forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self.stack_size or x.shape[2] != self.in_features:
            self._refuse(x, f"batch, {self.in_features}")
        self._input = x
        out = np.matmul(x, self.stacked(self.weight)[0])
        if self.bias is not None:
            out = out + self.stacked(self.bias)[0][:, None, :]
        return out

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        weight, weight_grad = self.stacked(self.weight)
        weight_grad += np.matmul(self._input.transpose(0, 2, 1), grad_output)
        if self.bias is not None:
            _, bias_grad = self.stacked(self.bias)
            bias_grad += grad_output.sum(axis=1)
        return np.matmul(grad_output, weight.transpose(0, 2, 1))


class ReLU(Module):
    """Elementwise max(x, 0)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        # One ufunc pass that keeps x's memory layout.  fmax drops NaN and, on
        # a -0.0 / +0.0 tie, returns its second operand, so this is bit-equal
        # to np.where(x > 0, x, 0.0).
        return np.fmax(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output**2)


class Flatten(StackedModule):
    """Collapse all axes after the batch axis (after ``(K, batch)`` on a
    stack) into one.

    ``backward`` returns the gradient in the memory layout of the forward
    input (channels-last after a conv stack), so the elementwise and conv
    backward passes upstream see operands that agree in layout.
    """

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None
        self._axes: tuple[int, ...] | None = None

    def stack_forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._axes = memory_axes(x)
        return x.reshape(x.shape[0], x.shape[1], -1)

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return in_memory_order(grad_output.reshape(self._shape), self._axes)
