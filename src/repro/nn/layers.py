"""Dense and elementwise layers for the numpy substrate."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter

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


class Linear(Module):
    """Affine map ``y = x @ W + b`` over the last axis of 2-D input."""

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._input.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data.T


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


class Flatten(Module):
    """Collapse all axes after the batch axis into one.

    ``backward`` returns the gradient in the memory layout of the forward
    input (channels-last after a conv stack), so the elementwise and conv
    backward passes upstream see operands that agree in layout.
    """

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None
        self._axes: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._axes = memory_axes(x)
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return in_memory_order(grad_output.reshape(self._shape), self._axes)
