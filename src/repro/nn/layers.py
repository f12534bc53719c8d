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


class Linear(StackedModule):
    """Affine map ``y = x @ W + b`` over the last axis of ``(batch, in)``
    input (``(K, batch, in)`` on a stack).  On a model with a workspace the
    input gradient overwrites the input when that is the workspace's."""

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
        out = np.matmul(
            x,
            self.stacked(self.weight)[0],
            out=self._workspace.take(self, "out", x.shape[:2] + (self.out_features,)),
        )
        if self.bias is not None:
            out += self.stacked(self.bias)[0][:, None, :]
        return out

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        workspace = self._workspace
        weight, weight_grad = self.stacked(self.weight)
        weight_grad += np.matmul(
            self._input.transpose(0, 2, 1),
            grad_output,
            out=workspace.take(None, "weights", weight.shape),
        )
        if self.bias is not None:
            _, bias_grad = self.stacked(self.bias)
            bias_grad += grad_output.sum(axis=1)
        # Over the spent input when it is the workspace's: every layer
        # after this one has run its backward, and this one is done with it.
        out = self._input
        if not (workspace.holds(out) and out.flags.c_contiguous):
            out = workspace.take(self, "grad", out.shape)
        return np.matmul(grad_output, weight.transpose(0, 2, 1), out=out)


class ReLU(Module):
    """Elementwise max(x, 0).

    On a model with a workspace the output overwrites the input when that
    is the workspace's (a conv or linear output that nothing reads again),
    and the input gradient overwrites the output (every layer after this
    one has run its backward by then).
    """

    #: What the last forward returned (a class default, so a template's
    #: instance state stays what it was).
    _out: np.ndarray | None = None

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        workspace = self._workspace
        axes = memory_axes(x)
        self._mask = np.greater(
            x, 0.0, out=workspace.take(self, "mask", x.shape, bool, axes)
        )
        self._out = (
            x if workspace.holds(x) else workspace.take(self, "out", x.shape, axes=axes)
        )
        # One ufunc pass in x's memory layout.  fmax drops NaN and, on a
        # -0.0 / +0.0 tie, returns its second operand, so this is bit-equal
        # to np.where(x > 0, x, 0.0).
        return np.fmax(x, 0.0, out=self._out)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        out = self._out if self._workspace.holds(self._out) else None
        return np.multiply(grad_output, self._mask, out=out)


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
    backward passes upstream see operands that agree in layout; on a model
    with a workspace it overwrites that input when it is the workspace's
    (nothing reads it again by then).
    """

    #: The last forward's input (a class default, so a template's instance
    #: state stays what it was).
    _input: np.ndarray | None = None

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None
        self._axes: tuple[int, ...] | None = None

    def stack_forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._axes = memory_axes(x)
        if self._axes is None:
            return x.reshape(x.shape[0], x.shape[1], -1)
        self._input = x
        out = self._workspace.take(self, "out", x.shape)
        np.copyto(out, x)
        return out.reshape(x.shape[0], x.shape[1], -1)

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output.reshape(self._shape)
        if self._axes is None:
            return grad
        workspace = self._workspace
        out = (
            self._input
            if workspace.holds(self._input)
            else workspace.take(self, "grad", self._shape, axes=self._axes)
        )
        np.copyto(out, grad)
        return out
