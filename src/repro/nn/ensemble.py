"""Leading-axis ensemble batching: train K identical models in one pass.

A federated worker hosting K co-resident clients runs K structurally
identical models per round.  Instead of looping, this module stacks the K
parameter sets along a new leading axis — weights become ``(K, ...)`` arrays —
so one batched ``np.matmul``/``einsum`` per layer trains the whole stack at
once.  The ``ensemble`` compute backend (:mod:`repro.fl.compute`) is built on
these layers.

Why the per-client numerics survive stacking
--------------------------------------------
numpy's batched ``matmul`` and axis reductions (``mean``/``var``/``sum``)
produce *bitwise identical* results per slice regardless of the stack
composition: slice ``k`` of a batched ``(K, M, N) @ (K, N, P)`` equals the
plain 2-D product of the same operands, and a reduction over a slice's axes
equals the same reduction on the extracted slice.  Every ensemble layer below
is written so its per-slice computation is literally the template layer's
computation — same operand order, same reduction axes relative to the slice —
which is what makes the ``strict`` backend (K=1 stacks through this code
path) bit-identical to the classic loop, and makes per-client results
independent of how clients are grouped into stacks.  The test suite
(`tests/test_nn_ensemble.py`) enforces both properties.

Ensemble layers mirror their template's attribute names (``weight``,
``bias``, ``gamma``, ``layers``, ...), so ``named_parameters`` /
``state_dict`` yield the *same dotted names* with ``(K,) + shape`` values —
the generic state helpers at the bottom of this module stack / split client
state dicts without any per-layer knowledge.

``Dropout`` is deliberately unsupported (it owns a stateful mask generator
whose draw order cannot be reproduced per-slice); models containing it fall
back to the ``loop`` backend via :func:`ensemble_supports`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.conv import (
    AvgPool2d,
    Conv2d,
    GlobalAvgPool2d,
    MaxPool2d,
    col2im,
    im2col,
    weight_matrix,
)
from repro.nn.layers import (
    Flatten,
    LeakyReLU,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    in_memory_order,
    memory_axes,
)
from repro.nn.models import FeatureClassifierModel
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.norm import BatchNorm2d, InstanceNorm2d, LayerNorm

__all__ = [
    "EnsembleModule",
    "EnsembleConv2d",
    "EnsembleLinear",
    "EnsembleFlatten",
    "EnsembleSpatialPool",
    "EnsembleBatchNorm2d",
    "EnsembleInstanceNorm2d",
    "EnsembleLayerNorm",
    "EnsembleFeatureClassifierModel",
    "ensemble_cross_entropy",
    "EnsembleTripletStyleLoss",
    "EnsembleEmbeddingL2Loss",
    "register_ensemble_converter",
    "ensemble_supports",
    "ensemble_of",
    "load_state_stack",
    "load_state_broadcast",
    "ensemble_state_dicts",
]


class EnsembleModule(Module):
    """Base class for layers operating on ``(K, batch, ...)`` stacks."""

    def __init__(self, ensemble_size: int) -> None:
        super().__init__()
        if ensemble_size < 1:
            raise ValueError(f"ensemble size must be >= 1, got {ensemble_size}")
        self.ensemble_size = ensemble_size


def _stack_param(template: Parameter, ensemble_size: int, name: str) -> Parameter:
    data = np.broadcast_to(
        template.data, (ensemble_size,) + template.data.shape
    ).copy()
    return Parameter(data, name=name)


class EnsembleConv2d(EnsembleModule):
    """K independent Conv2d layers as one batched im2col matmul.

    One ``im2col`` over the flattened ``(K*B, C, H, W)`` input feeds a single
    ``(K, B*oh*ow, k*k*C) @ (K, k*k*C, out)`` batched product; layout and
    column order are :class:`Conv2d`'s (see :mod:`repro.nn.conv`).
    """

    def __init__(self, template: Conv2d, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.weight = _stack_param(template.weight, ensemble_size, "weight")
        self.bias = (
            _stack_param(template.bias, ensemble_size, "bias")
            if template.bias is not None
            else None
        )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 5
            or x.shape[0] != self.ensemble_size
            or x.shape[2] != self.in_channels
        ):
            raise ValueError(
                f"EnsembleConv2d expected ({self.ensemble_size}, batch, "
                f"{self.in_channels}, H, W), got {x.shape}"
            )
        stack, batch = x.shape[:2]
        flat = x.reshape(stack * batch, *x.shape[2:])
        cols, (out_h, out_w) = im2col(flat, self.kernel_size, self.stride, self.padding)
        cols = cols.reshape(stack, batch * out_h * out_w, -1)
        self._cols = cols
        self._x_shape = x.shape
        out = np.matmul(cols, weight_matrix(self.weight.data).transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias.data[:, None, :]
        return out.reshape(stack, batch, out_h, out_w, self.out_channels).transpose(
            0, 1, 4, 2, 3
        )

    def _accumulate(self, grad_output: np.ndarray) -> np.ndarray:
        """Add the parameter gradients; returns ``grad_output`` as GEMM rows."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        stack, kernel = self.ensemble_size, self.kernel_size
        grad_rows = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            stack, -1, self.out_channels
        )
        self.weight.grad += (
            np.matmul(grad_rows.transpose(0, 2, 1), self._cols)
            .reshape(stack, self.out_channels, kernel, kernel, self.in_channels)
            .transpose(0, 1, 4, 2, 3)
        )
        if self.bias is not None:
            self.bias.grad += grad_rows.sum(axis=1)
        return grad_rows

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_cols = np.matmul(
            self._accumulate(grad_output), weight_matrix(self.weight.data)
        )
        stack, batch = self._x_shape[:2]
        flat = col2im(
            grad_cols.reshape(-1, grad_cols.shape[2]),
            (stack * batch,) + self._x_shape[2:],
            self.kernel_size,
            self.stride,
            self.padding,
        )
        return flat.reshape(self._x_shape)

    def backward_params(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)


class EnsembleLinear(EnsembleModule):
    """K independent Linear layers as one batched matmul."""

    def __init__(self, template: Linear, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.weight = _stack_param(template.weight, ensemble_size, "weight")
        self.bias = (
            _stack_param(template.bias, ensemble_size, "bias")
            if template.bias is not None
            else None
        )
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 3
            or x.shape[0] != self.ensemble_size
            or x.shape[2] != self.in_features
        ):
            raise ValueError(
                f"EnsembleLinear expected ({self.ensemble_size}, batch, "
                f"{self.in_features}), got {x.shape}"
            )
        self._input = x
        out = np.matmul(x, self.weight.data)
        if self.bias is not None:
            out = out + self.bias.data[:, None, :]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += np.matmul(self._input.transpose(0, 2, 1), grad_output)
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=1)
        return np.matmul(grad_output, self.weight.data.transpose(0, 2, 1))


class EnsembleFlatten(EnsembleModule):
    """Collapse all axes after ``(K, batch)`` into one; like :class:`Flatten`,
    ``backward`` returns the gradient in the forward input's memory layout."""

    def __init__(self, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self._shape: tuple[int, ...] | None = None
        self._axes: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        self._axes = memory_axes(x)
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return in_memory_order(grad_output.reshape(self._shape), self._axes)


class EnsembleSpatialPool(EnsembleModule):
    """Run a parameter-free spatial pool over a flattened ``(K*B, ...)`` view.

    Pooling acts per sample, so folding the stack axis into the batch axis is
    exact; the wrapped template instance does all the work.
    """

    def __init__(self, pool: Module, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self.pool = pool
        self._lead: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        stack, batch = x.shape[:2]
        self._lead = (stack, batch)
        out = self.pool.forward(x.reshape(stack * batch, *x.shape[2:]))
        return out.reshape(stack, batch, *out.shape[1:])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._lead is None:
            raise RuntimeError("backward called before forward")
        stack, batch = self._lead
        grad = self.pool.backward(
            grad_output.reshape(stack * batch, *grad_output.shape[2:])
        )
        return grad.reshape(stack, batch, *grad.shape[1:])


class EnsembleBatchNorm2d(EnsembleModule):
    """K independent BatchNorm2d layers; per-slice statistics over (B, H, W)."""

    def __init__(self, template: BatchNorm2d, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self.num_features = template.num_features
        self.momentum = template.momentum
        self.eps = template.eps
        self.gamma = _stack_param(template.gamma, ensemble_size, "gamma")
        self.beta = _stack_param(template.beta, ensemble_size, "beta")
        self._buffers = {
            name: np.broadcast_to(value, (ensemble_size,) + value.shape).copy()
            for name, value in template._buffers.items()
        }
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 5
            or x.shape[0] != self.ensemble_size
            or x.shape[2] != self.num_features
        ):
            raise ValueError(
                f"EnsembleBatchNorm2d expected ({self.ensemble_size}, batch, "
                f"{self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(1, 3, 4))
            var = x.var(axis=(1, 3, 4))
            self._buffers["running_mean"] = (
                (1 - self.momentum) * self._buffers["running_mean"]
                + self.momentum * mean
            )
            self._buffers["running_var"] = (
                (1 - self.momentum) * self._buffers["running_var"]
                + self.momentum * var
            )
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (x - mean[:, None, :, None, None]) * inv_std[
            :, None, :, None, None
        ]
        self._cache = (normalized, inv_std, x.shape)
        return (
            self.gamma.data[:, None, :, None, None] * normalized
            + self.beta.data[:, None, :, None, None]
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, shape = self._cache
        _, batch, _, height, width = shape
        count = batch * height * width
        self.gamma.grad += (grad_output * normalized).sum(axis=(1, 3, 4))
        self.beta.grad += grad_output.sum(axis=(1, 3, 4))
        grad_norm = grad_output * self.gamma.data[:, None, :, None, None]
        if not self.training:
            return grad_norm * inv_std[:, None, :, None, None]
        sum_grad = grad_norm.sum(axis=(1, 3, 4), keepdims=True)
        sum_grad_norm = (grad_norm * normalized).sum(axis=(1, 3, 4), keepdims=True)
        return (
            inv_std[:, None, :, None, None]
            / count
            * (count * grad_norm - sum_grad - normalized * sum_grad_norm)
        )


class EnsembleInstanceNorm2d(EnsembleModule):
    """K independent InstanceNorm2d layers; statistics are per sample anyway."""

    def __init__(self, template: InstanceNorm2d, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self.num_features = template.num_features
        self.eps = template.eps
        self.affine = template.affine
        if template.affine:
            self.gamma = _stack_param(template.gamma, ensemble_size, "gamma")
            self.beta = _stack_param(template.beta, ensemble_size, "beta")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 5
            or x.shape[0] != self.ensemble_size
            or x.shape[2] != self.num_features
        ):
            raise ValueError(
                f"EnsembleInstanceNorm2d expected ({self.ensemble_size}, batch, "
                f"{self.num_features}, H, W), got {x.shape}"
            )
        mean = x.mean(axis=(3, 4), keepdims=True)
        var = x.var(axis=(3, 4), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (x - mean) * inv_std
        self._cache = (normalized, inv_std, x.shape)
        if not self.affine:
            return normalized
        return (
            self.gamma.data[:, None, :, None, None] * normalized
            + self.beta.data[:, None, :, None, None]
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std, shape = self._cache
        height, width = shape[3], shape[4]
        count = height * width
        if self.affine:
            self.gamma.grad += (grad_output * normalized).sum(axis=(1, 3, 4))
            self.beta.grad += grad_output.sum(axis=(1, 3, 4))
            grad_norm = grad_output * self.gamma.data[:, None, :, None, None]
        else:
            grad_norm = grad_output
        sum_grad = grad_norm.sum(axis=(3, 4), keepdims=True)
        sum_grad_norm = (grad_norm * normalized).sum(axis=(3, 4), keepdims=True)
        return inv_std / count * (count * grad_norm - sum_grad - normalized * sum_grad_norm)


class EnsembleLayerNorm(EnsembleModule):
    """K independent LayerNorm layers over the last axis of (K, B, F) input."""

    def __init__(self, template: LayerNorm, ensemble_size: int) -> None:
        super().__init__(ensemble_size)
        self.num_features = template.num_features
        self.eps = template.eps
        self.gamma = _stack_param(template.gamma, ensemble_size, "gamma")
        self.beta = _stack_param(template.beta, ensemble_size, "beta")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if (
            x.ndim != 3
            or x.shape[0] != self.ensemble_size
            or x.shape[2] != self.num_features
        ):
            raise ValueError(
                f"EnsembleLayerNorm expected ({self.ensemble_size}, batch, "
                f"{self.num_features}), got {x.shape}"
            )
        mean = x.mean(axis=2, keepdims=True)
        var = x.var(axis=2, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (x - mean) * inv_std
        self._cache = (normalized, inv_std)
        return (
            self.gamma.data[:, None, :] * normalized + self.beta.data[:, None, :]
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        normalized, inv_std = self._cache
        count = self.num_features
        self.gamma.grad += (grad_output * normalized).sum(axis=1)
        self.beta.grad += grad_output.sum(axis=1)
        grad_norm = grad_output * self.gamma.data[:, None, :]
        sum_grad = grad_norm.sum(axis=2, keepdims=True)
        sum_grad_norm = (grad_norm * normalized).sum(axis=2, keepdims=True)
        return inv_std / count * (count * grad_norm - sum_grad - normalized * sum_grad_norm)


class EnsembleFeatureClassifierModel(FeatureClassifierModel):
    """A stacked :class:`FeatureClassifierModel`; same split-gradient routing.

    The parent's ``forward_features`` / ``forward_logits`` / ``backward`` are
    shape-agnostic delegations, so only the stack size needs recording.
    """

    def __init__(
        self,
        features: Module,
        classifier: Module,
        embed_dim: int,
        ensemble_size: int,
    ) -> None:
        super().__init__(features, classifier, embed_dim)
        self.ensemble_size = ensemble_size


# --------------------------------------------------------------------------
# Ensemble losses
# --------------------------------------------------------------------------


def ensemble_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-reduced softmax cross-entropy per slice of a ``(K, B, C)`` stack.

    Returns ``(losses, grad_logits)`` with ``losses`` of shape ``(K,)`` and
    ``grad_logits`` matching ``logits``; slice ``k`` is bitwise what
    :class:`repro.nn.losses.CrossEntropyLoss` computes on that slice.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be 3-D (K, B, C), got shape {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:2]:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits.shape[:2]}"
        )
    stack, batch, num_classes = logits.shape
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=2, keepdims=True)
    log_probs = shifted - np.log(total)
    probs = exp / total
    targets = np.zeros_like(logits)
    targets[
        np.arange(stack)[:, None], np.arange(batch)[None, :], labels
    ] = 1.0
    per_sample = -(targets * log_probs).sum(axis=2)
    losses = per_sample.sum(axis=1) / max(batch, 1)
    grad = (probs - targets) / max(batch, 1)
    return losses, grad


class EnsembleTripletStyleLoss:
    """Leading-axis mirror of :class:`repro.nn.losses.TripletStyleLoss`.

    Inputs are ``(K, B, d)`` stacks plus ``(K, B)`` labels; ``forward``
    returns per-slice losses of shape ``(K,)`` and ``backward`` the matching
    gradient stacks.  Slice ``k`` reproduces the template loss on that slice
    bitwise (same operand order; the pairwise products become batched
    matmuls).
    """

    def __init__(
        self,
        margin: float = 1.0,
        reduction: str = "mean",
        hinge: bool = False,
        normalize: bool = True,
    ) -> None:
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.margin = margin
        self.reduction = reduction
        self.hinge = hinge
        self.normalize = normalize
        self._grads: tuple[np.ndarray, np.ndarray] | None = None

    def forward(
        self,
        anchors: np.ndarray,
        transferred: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        if anchors.shape != transferred.shape:
            raise ValueError(
                f"anchor/transferred shape mismatch: "
                f"{anchors.shape} vs {transferred.shape}"
            )
        if anchors.ndim != 3:
            raise ValueError(f"expected (K, B, d) stacks, got {anchors.shape}")
        labels = np.asarray(labels)
        stack, batch = anchors.shape[:2]
        if batch == 0:
            self._grads = (np.zeros_like(anchors), np.zeros_like(transferred))
            return np.zeros(stack)

        if self.normalize:
            anchor_norms = np.linalg.norm(anchors, axis=2, keepdims=True)
            transfer_norms = np.linalg.norm(transferred, axis=2, keepdims=True)
            anchor_norms = np.maximum(anchor_norms, 1e-12)
            transfer_norms = np.maximum(transfer_norms, 1e-12)
            anchors = anchors / anchor_norms
            transferred = transferred / transfer_norms

        diff = anchors[:, :, None, :] - transferred[:, None, :, :]  # (K, B, B, d)
        sq_dist = np.einsum("kijl,kijl->kij", diff, diff)  # (K, B, B)
        negative_mask = labels[:, :, None] != labels[:, None, :]  # (K, B, B)
        negative_counts = negative_mask.sum(axis=2)  # (K, B)

        positive_term = np.diagonal(sq_dist, axis1=1, axis2=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            negative_mean = np.where(
                negative_counts > 0,
                (sq_dist * negative_mask).sum(axis=2)
                / np.maximum(negative_counts, 1),
                0.0,
            )
        raw = positive_term - negative_mean + self.margin
        if self.hinge:
            active = raw > 0
            per_sample = np.where(active, raw, 0.0)
        else:
            active = np.ones_like(raw, dtype=bool)
            per_sample = raw

        scale = 1.0 / batch if self.reduction == "mean" else 1.0

        grad_anchor = np.zeros_like(anchors)
        grad_transferred = np.zeros_like(transferred)
        pos_diff = anchors - transferred
        grad_anchor += np.where(active[:, :, None], 2.0 * pos_diff, 0.0)
        grad_transferred -= np.where(active[:, :, None], 2.0 * pos_diff, 0.0)
        has_neg = active & (negative_counts > 0)
        if np.any(has_neg):
            inv_counts = np.where(
                negative_counts > 0, 1.0 / np.maximum(negative_counts, 1), 0.0
            )
            weights = (negative_mask * has_neg[:, :, None]) * inv_counts[:, :, None]
            grad_anchor -= 2.0 * (
                weights.sum(axis=2)[:, :, None] * anchors
                - np.matmul(weights, transferred)
            )
            grad_transferred += 2.0 * (
                np.matmul(weights.transpose(0, 2, 1), anchors)
                - weights.sum(axis=1)[:, :, None] * transferred
            )

        grad_anchor *= scale
        grad_transferred *= scale
        if self.normalize:
            radial_a = np.sum(grad_anchor * anchors, axis=2, keepdims=True)
            grad_anchor = (grad_anchor - radial_a * anchors) / anchor_norms
            radial_t = np.sum(grad_transferred * transferred, axis=2, keepdims=True)
            grad_transferred = (
                grad_transferred - radial_t * transferred
            ) / transfer_norms
        self._grads = (grad_anchor, grad_transferred)
        return per_sample.sum(axis=1) * scale

    def backward(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(grad_wrt_anchors, grad_wrt_transferred)`` stacks."""
        if self._grads is None:
            raise RuntimeError("backward called before forward")
        return self._grads


class EnsembleEmbeddingL2Loss:
    """Leading-axis mirror of :class:`repro.nn.losses.EmbeddingL2Loss`."""

    def __init__(self, reduction: str = "mean") -> None:
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction
        self._grads: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, anchors: np.ndarray, transferred: np.ndarray) -> np.ndarray:
        if anchors.shape != transferred.shape:
            raise ValueError(
                f"anchor/transferred shape mismatch: "
                f"{anchors.shape} vs {transferred.shape}"
            )
        batch = anchors.shape[1]
        scale = 1.0 / batch if (self.reduction == "mean" and batch) else 1.0
        losses = (
            np.sum(anchors**2, axis=(1, 2)) + np.sum(transferred**2, axis=(1, 2))
        ) * scale
        self._grads = (2.0 * anchors * scale, 2.0 * transferred * scale)
        return losses

    def backward(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(grad_wrt_anchors, grad_wrt_transferred)`` stacks."""
        if self._grads is None:
            raise RuntimeError("backward called before forward")
        return self._grads


# --------------------------------------------------------------------------
# Converter registry: template layer type -> ensemble constructor
# --------------------------------------------------------------------------

_CONVERTERS: dict[type, Callable[[Module, int], Module]] = {}


def register_ensemble_converter(
    template_type: type, converter: Callable[[Module, int], Module]
) -> None:
    """Register ``converter(template, K) -> ensemble module`` for a layer type.

    Matching is by exact type (like the codec registry's spec names): a
    subclass with different semantics must register its own converter or its
    models fall back to the ``loop`` backend.
    """
    _CONVERTERS[template_type] = converter


def ensemble_supports(model: Module) -> bool:
    """True if every module in ``model`` has a registered ensemble converter."""
    return all(type(module) in _CONVERTERS for module in model.modules())


def _convert(module: Module, ensemble_size: int) -> Module:
    try:
        converter = _CONVERTERS[type(module)]
    except KeyError:
        raise ValueError(
            f"no ensemble converter registered for {type(module).__name__}"
        ) from None
    return converter(module, ensemble_size)


def ensemble_of(model: Module, ensemble_size: int) -> Module:
    """Build a ``(K, ...)``-stacked clone of ``model``.

    Every slice of the result starts as a copy of ``model``'s weights; use
    :func:`load_state_stack` to give each slice its own state.
    """
    if not ensemble_supports(model):
        unsupported = sorted(
            {
                type(module).__name__
                for module in model.modules()
                if type(module) not in _CONVERTERS
            }
        )
        raise ValueError(
            f"model contains modules without ensemble converters: {unsupported}"
        )
    return _convert(model, ensemble_size)


def _convert_fresh(factory: Callable[[Module], Module]) -> Callable[[Module, int], Module]:
    return lambda template, ensemble_size: factory(template)


register_ensemble_converter(Conv2d, EnsembleConv2d)
register_ensemble_converter(Linear, EnsembleLinear)
register_ensemble_converter(BatchNorm2d, EnsembleBatchNorm2d)
register_ensemble_converter(InstanceNorm2d, EnsembleInstanceNorm2d)
register_ensemble_converter(LayerNorm, EnsembleLayerNorm)
register_ensemble_converter(
    Flatten, lambda template, ensemble_size: EnsembleFlatten(ensemble_size)
)
# Elementwise layers are shape-agnostic: fresh template-class instances work
# on (K, batch, ...) stacks unchanged.
register_ensemble_converter(ReLU, _convert_fresh(lambda t: ReLU()))
register_ensemble_converter(Tanh, _convert_fresh(lambda t: Tanh()))
register_ensemble_converter(Sigmoid, _convert_fresh(lambda t: Sigmoid()))
register_ensemble_converter(
    LeakyReLU, _convert_fresh(lambda t: LeakyReLU(t.negative_slope))
)
register_ensemble_converter(
    MaxPool2d,
    lambda t, k: EnsembleSpatialPool(MaxPool2d(t.kernel_size, t.stride), k),
)
register_ensemble_converter(
    AvgPool2d,
    lambda t, k: EnsembleSpatialPool(AvgPool2d(t.kernel_size, t.stride), k),
)
register_ensemble_converter(
    GlobalAvgPool2d, lambda t, k: EnsembleSpatialPool(GlobalAvgPool2d(), k)
)
register_ensemble_converter(
    Sequential,
    lambda t, k: Sequential(*[_convert(layer, k) for layer in t.layers]),
)
register_ensemble_converter(
    FeatureClassifierModel,
    lambda t, k: EnsembleFeatureClassifierModel(
        _convert(t.features, k), _convert(t.classifier, k), t.embed_dim, k
    ),
)


# --------------------------------------------------------------------------
# State helpers: per-client dicts <-> (K, ...) stacks
# --------------------------------------------------------------------------


def load_state_stack(emodel: Module, states: list[dict[str, np.ndarray]]) -> None:
    """Load K per-client state dicts into the slices of an ensemble model."""
    stacked = {}
    for name in states[0]:
        stacked[name] = np.stack(
            [np.asarray(state[name], dtype=np.float64) for state in states]
        )
    emodel.load_state_dict(stacked)


def load_state_broadcast(
    emodel: Module, state: dict[str, np.ndarray], ensemble_size: int
) -> None:
    """Load one (global) state dict into every slice of an ensemble model."""
    stacked = {
        name: np.broadcast_to(
            np.asarray(value, dtype=np.float64), (ensemble_size,) + np.shape(value)
        )
        for name, value in state.items()
    }
    emodel.load_state_dict(stacked)


def ensemble_state_dicts(emodel: Module) -> list[dict[str, np.ndarray]]:
    """Split an ensemble model back into K per-client state dicts.

    Key order matches the template's ``state_dict`` (parameters, then
    buffers) because ensemble layers mirror the template attribute names.
    Each stack is copied once and the K states hold its row views, which
    are C-contiguous snapshots that alias neither the live stack nor each
    other.
    """
    ensemble_size = getattr(emodel, "ensemble_size", None)
    if ensemble_size is None:
        for module in emodel.modules():
            ensemble_size = getattr(module, "ensemble_size", None)
            if ensemble_size is not None:
                break
    if ensemble_size is None:
        raise ValueError("not an ensemble model: no ensemble_size found")
    states: list[dict[str, np.ndarray]] = [{} for _ in range(ensemble_size)]
    stacks = [(name, param.data) for name, param in emodel.named_parameters()]
    stacks += emodel.named_buffers()
    for name, stack in stacks:
        rows = stack.copy()
        for index in range(ensemble_size):
            states[index][name] = rows[index]
    return states
