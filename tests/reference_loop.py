"""The scalar per-client training loop: the reference the trainer is held to.

``repro`` trains every client on ``(K, ...)`` stacks
(:class:`repro.fl.compute.EnsembleBackend`).  This module keeps the
historical scalar path it replaced, arithmetic unchanged: one client at a
time on the template model, the epoch runner over one dataset, FedDG-GA's
gap from a scalar evaluation and the chunked embedding sweep.  A stack of
any size must reproduce it bitwise.

It also keeps its own scalar form of every registered objective term
(:data:`SCALAR_TERMS`, with the scalar triplet and embedding-L2 losses
and :func:`prototype_nce` they need), so the stacked terms in
:mod:`repro.nn.objective` are held to code they do not share.  Likewise
the layer oracle: the per-batch ``Conv2d`` / ``Linear`` /
``Flatten`` and softmax cross-entropy that ``repro.nn`` now writes once
over ``(K, ...)`` stacks (:func:`scalar_model` rebuilds any model of
those layers on them; :func:`run_loop` trains that copy), with its own
``im2col`` (``np.pad``, no scratch pool) and ``col2im``.

Two entry points:

* :func:`run_loop` takes what ``EnsembleBackend.run_group`` takes and
  returns one update per client, in group order (trainer-boundary tests);
* :func:`train_stacks` is a drop-in for ``EnsembleBackend.train_stacks``:
  patch it onto the class and every engine trains one client at a time
  through :func:`run_loop` (engine-boundary tests).  Fork-started pool
  workers inherit the patch; in-process agents share it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines import FedDGGAStrategy
from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
from repro.fl.strategy import class_stats
from repro.nn import Conv2d, FeatureClassifierModel, Flatten, Linear, ReLU, Sequential
from repro.nn.conv import weight_matrix
from repro.nn.functional import softmax
from repro.nn.layers import memory_axes
from repro.nn.module import Module, Parameter


# --------------------------------------------------------------------------
# The layer oracle: one sample batch per layer, no stack axis
# --------------------------------------------------------------------------


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """``repro.nn.conv.im2col`` with a fresh ``np.pad`` per call in place
    of the reused scratch buffer; same ``(ki, kj, c)`` rows, same layout."""
    batch, channels, height, width = x.shape
    out_h = _out_size(height, kernel, stride, padding)
    out_w = _out_size(width, kernel, stride, padding)
    x = x.transpose(0, 2, 3, 1)
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    s_batch, s_row, s_col, s_chan = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kernel, kernel, channels),
        strides=(s_batch, s_row * stride, s_col * stride, s_row, s_col, s_chan),
    )
    cols = patches.reshape(batch * out_h * out_w, kernel * kernel * channels)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add column rows back into an NCHW tensor (adjoint of
    :func:`im2col`), channels-last in memory."""
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


def _copy_param(param: Parameter | None) -> Parameter | None:
    return None if param is None else Parameter(param.data.copy(), name=param.name)


class ScalarConv2d(Module):
    """One client's 2-D convolution over NCHW input."""

    def __init__(self, template: Conv2d) -> None:
        super().__init__()
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        self.weight = _copy_param(template.weight)
        self.bias = _copy_param(template.bias)
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, self.padding)
        out = cols @ weight_matrix(self.weight.data).T
        if self.bias is not None:
            out += self.bias.data
        self._cols = cols
        self._x_shape = x.shape
        return out.reshape(x.shape[0], out_h, out_w, self.out_channels).transpose(
            0, 3, 1, 2
        )

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


class ScalarLinear(Module):
    """One client's affine map ``y = x @ W + b`` over 2-D input."""

    def __init__(self, template: Linear) -> None:
        super().__init__()
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.weight = _copy_param(template.weight)
        self.bias = _copy_param(template.bias)
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


def in_memory_order(x: np.ndarray, axes: tuple[int, ...] | None) -> np.ndarray:
    """``x`` (same shape, same values) laid out in memory in ``axes`` order."""
    if axes is None:
        return x
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    return np.ascontiguousarray(x.transpose(axes)).transpose(inverse)


class ScalarFlatten(Module):
    """Collapse all axes after the batch axis; the gradient comes back in
    the forward input's memory layout."""

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


def scalar_model(model: Module) -> Module:
    """A copy of ``model`` (a template of ``repro.nn`` layers) on the oracle
    layers, with the same parameter names, shapes and values."""
    if isinstance(model, Conv2d):
        return ScalarConv2d(model)
    if isinstance(model, Linear):
        return ScalarLinear(model)
    if isinstance(model, Flatten):
        return ScalarFlatten()
    if isinstance(model, ReLU):
        return ReLU()
    if isinstance(model, Sequential):
        return Sequential(*[scalar_model(layer) for layer in model.layers])
    if isinstance(model, FeatureClassifierModel):
        return FeatureClassifierModel(
            scalar_model(model.features),
            scalar_model(model.classifier),
            model.embed_dim,
        )
    raise TypeError(f"no oracle layer for {type(model).__name__}")


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return one-hot rows for integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


class CrossEntropyLoss:
    """One batch's mean softmax cross-entropy over logits with integer labels."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != logits.shape[0]:
            raise ValueError("batch size mismatch between logits and labels")
        log_probs = log_softmax(logits, axis=1)
        self._probs = softmax(logits, axis=1)
        self._targets = one_hot(labels, logits.shape[1])
        per_sample = -(self._targets * log_probs).sum(axis=1)
        loss = per_sample.sum()
        loss /= max(logits.shape[0], 1)
        return float(loss)

    def backward(self) -> np.ndarray:
        """Gradient of the loss with respect to the logits."""
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        return (self._probs - self._targets) / max(self._probs.shape[0], 1)


# --------------------------------------------------------------------------
# The scalar objective: one client's step context and the eight terms
# --------------------------------------------------------------------------


@dataclass
class StepContext:
    """One client's batch step: its tensors, shared mutable gradient
    buffers, and the strategy's fused per-class targets (``{class: (dim,)
    vector}``, or ``None`` for a method without them).

    ``views`` counts the ``batch``-row blocks concatenated along the rows;
    ``labels`` always covers the *primary* view.  Terms accumulate weighted
    gradients into ``grad_logits`` / ``grad_embedding`` in place and return
    their weighted loss.
    """

    labels: np.ndarray
    embeddings: np.ndarray
    logits: np.ndarray
    batch: int
    views: int = 1
    grad_logits: np.ndarray | None = None
    grad_embedding: np.ndarray | None = None
    class_targets: Mapping[int, np.ndarray] | None = None

    def view_labels(self) -> np.ndarray:
        """Labels tiled across the concatenated views."""
        if self.views == 1:
            return self.labels
        return np.concatenate([self.labels] * self.views)


class TripletStyleLoss:
    """One client's paper Eq. 7, the scalar form of
    :func:`repro.nn.losses.triplet_style_loss`."""

    def __init__(
        self,
        margin: float = 1.0,
        hinge: bool = False,
        normalize: bool = True,
    ) -> None:
        if margin < 0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        self.margin = margin
        self.hinge = hinge
        self.normalize = normalize
        self._grads: tuple[np.ndarray, np.ndarray] | None = None

    def forward(
        self,
        anchors: np.ndarray,
        transferred: np.ndarray,
        labels: np.ndarray,
    ) -> float:
        if anchors.shape != transferred.shape:
            raise ValueError(
                f"anchor/transferred shape mismatch: "
                f"{anchors.shape} vs {transferred.shape}"
            )
        labels = np.asarray(labels)
        batch = anchors.shape[0]
        if batch == 0:
            self._grads = (np.zeros_like(anchors), np.zeros_like(transferred))
            return 0.0

        raw_anchors, raw_transferred = anchors, transferred
        if self.normalize:
            anchor_norms = np.linalg.norm(anchors, axis=1, keepdims=True)
            transfer_norms = np.linalg.norm(transferred, axis=1, keepdims=True)
            anchor_norms = np.maximum(anchor_norms, 1e-12)
            transfer_norms = np.maximum(transfer_norms, 1e-12)
            anchors = anchors / anchor_norms
            transferred = transferred / transfer_norms

        # Pairwise squared distances between anchors and transferred samples.
        diff = anchors[:, None, :] - transferred[None, :, :]  # (B, B, d)
        sq_dist = np.einsum("ijk,ijk->ij", diff, diff)  # (B, B)
        negative_mask = labels[:, None] != labels[None, :]  # (B, B)
        negative_counts = negative_mask.sum(axis=1)  # (B,)

        positive_term = np.diagonal(sq_dist)
        with np.errstate(invalid="ignore", divide="ignore"):
            negative_mean = np.where(
                negative_counts > 0,
                (sq_dist * negative_mask).sum(axis=1) / np.maximum(negative_counts, 1),
                0.0,
            )
        raw = positive_term - negative_mean + self.margin
        if self.hinge:
            active = raw > 0
            per_sample = np.where(active, raw, 0.0)
        else:
            active = np.ones_like(raw, dtype=bool)
            per_sample = raw

        scale = 1.0 / batch

        grad_anchor = np.zeros_like(anchors)
        grad_transferred = np.zeros_like(transferred)
        # d positive / d z_i = 2 (z_i - z'_i); d positive / d z'_i = -2 (...)
        pos_diff = anchors - transferred
        grad_anchor += np.where(active[:, None], 2.0 * pos_diff, 0.0)
        grad_transferred -= np.where(active[:, None], 2.0 * pos_diff, 0.0)
        # d(-negative_mean)/dz_i = -(2/|N_i|) sum_n (z_i - z'_n)
        # d(-negative_mean)/dz'_n = +(2/|N_i|) (z_i - z'_n)
        has_neg = active & (negative_counts > 0)
        if np.any(has_neg):
            inv_counts = np.where(negative_counts > 0, 1.0 / np.maximum(negative_counts, 1), 0.0)
            weights = (negative_mask * has_neg[:, None]) * inv_counts[:, None]  # (B, B)
            # grad wrt anchor i: -2 * sum_n w_in (z_i - z'_n)
            grad_anchor -= 2.0 * (
                weights.sum(axis=1)[:, None] * anchors
                - weights @ transferred
            )
            # grad wrt transferred n: +2 * sum_i w_in (z_i - z'_n)
            grad_transferred += 2.0 * (
                weights.T @ anchors - weights.sum(axis=0)[:, None] * transferred
            )

        grad_anchor *= scale
        grad_transferred *= scale
        if self.normalize:
            # Chain through u = z / ||z||: J^T g = (g - (g . u) u) / ||z||.
            radial_a = np.sum(grad_anchor * anchors, axis=1, keepdims=True)
            grad_anchor = (grad_anchor - radial_a * anchors) / anchor_norms
            radial_t = np.sum(grad_transferred * transferred, axis=1, keepdims=True)
            grad_transferred = (
                grad_transferred - radial_t * transferred
            ) / transfer_norms
        self._grads = (grad_anchor, grad_transferred)
        loss = per_sample.sum() * scale
        return float(loss)

    def backward(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(grad_wrt_anchors, grad_wrt_transferred)``."""
        if self._grads is None:
            raise RuntimeError("backward called before forward")
        return self._grads


class EmbeddingL2Loss:
    """One client's paper Eq. 8, the scalar form of
    :func:`repro.nn.losses.embedding_l2_loss`."""

    def __init__(self) -> None:
        self._grads: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, anchors: np.ndarray, transferred: np.ndarray) -> float:
        if anchors.shape != transferred.shape:
            raise ValueError(
                f"anchor/transferred shape mismatch: "
                f"{anchors.shape} vs {transferred.shape}"
            )
        batch = anchors.shape[0]
        scale = 1.0 / batch if batch else 1.0
        loss = (np.sum(anchors**2) + np.sum(transferred**2)) * scale
        self._grads = (2.0 * anchors * scale, 2.0 * transferred * scale)
        return float(loss)

    def backward(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(grad_wrt_anchors, grad_wrt_transferred)``."""
        if self._grads is None:
            raise RuntimeError("backward called before forward")
        return self._grads


def prototype_nce(
    embeddings: np.ndarray,
    labels: np.ndarray,
    prototypes: Mapping[int, np.ndarray],
    temperature: float,
) -> tuple[float, np.ndarray]:
    """InfoNCE over cosine similarities to per-class prototypes (FPL).

    Embeddings and prototypes are L2-normalized before the similarity —
    the contrastive head operates on the unit sphere, which also keeps the
    regularizer bounded and numerically stable.  Returns ``(loss,
    grad_wrt_embeddings)``; prototypes are constants, and classes without
    a prototype are skipped.
    """
    known = sorted(prototypes)
    if not known:
        return 0.0, np.zeros_like(embeddings)
    usable = np.isin(labels, known)
    if not np.any(usable):
        return 0.0, np.zeros_like(embeddings)
    proto_matrix = np.stack([prototypes[c] for c in known])
    proto_norms = np.linalg.norm(proto_matrix, axis=1, keepdims=True)
    proto_unit = proto_matrix / np.maximum(proto_norms, 1e-12)
    class_to_column = {c: i for i, c in enumerate(known)}

    z = embeddings[usable]
    y = np.array([class_to_column[int(label)] for label in labels[usable]])
    z_norms = np.linalg.norm(z, axis=1, keepdims=True)
    z_unit = z / np.maximum(z_norms, 1e-12)
    logits = z_unit @ proto_unit.T / temperature
    probs = softmax(logits, axis=1)
    count = z.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(count), y] + 1e-12)))
    grad_logits = probs.copy()
    grad_logits[np.arange(count), y] -= 1.0
    grad_logits /= count
    # Chain through the normalization: d z_unit / d z projects out the
    # radial component.
    grad_unit = grad_logits @ proto_unit / temperature
    radial = np.sum(grad_unit * z_unit, axis=1, keepdims=True)
    grad_z = (grad_unit - radial * z_unit) / np.maximum(z_norms, 1e-12)
    full_grad = np.zeros_like(embeddings)
    full_grad[usable] = grad_z
    return loss, full_grad


def ce(term, ctx: StepContext, weight: float) -> float:
    criterion = CrossEntropyLoss()
    if ctx.views > 1 and not term.all_views:
        loss = criterion.forward(ctx.logits[: ctx.batch], ctx.labels)
        ctx.grad_logits[: ctx.batch] += weight * criterion.backward()
    else:
        loss = criterion.forward(ctx.logits, ctx.view_labels())
        ctx.grad_logits += weight * criterion.backward()
    return weight * loss


def embed_l2(term, ctx: StepContext, weight: float) -> float:
    embeddings = ctx.embeddings
    rows = embeddings.shape[0]
    loss = weight * float(np.mean(np.sum(embeddings**2, axis=1)))
    ctx.grad_embedding += weight * 2.0 * embeddings / rows
    return loss


def class_align(term, ctx: StepContext, weight: float) -> float:
    embeddings = ctx.embeddings
    labels = ctx.view_labels()
    references = np.empty_like(embeddings)
    for label in np.unique(labels):
        mask = labels == label
        references[mask] = embeddings[mask].mean(axis=0)
    deviation = embeddings - references
    rows = embeddings.shape[0]
    loss = weight * float(np.mean(np.sum(deviation**2, axis=1)))
    ctx.grad_embedding += weight * 2.0 * deviation / rows
    return loss


def align(term, ctx: StepContext, weight: float) -> float:
    targets = ctx.class_targets or {}
    if not targets:
        return 0.0
    embeddings = ctx.embeddings
    labels = ctx.view_labels()
    deviation = np.zeros_like(embeddings)
    for label in np.unique(labels):
        target = targets.get(int(label))
        if target is None:
            continue
        mask = labels == label
        deviation[mask] = embeddings[mask] - target
    rows = embeddings.shape[0]
    loss = weight * float(np.mean(np.sum(deviation**2, axis=1)))
    ctx.grad_embedding += weight * 2.0 * deviation / rows
    return loss


def proto_nce(term, ctx: StepContext, weight: float) -> float:
    loss, grad = prototype_nce(
        ctx.embeddings,
        ctx.view_labels(),
        ctx.class_targets or {},
        term.temperature,
    )
    ctx.grad_embedding += weight * grad
    return weight * loss


def triplet_style(term, ctx: StepContext, weight: float) -> float:
    batch = ctx.batch
    triplet = TripletStyleLoss(margin=term.margin, hinge=term.hinge)
    loss = triplet.forward(
        ctx.embeddings[:batch], ctx.embeddings[batch:], ctx.labels
    )
    grad_anchor, grad_positive = triplet.backward()
    ctx.grad_embedding[:batch] += weight * grad_anchor
    ctx.grad_embedding[batch:] += weight * grad_positive
    return weight * loss


def pair_l2(term, ctx: StepContext, weight: float) -> float:
    batch = ctx.batch
    regularizer = EmbeddingL2Loss()
    loss = regularizer.forward(ctx.embeddings[:batch], ctx.embeddings[batch:])
    grad_anchor, grad_positive = regularizer.backward()
    ctx.grad_embedding[:batch] += weight * grad_anchor
    ctx.grad_embedding[batch:] += weight * grad_positive
    return weight * loss


def consistency(term, ctx: StepContext, weight: float) -> float:
    batch = ctx.batch
    diff = ctx.embeddings[:batch] - ctx.embeddings[batch:]
    loss = weight * float(np.mean(diff**2))
    grad = weight * 2.0 * diff / diff.size
    ctx.grad_embedding[:batch] += grad
    ctx.grad_embedding[batch:] -= grad
    return loss


#: Scalar form of each registered term, by the term's ``name``; each takes
#: ``(term, ctx, weight)`` and reads only the term's parameters.
SCALAR_TERMS = {
    fn.__name__: fn
    for fn in (
        ce, embed_l2, class_align, align, proto_nce, triplet_style, pair_l2,
        consistency,
    )
}


def evaluate(objective, ctx: StepContext) -> float:
    """Apply every (nonzero-weight) term of ``objective`` in order through
    its scalar form; returns the summed weighted loss."""
    total = 0.0
    for binding in objective.bindings:
        if binding.weight == 0.0:
            continue
        term = binding.term
        total += SCALAR_TERMS[term.name](term, ctx, binding.weight)
    return total


def run_objective_epochs(
    model,
    dataset,
    objective,
    config,
    rng: np.random.Generator,
    *,
    class_targets: Mapping[int, np.ndarray] | None = None,
    secondary: np.ndarray | None = None,
    batch_views: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    | None = None,
) -> float:
    """Train ``model`` on ``dataset`` under ``objective``; returns the mean
    per-batch weighted loss.

    ``batch_views(images, rng)`` maps each indexed batch to the rows the
    step forwards; ``secondary`` is an optional view aligned index-for-index
    with the dataset, appended after them.  Randomness: one
    ``rng.permutation(n)`` per epoch, then whatever ``batch_views`` draws
    per batch.
    """
    images = dataset.images
    labels = dataset.labels
    model.train()
    optimizer = config.make_optimizer(model)
    needs_embedding = objective.needs_embedding()
    losses: list[float] = []
    n = images.shape[0]
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = idx.shape[0]
            combined = images[idx]
            if batch_views is not None:
                combined = batch_views(combined, rng)
            if secondary is not None:
                combined = np.concatenate([combined, secondary[idx]], axis=0)
            model.zero_grad()
            embeddings = model.forward_features(combined)
            logits = model.forward_logits(embeddings)
            ctx = StepContext(
                labels=labels[idx],
                embeddings=embeddings,
                logits=logits,
                batch=batch,
                views=combined.shape[0] // batch,
                grad_logits=np.zeros_like(logits),
                grad_embedding=(
                    np.zeros_like(embeddings) if needs_embedding else None
                ),
                class_targets=class_targets,
            )
            loss = evaluate(objective, ctx)
            model.backward(
                grad_logits=ctx.grad_logits,
                grad_embedding=ctx.grad_embedding,
                input_grad=False,
            )
            optimizer.step()
            losses.append(loss)
    return float(np.mean(losses)) if losses else 0.0


def dataset_embeddings(
    forward_features, images: np.ndarray, chunk: int = 256
) -> np.ndarray:
    """Chunked eval-mode sweep over one dataset, on the chunk boundaries
    of :func:`repro.nn.objective.ensemble_dataset_embeddings`."""
    parts = [
        forward_features(images[start : start + chunk])
        for start in range(0, images.shape[0], chunk)
    ]
    return np.concatenate(parts, axis=0)


def evaluate_loss(model, dataset, batch_size: int = 256) -> float:
    """Mean cross-entropy of ``model`` on ``dataset`` in evaluation mode."""
    logits = model.predict_logits(dataset.images, batch_size=batch_size)
    return CrossEntropyLoss().forward(logits, dataset.labels)


def local_update(strategy, client: Client, model, round_index: int, rng):
    """One client's step on ``model`` (holding the broadcast weights):
    FedDG-GA's gap first, then the base step — views, the epoch runner,
    the class-statistics sweep."""
    gap = (
        evaluate_loss(model, client.dataset)
        if isinstance(strategy, FedDGGAStrategy)
        else None
    )
    secondary = strategy.local_views(client, rng)
    loss = run_objective_epochs(
        model,
        client.dataset,
        strategy.objective,
        strategy.local_config,
        rng,
        class_targets=strategy.class_targets,
        secondary=secondary,
        batch_views=(
            functools.partial(strategy.batch_views, client)
            if strategy._views_per_batch()
            else None
        ),
    )
    payload = None
    if strategy.class_targets is not None:
        model.eval()
        embeddings = dataset_embeddings(
            model.forward_features, client.dataset.images
        )
        payload = {"class_stats": class_stats(embeddings, client.dataset.labels)}
        model.train()
    update = ClientUpdate.from_client(
        client, model.state_dict(), loss, payload=payload
    )
    if gap is not None:
        update.payload["gap"] = gap
    return update


def run_loop(
    strategy,
    model,
    wire_state,
    clients: Sequence[Client],
    round_index: int,
    seeds: Sequence[int],
) -> list[ClientUpdate]:
    """Each client trains on an oracle-layer copy of ``model``
    (:func:`scalar_model`) from the broadcast weights, in group order, on
    its own seeded generator."""
    model = scalar_model(model)
    updates = []
    for client, seed in zip(clients, seeds):
        model.load_state_dict(wire_state)
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        update = local_update(strategy, client, model, round_index, rng)
        update.train_seconds = time.perf_counter() - start
        updates.append(update)
    return updates


def train_stacks(
    self, strategy, model, wire_state, clients, round_index, seeds
):
    """``EnsembleBackend.train_stacks`` through :func:`run_loop`: one
    position per yield, in group order."""
    for position, (client, seed) in enumerate(zip(clients, seeds)):
        yield [position], run_loop(
            strategy, model, wire_state, [client], round_index, [seed]
        )
