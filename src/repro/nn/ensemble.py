"""Leading-axis stacks: K identical models trained in one pass.

A federated worker hosting K co-resident clients runs K structurally
identical models per round.  Instead of looping, the trainer
(:mod:`repro.fl.compute`) stacks the K parameter sets along a new leading
axis — weights become ``(K, ...)`` arrays — so one batched
``np.matmul`` per layer trains the whole stack at once.

One implementation per layer
----------------------------
``Conv2d``, ``Linear`` and ``Flatten`` are written once, over the stack
axis (:class:`repro.nn.module.StackedModule`): :func:`ensemble_of` builds a
K-stack of the *same classes*, and a template — parameters without the
stack axis — runs that code as a stack of one.  ReLU is elementwise, and
``Sequential`` / ``FeatureClassifierModel`` only route arrays, so each of
them serves both shapes unchanged.  Softmax cross-entropy is likewise
written once (:func:`ensemble_cross_entropy`; ``CrossEntropyLoss`` is it on
a stack of one), as are the stacked Eq. 7 / Eq. 8 losses below.

Why per-client numerics survive stacking
----------------------------------------
numpy's batched ``matmul`` and axis reductions (``sum``/``max``) produce
*bitwise identical* results per slice regardless of the stack
composition: slice ``k`` of a batched ``(K, M, N) @ (K, N, P)`` equals the
plain 2-D product of the same operands, and a reduction over a slice's
axes equals the same reduction on the extracted slice.  So per-client
results do not depend on how clients are grouped into stacks, and a stack
of one is a lone client.  The test suite holds every layer to an oracle it
does not share — the per-batch scalar layers and cross-entropy kept in
``tests/reference_loop.py`` — on drawn architectures
(``tests/test_nn_ensemble.py``).

A stack's layers keep their template's attribute names (``weight``,
``bias``, ``layers``, ...), so ``named_parameters`` / ``state_dict`` yield
the *same dotted names* with ``(K,) + shape`` values — the state helpers at
the bottom of this module stack / split client state dicts without any
per-layer knowledge.

A layer type without a registered converter cannot be stacked, and the
trainer has no other way to train: :func:`check_stackable` names such
layers, and every engine's ``run_round`` calls it before it dispatches
anything.  A layer that owns a stateful generator (a dropout mask, say)
would need per-slice generators to keep slices independent; none is
registered.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.models import FeatureClassifierModel
from repro.nn.module import Module, Parameter, Sequential, StackedModule

__all__ = [
    "ensemble_cross_entropy",
    "EnsembleTripletStyleLoss",
    "EnsembleEmbeddingL2Loss",
    "register_ensemble_converter",
    "check_stackable",
    "ensemble_of",
    "load_state_stack",
    "load_state_broadcast",
    "ensemble_state_dicts",
]


def _stack_layer(template: StackedModule, ensemble_size: int) -> StackedModule:
    """A K-stack of ``template``: its class and hyperparameters, each
    parameter broadcast to ``(K,) + shape``, no cached activations and no
    workspace (what a copy of the template carries)."""
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {ensemble_size}")
    layer = object.__new__(type(template))
    for attr, value in template.__getstate__().items():
        if isinstance(value, Parameter):
            value = Parameter(
                np.broadcast_to(value.data, (ensemble_size,) + value.shape).copy(),
                name=value.name,
            )
        setattr(layer, attr, value)
    layer.ensemble_size = ensemble_size
    return layer


# --------------------------------------------------------------------------
# Ensemble losses
# --------------------------------------------------------------------------


def ensemble_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean-reduced softmax cross-entropy per slice of a ``(K, B, C)`` stack
    with ``(K, B)`` integer labels in ``[0, C)``.

    Returns ``(losses, grad_logits)`` with ``losses`` of shape ``(K,)`` and
    ``grad_logits`` matching ``logits``.
    """
    if logits.ndim != 3:
        raise ValueError(f"logits must be 3-D (K, B, C), got shape {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:2]:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits.shape[:2]}"
        )
    stack, batch, num_classes = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
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
    """PARDON's multi-domain triplet loss (paper Eq. 7), per slice of a
    ``(K, B, d)`` stack.

    For each sample ``i`` with embedding ``z_i`` (anchor) and style-transferred
    embedding ``z'_i`` (positive), the negatives are the style-transferred
    embeddings of every sample in the slice's batch with a different label:

    ``L_T = sum_i ( ||z_i - z'_i||^2 - mean_n ||z_i - z'_n||^2 + alpha )``

    The paper's Eq. 7 carries no hinge: the pull-to-positive / push-from-
    negative pressure is always active, and the companion regularizer
    (Eq. 8, :class:`EnsembleEmbeddingL2Loss`) is what keeps the raw embedding
    norms bounded.  Pass ``hinge=True`` for the classical FaceNet variant
    ``[...]_+`` (exposed for ablations).

    With ``normalize=True`` (default) the distances are computed between
    L2-normalized embeddings — the standard practice in contrastive FedDG
    implementations — which bounds every pairwise term in ``[0, 4]`` and
    makes the hinge-free objective well-conditioned at any loss weight.
    Gradients chain through the normalization.

    Gradients are produced with respect to **both** the anchor batch and the
    transferred batch, since both come from the same trainable feature
    extractor.  Samples with an empty negative set (their class fills the
    batch) contribute only the positive pull term.

    Inputs are ``(K, B, d)`` stacks plus ``(K, B)`` labels; ``forward``
    returns per-slice losses of shape ``(K,)`` and ``backward`` the matching
    gradient stacks.  Slices never mix: the pairwise products are batched
    matmuls.
    """

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

        scale = 1.0 / batch

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
    """Paper Eq. 8, per slice of a ``(K, B, d)`` stack:
    ``L_reg = sum_i ||z_i||^2 + ||z'_i||^2``.

    Unlike weight decay, this bounds the *representations*, limiting how much
    client-specific information the embedding can encode (following FedSR).
    """

    def __init__(self) -> None:
        self._grads: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, anchors: np.ndarray, transferred: np.ndarray) -> np.ndarray:
        if anchors.shape != transferred.shape:
            raise ValueError(
                f"anchor/transferred shape mismatch: "
                f"{anchors.shape} vs {transferred.shape}"
            )
        batch = anchors.shape[1]
        scale = 1.0 / batch if batch else 1.0
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
    models cannot train (:func:`check_stackable`).
    """
    _CONVERTERS[template_type] = converter


def check_stackable(model: Module) -> None:
    """Raise ``ValueError`` naming the module types in ``model`` that have
    no registered ensemble converter; return quietly if there are none."""
    unsupported = sorted(
        {
            type(module).__name__
            for module in model.modules()
            if type(module) not in _CONVERTERS
        }
    )
    if unsupported:
        raise ValueError(
            f"model contains modules without ensemble converters: {unsupported}"
        )


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
    check_stackable(model)
    return _convert(model, ensemble_size)


for _layer in (Conv2d, Linear, Flatten):
    register_ensemble_converter(_layer, _stack_layer)
# ReLU is elementwise and shape-agnostic: a fresh instance works on
# (K, batch, ...) stacks unchanged.
register_ensemble_converter(ReLU, lambda template, ensemble_size: ReLU())
register_ensemble_converter(
    Sequential,
    lambda t, k: Sequential(*[_convert(layer, k) for layer in t.layers]),
)
register_ensemble_converter(
    FeatureClassifierModel,
    lambda t, k: FeatureClassifierModel(
        _convert(t.features, k), _convert(t.classifier, k), t.embed_dim
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


def _use_leading(emodel: Module, ensemble_size: int) -> None:
    """Make ``emodel`` an ``ensemble_size``-stack over the leading slices of
    the storage it was built with.

    Each module's parameter data and gradients at build size are remembered
    on first use; every later call points them at ``[:size]`` views of that
    storage.  A leading slice of a C-contiguous array is
    C-contiguous at the same address, so every GEMM operand keeps the
    layout a freshly built ``size``-stack would give it.
    """
    for module in emodel.modules():
        if isinstance(module, StackedModule):
            module.ensemble_size = ensemble_size
        storage = vars(module).get("_storage")
        if storage is None:
            storage = module._storage = {
                attr: (value.data, value.grad)
                for attr, value in vars(module).items()
                if isinstance(value, Parameter)
            }
        for attr, (data, grad) in storage.items():
            if data.shape[0] < ensemble_size:
                raise ValueError(
                    f"a {data.shape[0]}-stack clone cannot train "
                    f"{ensemble_size} slices"
                )
            param = getattr(module, attr)
            param.data, param.grad = data[:ensemble_size], grad[:ensemble_size]


def load_state_broadcast(
    emodel: Module, state: dict[str, np.ndarray], ensemble_size: int
) -> None:
    """Load one (global) state dict into every slice of an
    ``ensemble_size``-stack of ``emodel``.

    ``emodel`` may have been built for more slices (the trainer keeps one
    clone, sized to the largest stack it needs): a smaller stack then
    trains on leading-slice views of the clone's parameters and gradients
    (:func:`_use_leading`).  The broadcast is copied into those views in
    place, never into fresh arrays.
    """
    _use_leading(emodel, ensemble_size)
    for name, param in emodel.state_targets(state).items():
        value, target = state[name], param.data
        if np.shape(value) != target.shape[1:]:
            raise ValueError(
                f"shape mismatch for {name}: "
                f"expected {target.shape[1:]}, got {np.shape(value)}"
            )
        target[...] = value


def ensemble_state_dicts(emodel: Module) -> list[dict[str, np.ndarray]]:
    """Split an ensemble model back into K per-client state dicts.

    Key order matches the template's ``state_dict`` because ensemble layers
    mirror the template attribute names.  Each stack is copied once and the
    K states hold its row views, which are C-contiguous snapshots that alias
    neither the live stack nor each other.
    """
    ensemble_size = next(
        (
            module.ensemble_size
            for module in emodel.modules()
            if isinstance(module, StackedModule) and module.ensemble_size
        ),
        None,
    )
    if ensemble_size is None:
        raise ValueError("not an ensemble model: no ensemble_size found")
    states: list[dict[str, np.ndarray]] = [{} for _ in range(ensemble_size)]
    for name, param in emodel.named_parameters():
        rows = param.data.copy()
        for index in range(ensemble_size):
            states[index][name] = rows[index]
    return states
