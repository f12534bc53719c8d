"""Every loss in ``repro.nn``: a stateless function that returns its value
and its gradients.

PARDON's objective (paper Eq. 9) is ``L = L_CE + gamma_T * L_T +
gamma_reg * L_reg``, trained over the trainer's ``(K, ...)`` client stacks
(K = 1 is one client): ``L_CE`` is :func:`ensemble_cross_entropy`, ``L_T``
(Eq. 7) :func:`triplet_style_loss` and ``L_reg`` (Eq. 8)
:func:`embedding_l2_loss`, each bound into a weighted term by
:mod:`repro.nn.objective`.  Each returns per-slice losses of shape ``(K,)``
and gradient stacks matching its inputs; slices never mix (the pairwise
products are batched matmuls), so slice ``k`` is that client's loss alone.

Outside training, one batch at a time: :func:`cross_entropy` (the loss
landscapes, the privacy benches' judge classifiers) is
:func:`ensemble_cross_entropy` on a stack of one, and :func:`mse` trains
the privacy-attack inverter.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ensemble_cross_entropy",
    "triplet_style_loss",
    "embedding_l2_loss",
    "cross_entropy",
    "mse",
]


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


def _check_pair(anchors: np.ndarray, transferred: np.ndarray) -> None:
    if anchors.shape != transferred.shape:
        raise ValueError(
            f"anchor/transferred shape mismatch: "
            f"{anchors.shape} vs {transferred.shape}"
        )


def triplet_style_loss(
    anchors: np.ndarray,
    transferred: np.ndarray,
    labels: np.ndarray,
    margin: float,
    hinge: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PARDON's multi-domain triplet loss (paper Eq. 7) per slice of
    ``(K, B, d)`` stacks with ``(K, B)`` labels.

    For each sample ``i`` with embedding ``z_i`` (anchor) and style-transferred
    embedding ``z'_i`` (positive), the negatives are the style-transferred
    embeddings of every sample in the slice's batch with a different label:

    ``L_T = sum_i ( ||z_i - z'_i||^2 - mean_n ||z_i - z'_n||^2 + margin )``

    The paper's Eq. 7 carries no hinge: the pull-to-positive / push-from-
    negative pressure is always active, and the companion regularizer
    (Eq. 8, :func:`embedding_l2_loss`) is what keeps the raw embedding
    norms bounded.  ``hinge=True`` is the classical FaceNet variant
    ``[...]_+`` (an ablation).

    Distances are taken between L2-normalized embeddings — the standard
    practice in contrastive FedDG implementations — which bounds every
    pairwise term in ``[0, 4]`` and keeps the hinge-free objective
    well-conditioned at any loss weight; the gradients chain through the
    normalization.  They are produced with respect to **both** the anchors
    and the transferred batch, since both come from the same trainable
    feature extractor.  A sample with an empty negative set (its class
    fills the batch) contributes only the positive pull term.

    Returns ``(losses, grad_anchors, grad_transferred)``: ``(K,)`` losses
    and gradient stacks matching the inputs.
    """
    _check_pair(anchors, transferred)
    if anchors.ndim != 3:
        raise ValueError(f"expected (K, B, d) stacks, got {anchors.shape}")
    labels = np.asarray(labels)
    stack, batch = anchors.shape[:2]
    if batch == 0:
        return np.zeros(stack), np.zeros_like(anchors), np.zeros_like(transferred)

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
    raw = positive_term - negative_mean + margin
    if hinge:
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
    # Chain through u = z / ||z||: J^T g = (g - (g . u) u) / ||z||.
    radial_a = np.sum(grad_anchor * anchors, axis=2, keepdims=True)
    grad_anchor = (grad_anchor - radial_a * anchors) / anchor_norms
    radial_t = np.sum(grad_transferred * transferred, axis=2, keepdims=True)
    grad_transferred = (grad_transferred - radial_t * transferred) / transfer_norms
    return per_sample.sum(axis=1) * scale, grad_anchor, grad_transferred


def embedding_l2_loss(
    anchors: np.ndarray, transferred: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paper Eq. 8 per slice of ``(K, B, d)`` stacks:
    ``L_reg = sum_i ||z_i||^2 + ||z'_i||^2`` over the batch, batch-averaged.

    Unlike weight decay, this bounds the *representations*, limiting how much
    client-specific information the embedding can encode (following FedSR).
    Returns ``(losses, grad_anchors, grad_transferred)``.
    """
    _check_pair(anchors, transferred)
    batch = anchors.shape[1]
    scale = 1.0 / batch if batch else 1.0
    losses = (
        np.sum(anchors**2, axis=(1, 2)) + np.sum(transferred**2, axis=(1, 2))
    ) * scale
    return losses, 2.0 * anchors * scale, 2.0 * transferred * scale


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of one ``(batch, classes)`` batch with
    integer labels, and its gradient with respect to the logits:
    :func:`ensemble_cross_entropy` on a stack of one."""
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    losses, grad = ensemble_cross_entropy(logits[None], np.asarray(labels)[None])
    return float(losses[0]), grad[0]


def mse(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to ``predictions``."""
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    diff = predictions - targets
    return float(np.mean(diff**2)), 2.0 * diff / diff.size
