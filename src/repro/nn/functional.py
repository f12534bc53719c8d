"""Stateless numerical helpers shared across layers, losses, and metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "log_softmax", "one_hot", "accuracy"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


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


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` against integer ``labels``."""
    if logits.shape[0] == 0:
        return 0.0
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))

