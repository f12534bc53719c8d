"""Stateless numerical helpers shared across layers, losses, and metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "accuracy"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of ``logits`` against integer ``labels``."""
    if logits.shape[0] == 0:
        return 0.0
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == np.asarray(labels)))

