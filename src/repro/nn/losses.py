"""Loss functions over one batch.

Each loss exposes ``forward(...) -> float`` and returns gradients with respect
to its inputs from ``backward()``: cross-entropy for the loss-landscape
probes, mean squared error for the privacy-attack inverter.

The training losses live over the trainer's ``(K, ...)`` client stacks
(K = 1 is one client): PARDON's objective (paper Eq. 9) is
``L = L_CE + gamma1 * L_T + gamma2 * L_reg`` with ``L_CE`` from
:func:`repro.nn.ensemble.ensemble_cross_entropy`, ``L_T`` (Eq. 7) from
:class:`repro.nn.ensemble.EnsembleTripletStyleLoss` and ``L_reg`` (Eq. 8)
from :class:`repro.nn.ensemble.EnsembleEmbeddingL2Loss`, bound into terms by
:mod:`repro.nn.objective`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import log_softmax, one_hot, softmax

__all__ = ["CrossEntropyLoss", "MSELoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy over logits with integer labels."""

    def __init__(self, reduction: str = "mean") -> None:
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction
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
        if self.reduction == "mean":
            loss /= max(logits.shape[0], 1)
        return float(loss)

    def backward(self) -> np.ndarray:
        """Gradient of the loss with respect to the logits."""
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs - self._targets
        if self.reduction == "mean":
            grad = grad / max(self._probs.shape[0], 1)
        return grad


class MSELoss:
    """Mean squared error; used to train the privacy-attack inverter."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.shape != targets.shape:
            raise ValueError(
                f"shape mismatch: {predictions.shape} vs {targets.shape}"
            )
        self._diff = predictions - targets
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size
