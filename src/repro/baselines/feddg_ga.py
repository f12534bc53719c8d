"""FedDG-GA (Zhang et al., CVPR 2023): generalization adjustment.

An aggregation-side method: the server maintains a per-client aggregation
weight and, after each round, nudges weights toward clients on which the
global model still has a high generalization gap (loss), so hard clients —
often those holding domains the current model handles poorly — gain
influence.  Weights are smoothed with momentum, floored, and renormalized
by the configured rule, which folds each upload with its client's weight
(:meth:`FedDGGAStrategy.upload_weight`); under ``mean`` that is the
paper's weighted average.

The gap is a loss on the client's own data, so the client measures it:
each participant evaluates the broadcast weights on its dataset before
training and reports the loss as ``payload["gap"]``.  The server reads the
gaps from the uploads and never touches a model or a dataset.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.ensemble import ensemble_cross_entropy
from repro.nn.module import Module
from repro.nn.objective import ensemble_dataset_embeddings

__all__ = ["FedDGGAStrategy"]


class FedDGGAStrategy(Strategy):
    """FedDG-GA: generalization-gap-adjusted aggregation weights."""

    name = "feddg_ga"

    def __init__(
        self,
        step_size: float = 0.2,
        momentum: float = 0.5,
        weight_floor: float = 0.05,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        super().__init__(local_config)
        if step_size < 0:
            raise ValueError(f"step_size must be >= 0, got {step_size}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_floor <= 0:
            raise ValueError(f"weight_floor must be positive, got {weight_floor}")
        self.step_size = step_size
        self.momentum = momentum
        self.weight_floor = weight_floor
        self.client_weights: dict[int, float] = {}

    def train_group(
        self,
        clients: list[Client],
        emodel: Module,
        round_index: int,
        rngs: list[np.random.Generator],
    ) -> list[ClientUpdate]:
        # The gap: each slice's mean eval-mode cross-entropy of the broadcast
        # weights on its own dataset, before training moves them.
        emodel.eval()
        logits = ensemble_dataset_embeddings(
            emodel.forward, np.stack([client.dataset.images for client in clients])
        )
        emodel.train()
        gaps, _ = ensemble_cross_entropy(
            logits, np.stack([client.dataset.labels for client in clients])
        )
        updates = super().train_group(clients, emodel, round_index, rngs)
        for update, gap in zip(updates, gaps):
            update.payload["gap"] = float(gap)
        return updates

    def upload_weight(self, update: ClientUpdate) -> float:
        # The adjusted weight, renormalized over the round's participants
        # by whichever rule folds it.
        return self.client_weights.get(update.client_id, 1.0)

    def fuse_payloads(self, updates: list[ClientUpdate], round_index: int) -> None:
        # Adjust weights for future rounds from the reported gaps; this
        # round's uploads were already folded with the old ones.  An update
        # without a gap (one not produced by ``train_group``) keeps its
        # client's weight.
        reported = [update for update in updates if "gap" in update.payload]
        if self.step_size > 0 and reported:
            gaps = np.array([update.payload["gap"] for update in reported])
            centered = gaps - gaps.mean()
            scale = np.max(np.abs(centered))
            if scale > 0:
                adjustment = self.step_size * centered / scale
                for update, delta in zip(reported, adjustment):
                    old = self.client_weights.get(update.client_id, 1.0)
                    updated = (
                        self.momentum * old
                        + (1.0 - self.momentum) * (old + float(delta))
                    )
                    self.client_weights[update.client_id] = max(
                        updated, self.weight_floor
                    )
