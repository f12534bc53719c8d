"""FedCCRL: federated cross-client representation learning (per PAPERS.md's
sibling-method survey).

FedCCRL combines two representation-level pressures on top of supervised
training:

* **augmentation consistency** — each batch runs a second, generically
  augmented view (noise + circular shifts, the same pipeline PARDON's v4
  ablation uses) through the shared feature extractor in one concatenated
  forward, and a quadratic consistency term pulls the two views' embeddings
  together, with cross-entropy supervising *both* views;
* **cross-client alignment** — clients upload per-class representation
  statistics ``(mean, count)`` in ``ClientUpdate.payload``, as in FedAlign;
  the server fuses them into global per-class targets (count-weighted, or
  the aggregation rule's robust vector reduction) and re-broadcasts, and the
  ``align`` term pulls embeddings of both views toward their class target.
"""

from __future__ import annotations

import numpy as np

from repro.data.transforms import standard_augmentation
from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import (
    CompositeObjective,
    CrossEntropyTerm,
    FeatureAlignTerm,
)

__all__ = ["FedCCRLStrategy"]


class FedCCRLStrategy(Strategy):
    """FedCCRL: two-view CE + augmentation consistency + global alignment."""

    name = "fedccrl"

    def __init__(self, local_config: LocalTrainingConfig | None = None) -> None:
        super().__init__(local_config)
        # class id -> (embed_dim,) fused representation target.
        self.global_targets: dict[int, np.ndarray] = {}
        self.objective = CompositeObjective(
            [
                ("ce", 1.0, CrossEntropyTerm(all_views=True)),
                ("consistency", 0.5),
                ("align", 0.25, FeatureAlignTerm("align_targets")),
            ]
        )

    # -- client side ----------------------------------------------------------

    def local_views(
        self, client: Client, rng: np.random.Generator
    ) -> np.ndarray:
        # Drawn fresh each round, before any batch permutation — the same
        # randomness discipline as PARDON's v4 augmentation positives.
        return standard_augmentation()(client.dataset.images, rng)

    def objective_context(self, client: Client) -> dict:
        return {"align_targets": self.global_targets}

    def payload_from_embeddings(
        self, client: Client, embeddings: np.ndarray, labels: np.ndarray
    ) -> dict:
        stats = {}
        for label in np.unique(labels):
            rows = embeddings[labels == label]
            stats[int(label)] = (rows.mean(axis=0), int(rows.shape[0]))
        return {"repr_stats": stats}

    # -- server side ----------------------------------------------------------

    def fuse_payloads(self, updates: list[ClientUpdate], round_index: int) -> None:
        per_class: dict[int, list[tuple[np.ndarray, int]]] = {}
        for update in updates:
            for label, stat in update.payload.get("repr_stats", {}).items():
                per_class.setdefault(int(label), []).append(stat)
        for label, stats in per_class.items():
            means = np.stack([mean for mean, _ in stats])
            if self.aggregator.robust:
                self.global_targets[label] = self.aggregator.reduce_vectors(
                    means
                )
            else:
                counts = np.array([count for _, count in stats], dtype=float)
                self.global_targets[label] = np.average(
                    means, axis=0, weights=counts
                )
