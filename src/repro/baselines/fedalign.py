"""FedAlign: cross-client feature alignment (per PAPERS.md's sibling-method
survey).

Each participant distills its post-training representation into per-class
feature statistics — ``(mean, count)`` pairs over its local embeddings —
and uploads them in ``ClientUpdate.payload`` alongside the weights.  The
server fuses the statistics across clients into one alignment target per
class (count-weighted mean; the configured aggregation rule's robust
vector reduction when it is Byzantine-robust) and re-broadcasts the
targets with the strategy.  From round 2 on, local training adds the
``align`` objective term: every embedding is pulled toward its class's
*global* target, shrinking the representation drift between domains that
plain FedAvg lets grow.

Where FPL's prototypes feed a contrastive InfoNCE head, FedAlign's targets
act through a plain quadratic penalty — the same payload wire contract
carrying a geometrically different regularizer.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import CompositeObjective, FeatureAlignTerm

__all__ = ["FedAlignStrategy"]


class FedAlignStrategy(Strategy):
    """FedAlign: CE + quadratic pull toward fused per-class feature means."""

    name = "fedalign"

    def __init__(self, local_config: LocalTrainingConfig | None = None) -> None:
        super().__init__(local_config)
        # class id -> (embed_dim,) fused alignment target, broadcast with
        # the strategy each round (empty before the first fusion).
        self.global_targets: dict[int, np.ndarray] = {}
        self.objective = CompositeObjective(
            [
                ("ce", 1.0),
                ("align", 0.5, FeatureAlignTerm("align_targets")),
            ]
        )

    # -- client side ----------------------------------------------------------

    def objective_context(self, client: Client) -> dict:
        return {"align_targets": self.global_targets}

    def payload_from_embeddings(
        self, client: Client, embeddings: np.ndarray, labels: np.ndarray
    ) -> dict:
        stats = {}
        for label in np.unique(labels):
            mask = labels == label
            stats[int(label)] = (
                embeddings[mask].mean(axis=0),
                int(np.sum(mask)),
            )
        return {"feature_stats": stats}

    # -- server side ----------------------------------------------------------

    def fuse_payloads(self, updates: list[ClientUpdate], round_index: int) -> None:
        per_class: dict[int, list[tuple[np.ndarray, int]]] = {}
        for update in updates:
            for label, stat in update.payload.get("feature_stats", {}).items():
                per_class.setdefault(int(label), []).append(stat)
        for label, stats in per_class.items():
            matrix = np.stack([mean for mean, _ in stats])
            if self.aggregator.robust:
                # A poisoned mean with an inflated count would dominate a
                # weighted average; under a robust rule the counts are
                # ignored and the rule's breakdown point carries over.
                self.global_targets[label] = self.aggregator.reduce_vectors(
                    matrix
                )
            else:
                counts = np.array([count for _, count in stats], dtype=float)
                self.global_targets[label] = np.average(
                    matrix, axis=0, weights=counts
                )
