"""FedCCRL: federated cross-client representation learning (per PAPERS.md's
sibling-method survey).

FedCCRL combines two representation-level pressures on top of supervised
training:

* **augmentation consistency** — each batch runs a second, generically
  augmented view (noise + circular shifts, the same pipeline PARDON's v4
  ablation uses) through the shared feature extractor in one concatenated
  forward, and a quadratic consistency term pulls the two views' embeddings
  together, with cross-entropy supervising *both* views;
* **cross-client alignment** — FedAlign's exchange, the class-statistics
  channel of :class:`repro.fl.strategy.Strategy`: clients upload per-class
  ``(mean, count)`` representation statistics, the server fuses them into
  global per-class targets (count-weighted, or the aggregation rule's
  robust vector reduction) and re-broadcasts, and the ``align`` term pulls
  embeddings of both views toward their class target.
"""

from __future__ import annotations

import numpy as np

from repro.data.transforms import standard_augmentation
from repro.fl.client import Client
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import CompositeObjective, CrossEntropyTerm

__all__ = ["FedCCRLStrategy"]


class FedCCRLStrategy(Strategy):
    """FedCCRL: two-view CE + augmentation consistency + global alignment."""

    name = "fedccrl"

    def __init__(self, local_config: LocalTrainingConfig | None = None) -> None:
        super().__init__(local_config)
        self.class_targets = {}
        self.objective = CompositeObjective(
            [
                ("ce", 1.0, CrossEntropyTerm(all_views=True)),
                ("consistency", 0.5),
                ("align", 0.25),
            ]
        )

    def local_views(
        self, client: Client, rng: np.random.Generator
    ) -> np.ndarray:
        # Drawn fresh each round, before any batch permutation — the same
        # randomness discipline as PARDON's v4 augmentation positives.
        return standard_augmentation()(client.dataset.images, rng)
