"""FPL (Huang et al., CVPR 2023): federated prototype learning under domain
shift.

Clients upload per-class embedding prototypes alongside their weights.  The
server builds *unbiased* class prototypes by clustering each class's client
prototypes (so one dominant domain cannot own the class centre) and
averaging at the cluster level.  Clients then regularize local training by
a prototype-contrastive term: each embedding is pulled toward its class's
global prototype and pushed from the others via an InfoNCE head over
negative squared distances (prototypes treated as constants).

The exchange is the class-statistics channel of
:class:`repro.fl.strategy.Strategy`: the prototypes are the uploaded
per-class means (``class_stats``), the fused ones live in
``class_targets``, which the ``proto_nce`` objective term
(:func:`repro.nn.objective.prototype_nce`) reads.  FPL only replaces the
per-class reducer, :meth:`FPLStrategy.fuse_class`.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.finch import finch
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import CompositeObjective, ProtoNCETerm

__all__ = ["FPLStrategy"]


class FPLStrategy(Strategy):
    """FPL: unbiased cluster prototypes + prototype-contrastive regularizer."""

    name = "fpl"

    def __init__(
        self,
        temperature: float = 0.5,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        super().__init__(local_config)
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        # class id -> (embed_dim,) unbiased global prototype
        self.class_targets = {}
        self.objective = CompositeObjective(
            [
                ("ce", 1.0),
                ("proto_nce", 0.5, ProtoNCETerm(temperature)),
            ]
        )

    def fuse_class(self, means: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Fuse one class's ``(clients, dim)`` prototype matrix: cluster
        the rows, average inside clusters, then average the cluster
        centres; the counts play no part.

        The FINCH path assumes every row is honest; under a Byzantine-robust
        aggregation rule a poisoned prototype would drag its whole cluster,
        so the rule's coordinate-wise robust reduction
        (:meth:`repro.fl.aggregate.Aggregator.reduce_vectors`) replaces
        clustering — prototypes get the same breakdown point as weights.
        """
        if self.aggregator.robust:
            return self.aggregator.reduce_vectors(means)
        if means.shape[0] >= 3:
            labels = finch(means, metric="cosine").last
            cluster_means = np.stack(
                [
                    means[labels == cluster].mean(axis=0)
                    for cluster in range(int(labels.max()) + 1)
                ]
            )
            return cluster_means.mean(axis=0)
        return means.mean(axis=0)
