"""FPL (Huang et al., CVPR 2023): federated prototype learning under domain
shift.

Clients upload per-class embedding prototypes alongside their weights.  The
server builds *unbiased* class prototypes by clustering each class's client
prototypes (so one dominant domain cannot own the class centre) and
averaging at the cluster level.  Clients then regularize local training by
a prototype-contrastive term: each embedding is pulled toward its class's
global prototype and pushed from the others via an InfoNCE head over
negative squared distances (prototypes treated as constants).

The client step is declarative: the ``proto_nce`` objective term
(:func:`repro.nn.objective.prototype_nce`) reads the fused prototypes from
the step context, the generic payload sweep distills per-class means, and
:meth:`FPLStrategy.fuse_payloads` merges them server-side — which also
means FPL now streams (it no longer overrides ``aggregate``; payloads
survive the streaming fold, only upload states are freed).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.finch import finch
from repro.fl.client import Client
from repro.fl.executor import ClientUpdate
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
        self.global_prototypes: dict[int, np.ndarray] = {}
        self.objective = CompositeObjective(
            [
                ("ce", 1.0),
                ("proto_nce", 0.5, ProtoNCETerm(temperature)),
            ]
        )

    # -- client side ----------------------------------------------------------

    def objective_context(self, client: Client) -> dict:
        return {"prototypes": self.global_prototypes}

    def payload_from_embeddings(
        self, client: Client, embeddings: np.ndarray, labels: np.ndarray
    ) -> dict:
        # Upload this client's per-class prototypes alongside the weights —
        # explicit payload, never strategy mutation, so the update is valid
        # under any execution engine.
        return {
            "prototypes": {
                int(label): embeddings[labels == label].mean(axis=0)
                for label in np.unique(labels)
            }
        }

    # -- server side ------------------------------------------------------------

    def fuse_payloads(self, updates: list[ClientUpdate], round_index: int) -> None:
        # Unbiased prototype fusion: cluster each class's client prototypes
        # (uploaded in the round's payloads), average inside clusters, then
        # average the cluster centres.
        round_prototypes: dict[int, list[np.ndarray]] = {}
        for update in updates:
            for label, prototype in update.payload.get("prototypes", {}).items():
                round_prototypes.setdefault(int(label), []).append(prototype)
        for label, prototypes in round_prototypes.items():
            self.global_prototypes[label] = self._fuse_prototypes(
                np.stack(prototypes)
            )

    def _fuse_prototypes(self, matrix: np.ndarray) -> np.ndarray:
        """Fuse one class's ``(clients, dim)`` prototype matrix.

        The historical FINCH path assumes every row is honest; under a
        Byzantine-robust aggregation rule a poisoned prototype would drag
        its whole cluster, so the rule's coordinate-wise robust reduction
        (:meth:`repro.fl.aggregate.Aggregator.reduce_vectors`) replaces
        clustering — prototypes get the same breakdown point as weights.
        """
        if self.aggregator.robust:
            return self.aggregator.reduce_vectors(matrix)
        if matrix.shape[0] >= 3:
            labels = finch(matrix, metric="cosine").last
            cluster_means = np.stack(
                [
                    matrix[labels == cluster].mean(axis=0)
                    for cluster in range(int(labels.max()) + 1)
                ]
            )
            return cluster_means.mean(axis=0)
        return matrix.mean(axis=0)
