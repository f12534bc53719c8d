"""FedSR (Nguyen et al., NeurIPS 2022): simple representation regularization.

FedSR adds two representation-space regularizers to local training: an L2
bound on the embedding norm (limit how much the representation can encode)
and a conditional alignment term pulling each embedding toward its class's
reference point (a tractable surrogate of FedSR's conditional-mutual-
information bound; we use the in-batch class mean with stop-gradient as the
reference, which preserves the regularizer's geometry without FedSR's
probabilistic encoder).

Both regularizers live in the objective registry (``embed_l2`` /
``class_align`` in :mod:`repro.nn.objective`), so FedSR's whole client step
is its term list — the generic runner supplies the loop over the trainer's
client stacks.

The paper's Tables I–III show FedSR collapsing to chance accuracy when data
per client is small — the regularizers overwhelm the scarce task signal —
and this implementation reproduces that failure mode.
"""

from __future__ import annotations

from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import CompositeObjective

__all__ = ["FedSRStrategy"]


class FedSRStrategy(Strategy):
    """FedSR: CE + L2 embedding norm + class-conditional alignment."""

    name = "fedsr"

    def __init__(self, local_config: LocalTrainingConfig | None = None) -> None:
        super().__init__(local_config)
        self.objective = CompositeObjective(
            [("ce", 1.0), ("embed_l2", 0.1), ("class_align", 0.2)]
        )
