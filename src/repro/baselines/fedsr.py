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
is its term list — the generic runners supply the loop, and the trainer's
ensemble stacks apply for free.

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

    def __init__(
        self,
        l2_weight: float = 0.1,
        cmi_weight: float = 0.2,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        super().__init__(local_config)
        if l2_weight < 0 or cmi_weight < 0:
            raise ValueError("regularizer weights must be non-negative")
        self.l2_weight = l2_weight
        self.cmi_weight = cmi_weight
        self.objective = CompositeObjective(
            [
                ("ce", 1.0),
                ("embed_l2", l2_weight),
                ("class_align", cmi_weight),
            ]
        )
