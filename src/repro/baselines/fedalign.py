"""FedAlign: cross-client feature alignment (per PAPERS.md's sibling-method
survey).

Each participant distills its post-training representation into per-class
feature statistics — ``(mean, count)`` pairs over its local embeddings —
and uploads them alongside the weights; the server fuses them into one
alignment target per class (count-weighted mean; the configured
aggregation rule's robust vector reduction when it is Byzantine-robust)
and re-broadcasts the targets with the strategy.  That exchange is the
class-statistics channel of :class:`repro.fl.strategy.Strategy`, used
as is.  From round 2 on, local training adds the ``align`` objective
term: every embedding is pulled toward its class's *global* target,
shrinking the representation drift between domains that plain FedAvg
lets grow.

Where FPL's prototypes feed a contrastive InfoNCE head, FedAlign's targets
act through a plain quadratic penalty — the same channel carrying a
geometrically different regularizer.
"""

from __future__ import annotations

from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.objective import CompositeObjective

__all__ = ["FedAlignStrategy"]


class FedAlignStrategy(Strategy):
    """FedAlign: CE + quadratic pull toward fused per-class feature means."""

    name = "fedalign"

    def __init__(self, local_config: LocalTrainingConfig | None = None) -> None:
        super().__init__(local_config)
        self.class_targets = {}
        self.objective = CompositeObjective([("ce", 1.0), ("align", 0.5)])
