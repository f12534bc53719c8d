"""FedGMA (Tenison et al., TMLR 2023): gradient-masked averaging.

The server inspects the *sign agreement* of client updates element-wise.
Where clients agree on the update direction (agreement above a threshold),
the averaged update passes through at full strength; where they disagree —
which under domain shift marks domain-specific parameters — the update is
attenuated by its agreement score.  This is a pure aggregation-side method:
local training is plain cross-entropy.

The masked mean is the method's own aggregation rule, so FedGMA cannot run
under another one: a configured rule other than ``mean`` is refused when
the first round opens its stream.
"""

from __future__ import annotations

import numpy as np

from repro.fl.aggregate import AggregationStream, Aggregator
from repro.fl.strategy import LocalTrainingConfig, Strategy
from repro.nn.serialize import StateDict, state_sub

__all__ = ["FedGMAStrategy"]


class _SignAgreementMean(Aggregator):
    """FedGMA's rule over the round's uploads (in dispatch order): the
    sample-weighted mean update, scaled per coordinate by the weighted
    sign agreement wherever that falls below the threshold."""

    name = "fedgma"

    def __init__(self, agreement_threshold: float, server_lr: float) -> None:
        super().__init__()
        self.agreement_threshold = agreement_threshold
        self.server_lr = server_lr

    def reduce(
        self,
        states: list[StateDict],
        weights: list[float],
        ref: StateDict | None,
    ) -> StateDict:
        weights = np.array(weights)
        weights = weights / weights.sum()
        deltas = [state_sub(state, ref) for state in states]
        new_state: StateDict = {}
        for key in ref:
            stacked = np.stack([delta[key] for delta in deltas])
            signs = np.sign(stacked)
            agreement = np.abs(
                np.tensordot(weights, signs, axes=(0, 0))
            )  # in [0, 1] element-wise
            mean_delta = np.tensordot(weights, stacked, axes=(0, 0))
            mask = np.where(agreement >= self.agreement_threshold, 1.0, agreement)
            new_state[key] = ref[key] + self.server_lr * mask * mean_delta
        return new_state


class FedGMAStrategy(Strategy):
    """FedGMA: agreement-masked server aggregation over update deltas."""

    name = "fedgma"

    def __init__(
        self,
        agreement_threshold: float = 0.8,
        server_lr: float = 1.0,
        local_config: LocalTrainingConfig | None = None,
    ) -> None:
        super().__init__(local_config)
        if not 0.0 <= agreement_threshold <= 1.0:
            raise ValueError(
                f"agreement_threshold must be in [0, 1], got {agreement_threshold}"
            )
        if server_lr <= 0:
            raise ValueError(f"server_lr must be positive, got {server_lr}")
        self.agreement_threshold = agreement_threshold
        self.server_lr = server_lr

    def begin_stream(self, global_state: StateDict) -> AggregationStream:
        if self.aggregator.spec != "mean":
            raise ValueError(
                f"{self.name} aggregates by sign agreement and cannot run "
                f"under the {self.aggregator.spec!r} aggregation rule"
            )
        rule = _SignAgreementMean(self.agreement_threshold, self.server_lr)
        return rule.begin_stream(global_state)
