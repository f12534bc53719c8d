"""``repro.baselines`` — the SOTA FedDG baselines the paper compares
against, plus plain FedAvg and the sibling methods from PAPERS.md's survey
(FedAlign, FedCCRL) that share FPL's class-statistics channel
(:attr:`repro.fl.strategy.Strategy.class_targets`).

Each is a :class:`repro.fl.Strategy`, so any of them drops into the same
simulation loop and benchmark harness as PARDON.
"""

from repro.baselines.fedavg import FedAvgStrategy
from repro.baselines.fedsr import FedSRStrategy
from repro.baselines.fedgma import FedGMAStrategy
from repro.baselines.fpl import FPLStrategy
from repro.baselines.feddg_ga import FedDGGAStrategy
from repro.baselines.ccst import CCSTStrategy, StyleBankEntry
from repro.baselines.mixstyle import MixStyleStrategy
from repro.baselines.fedalign import FedAlignStrategy
from repro.baselines.fedccrl import FedCCRLStrategy

__all__ = [
    "FedAvgStrategy",
    "FedSRStrategy",
    "FedGMAStrategy",
    "FPLStrategy",
    "FedDGGAStrategy",
    "CCSTStrategy",
    "StyleBankEntry",
    "MixStyleStrategy",
    "FedAlignStrategy",
    "FedCCRLStrategy",
]
