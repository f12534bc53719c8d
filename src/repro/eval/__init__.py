"""``repro.eval`` — evaluation protocols, metrics, and landscape tooling."""

from repro.eval.metrics import evaluate_accuracy
from repro.eval.protocols import (
    ExperimentSetting,
    SplitOutcome,
    check_split,
    make_clients,
    run_fixed_split_protocol,
    run_lodo_protocol,
    run_ltdo_protocol,
    run_split_experiment,
)
from repro.eval.landscape import (
    LandscapeSlice,
    client_minima_divergence,
    loss_landscape_slice,
)
from repro.eval.statistics import (
    SeedSweepResult,
    mean_std,
    paired_win_rate,
    sweep_seeds,
)

__all__ = [
    "SeedSweepResult",
    "sweep_seeds",
    "paired_win_rate",
    "mean_std",
    "evaluate_accuracy",
    "ExperimentSetting",
    "SplitOutcome",
    "check_split",
    "make_clients",
    "run_split_experiment",
    "run_lodo_protocol",
    "run_ltdo_protocol",
    "run_fixed_split_protocol",
    "LandscapeSlice",
    "loss_landscape_slice",
    "client_minima_divergence",
]
