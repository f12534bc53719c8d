"""Evaluation metrics (re-exported from the federated substrate).

The implementations live in :mod:`repro.fl.evaluation` so ``repro.fl`` has
no dependency back on this package; import them from here in user code.
"""

from repro.fl.evaluation import evaluate_accuracy, evaluate_loss

__all__ = ["evaluate_accuracy", "evaluate_loss"]
