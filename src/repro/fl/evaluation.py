"""Model evaluation helpers used by the simulation core and strategies.

Lives inside ``repro.fl`` so the federated substrate has no dependency on
the higher-level ``repro.eval`` protocols (which depend on ``repro.fl``).
``repro.eval.metrics`` re-exports these for the public API.

:class:`EvaluationStage` is the server's evaluation pipeline stage: round
r's accuracy is not an input to round r+1, so it is scored on a background
thread while round r+1 trains.
"""

from __future__ import annotations

import copy
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np

from repro.data.synthetic import LabeledDataset
from repro.nn.functional import accuracy
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import FeatureClassifierModel

__all__ = [
    "EvaluationStage",
    "evaluate_accuracy",
    "evaluate_loss",
]

#: Images per forward chunk on the evaluation thread.  Its activations and
#: ``_cols`` caches (which nobody backpropagates through) are live *while a
#: training step is*: at 256 images that is ~20 MB on the bench CNN and +17 %
#: peak RSS (138.6 -> 162.6 MiB, ``pacs_serial``, 3 seeds) on a paper-shaped
#: serial run; at 64 the overlap costs no memory.  The logits are the
#: 256-chunk ones bit for bit (they stop being so at <= 32, where BLAS picks
#: other kernels for the short GEMMs).
_STAGE_CHUNK = 64


def evaluate_accuracy(
    model: FeatureClassifierModel,
    dataset: LabeledDataset,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` in evaluation mode."""
    if len(dataset) == 0:
        return 0.0
    logits = model.predict_logits(dataset.images, batch_size=batch_size)
    return accuracy(logits, dataset.labels)


def evaluate_loss(
    model: FeatureClassifierModel,
    dataset: LabeledDataset,
    batch_size: int = 256,
) -> float:
    """Mean cross-entropy of ``model`` on ``dataset`` in evaluation mode."""
    if len(dataset) == 0:
        return 0.0
    logits = model.predict_logits(dataset.images, batch_size=batch_size)
    return CrossEntropyLoss().forward(logits, dataset.labels)


class EvaluationStage:
    """Score global states on held-out sets, off the round's critical path.

    A one-deep pipeline stage: :meth:`submit` loads a state into an
    evaluation model and scores it on one long-lived background thread, so
    the caller goes on to the next round's local phase.  The evaluation
    model is a copy taken at construction that **nothing else can reach** —
    not the caller's instance, which the serial engine trains in.  At most one
    evaluation is in flight: ``submit`` waits for the previous one before it
    touches the model, so per-state results are exactly a foreground
    ``evaluate_accuracy`` on each state.  An evaluation error is raised by
    the future's ``result()``.  Use as a context manager: the thread is
    joined on exit, whether the block returned or raised.
    """

    def __init__(
        self, model: FeatureClassifierModel, eval_sets: dict[str, LabeledDataset]
    ) -> None:
        self._model = copy.deepcopy(model)
        self._eval_sets = eval_sets
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fl-evaluation"
        )
        self._in_flight: Future | None = None

    def submit(self, state: dict[str, np.ndarray]) -> Future[dict[str, float]]:
        """Start scoring ``state`` (copied in before this returns)."""
        if self._in_flight is not None:
            wait([self._in_flight])
        self._model.load_state_dict(state)
        self._in_flight = self._thread.submit(self._score)
        return self._in_flight

    def _score(self) -> dict[str, float]:
        return {
            name: evaluate_accuracy(self._model, dataset, batch_size=_STAGE_CHUNK)
            for name, dataset in self._eval_sets.items()
        }

    def __enter__(self) -> EvaluationStage:
        return self

    def __exit__(self, *exc_info) -> None:
        self._thread.shutdown(wait=True)
