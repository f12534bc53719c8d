"""Client abstraction for the federated simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.data.synthetic import LabeledDataset

__all__ = ["Client"]


@dataclass
class Client:
    """One federated participant: an id, a private dataset, and scratch state.

    ``scratch`` is a per-client dict strategies may use for *caches*: values
    recomputable from the client's data and the broadcast strategy (e.g.
    PARDON's style-transferred images).  It stays on the endpoint that
    writes it — a pickled client ships with an empty scratch, and nothing
    syncs it between server and workers — so any endpoint may start with
    it empty and a cache must check it still fits the strategy it reads it
    for.  The simulation core never reads it.

    Co-resident clients (the same engine location in one round) may be
    handed to a compute backend (:mod:`repro.fl.compute`) as one *group*
    and trained as a fused parameter stack.  Backends sub-group by
    ``num_samples`` — stacking requires a shared batch geometry — and a
    client's scratch is only ever touched by its own slice, so grouping
    never couples clients' state.
    """

    client_id: int
    dataset: LabeledDataset
    scratch: dict[Any, Any] = field(default_factory=dict)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def __getstate__(self) -> dict[str, Any]:
        # Scratch stays where it is written: a shipped copy starts empty.
        return {"client_id": self.client_id, "dataset": self.dataset, "scratch": {}}
