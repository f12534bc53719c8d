"""Client abstraction for the federated simulation.

Besides the :class:`Client` record itself, this module defines the
change-tracking half of the delta-based wire protocol:
:class:`ScratchSpace` is the per-client scratch dict that remembers which
keys were written or removed since the last synchronization point, and
:class:`ScratchDelta` is the portable record of those changes.  The
execution engines (:mod:`repro.fl.executor`) use the pair so a client's
scratch state — for PARDON, the style-transferred image cache — crosses the
process boundary once when it changes instead of in full every round.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.data.synthetic import LabeledDataset

__all__ = ["Client", "ScratchDelta", "ScratchSpace"]


@dataclass(frozen=True)
class ScratchDelta:
    """The changes one sync interval made to a :class:`ScratchSpace`.

    ``updates`` maps written keys to their new values; ``removed`` lists
    deleted keys.  Applying a delta to any copy that was identical at the
    previous sync point reproduces the source exactly — additions,
    overwrites, and deletions all round-trip.
    """

    updates: dict[Any, Any] = field(default_factory=dict)
    removed: tuple[Any, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.updates or self.removed)


class ScratchSpace(MutableMapping):
    """A dict that remembers which keys changed since the last sync.

    Tracking is at key granularity: assigning or deleting a key marks it,
    while mutating a stored value in place (e.g. appending to a cached list)
    is invisible — strategies must re-assign the key to publish such a
    change.  Every strategy in this repository writes whole values, so the
    restriction is a documentation contract, not a migration.

    :meth:`collect_delta` snapshots the pending changes as a
    :class:`ScratchDelta` and marks the space clean; :meth:`apply_delta`
    replays a delta from elsewhere *without* re-marking the keys dirty (it
    is a sync, not a local edit), unless asked to ``record`` it.
    """

    __slots__ = ("_data", "_dirty", "_removed")

    def __init__(self, data: Mapping | None = None) -> None:
        self._data: dict[Any, Any] = dict(data) if data else {}
        # Insertion-ordered sets (dicts with None values) so delta contents
        # are deterministic across processes regardless of hash seeds.
        self._dirty: dict[Any, None] = dict.fromkeys(self._data)
        self._removed: dict[Any, None] = {}

    # -- mapping protocol ----------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._dirty[key] = None
        self._removed.pop(key, None)

    def __delitem__(self, key: Any) -> None:
        del self._data[key]
        self._dirty.pop(key, None)
        self._removed[key] = None

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"ScratchSpace({self._data!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScratchSpace):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    # -- change tracking -----------------------------------------------------

    @property
    def dirty_keys(self) -> tuple[Any, ...]:
        """Keys written since the last sync point (insertion order)."""
        return tuple(self._dirty)

    def mark_clean(self) -> None:
        """Declare the current contents synchronized (e.g. after shipping
        the whole space to a worker at registration)."""
        self._dirty.clear()
        self._removed.clear()

    def collect_delta(self) -> ScratchDelta:
        """Snapshot pending changes as a delta and mark the space clean.

        The returned delta holds references to (not copies of) the stored
        values; serialize or apply it before mutating them.
        """
        delta = ScratchDelta(
            updates={key: self._data[key] for key in self._dirty},
            removed=tuple(self._removed),
        )
        self.mark_clean()
        return delta

    def apply_delta(self, delta: ScratchDelta) -> None:
        """Replay a delta produced by another copy of this space.

        The changes are *not* marked dirty here — applying is a
        synchronization, not a local edit, and re-marking would bounce the
        same entries back on the next sync.
        """
        for key, value in delta.updates.items():
            self._data[key] = value
        for key in delta.removed:
            self._data.pop(key, None)

    # -- pickling (required because of __slots__) ----------------------------

    def __getstate__(self) -> tuple:
        return (self._data, tuple(self._dirty), tuple(self._removed))

    def __setstate__(self, state: tuple) -> None:
        data, dirty, removed = state
        self._data = data
        self._dirty = dict.fromkeys(dirty)
        self._removed = dict.fromkeys(removed)


@dataclass
class Client:
    """One federated participant: an id, a private dataset, and scratch state.

    ``scratch`` is a per-client :class:`ScratchSpace` strategies may use for
    method state that lives across rounds (e.g. PARDON's style-transfer
    cache).  The simulation core never reads it, which keeps the privacy
    boundary of each method explicit in the strategy code rather than hidden
    in the substrate; its change tracking is what lets the parallel engine
    sync only deltas across the process boundary.

    Co-resident clients (the same engine location in one round) may be
    handed to a compute backend (:mod:`repro.fl.compute`) as one *group*
    and trained as a fused parameter stack.  Backends sub-group by
    ``num_samples`` — stacking requires a shared batch geometry — and a
    client's scratch is only ever touched by its own slice, so grouping
    never couples clients' state.
    """

    client_id: int
    dataset: LabeledDataset
    scratch: ScratchSpace = field(default_factory=ScratchSpace)

    def __post_init__(self) -> None:
        if not isinstance(self.scratch, ScratchSpace):
            self.scratch = ScratchSpace(self.scratch)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def nbytes(self) -> int:
        """Approximate resident bytes of this client's arrays (dataset
        tensors plus ndarray-valued scratch entries) — what one entry in
        the engine's bounded resident set costs the server."""
        total = 0
        for value in vars(self.dataset).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
        for value in self.scratch.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total

    def domains_present(self) -> np.ndarray:
        """The distinct source-domain ids in this client's data."""
        return np.unique(self.dataset.domain_ids)
