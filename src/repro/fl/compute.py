"""The one trainer: how an engine trains a group of co-resident clients.

The execution engines (:mod:`repro.fl.executor`) decide *where* local
updates run (in-process, on a pool worker, on a remote agent); the trainer
decides *how* the clients that landed in one place actually train.  Every
engine that trains and every wire endpoint holds one
:class:`EnsembleBackend`.  It stacks a group's K clients along a leading
axis (:mod:`repro.nn.ensemble`) and runs their local epochs as single
batched matmuls per layer, with one fused SGD step over the whole
``(K, ...)`` parameter stack, through
:meth:`repro.fl.strategy.Strategy.train_group`, which every strategy has.
There is no other path, and nothing to select or negotiate; a model with a
module that has no ensemble converter, or a participant without samples,
is refused by :meth:`repro.fl.round.Executor.run_round` before any
dispatch.

Numerical contract
------------------
Per-client results are *independent of grouping*: slice ``k`` of a K-stack
is bitwise the scalar computation of that client alone on the template
model (see :mod:`repro.nn.ensemble` for why).  The serial engine may
therefore hand a round's survivors over as one group while the wire engines
hand over one group per home, and the trainer may split either into stacks
of any size — their traces stay bit-identical, the invariant the
cross-engine tests in ``tests/test_nn_ensemble.py`` enforce against the
scalar per-client loop kept in ``tests/reference_loop.py``.

Memory
------
Stacks are sized by their per-step input (:data:`_STACK_STEP_ELEMENTS`)
and train one at a time (:meth:`EnsembleBackend.train_stacks` yields each
stack's updates as it finishes), so an engine that consumes them as they
come — the serial engine folds each stack into the round's aggregate
before the next one trains — holds one stack's states, not the group's.
The trainer keeps one stacked clone, of the latest group's architecture,
sized to the largest stack it has needed; a smaller stack trains on
leading-slice views of it.  The clone holds one workspace
(:class:`repro.nn.module.Workspace`): every array a step writes — the
gathered input, padded inputs, im2col columns, activations, masks and
gradients — is a leading view of a buffer sized to the largest
``(K, rows)`` step the clone has run, so a warm step allocates only the
objective's temporaries and the few small arrays it hands the strategy's
terms.  The workspace goes with the clone when another architecture or a
larger stack replaces it.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.fl.client import Client
from repro.nn.ensemble import ensemble_of, load_state_broadcast
from repro.nn.module import architecture_signature

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.executor import ClientUpdate
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel
    from repro.nn.module import Module
    from repro.nn.serialize import StateDict

__all__ = ["EnsembleBackend"]

#: Input elements one stack's training step may hold, summed over its slices:
#: a stack of K clients takes ``K * min(batch_size, num_samples) *
#: prod(image_shape)`` per step, and its parameters, gradients, momentum and
#: activations all grow with K.  Stacking only amortises per-call Python and
#: layer-dispatch overhead, which is already small beside the arithmetic of a
#: few dozen tiny slices or of one paper-sized slice, so past that a larger
#: stack buys memory, not speed.  Sweep with ``benchmarks/perf/run.py``
#: (2-core Xeon, BLAS pinned, 2-3 seeds a cell, every digest equal), peak RSS
#: in MiB with the stacks each budget gives:
#:
#:   budget     pacs_serial       xdev_lazy
#:   unbounded  171 (5)           105 (128)
#:   2**17      170 (5)            82 (64/64)
#:   2**16      139 (2/2/1)        84 (43/43/42)
#:   3 * 2**14  138 (2/2/1)        70 (32 x 4)
#:   2**15      123 (1 x 5)        74 (26 x 3, 25 x 2)
#:   9216                          61 (8 x 16), round_s +16 %
#:   1                             59 (1 x 128), round_s x2.8
#:
#: ``round_s`` stayed within run-to-run noise down to 2**15.  Those rows were
#: read while every stack size kept a clone and the serial round trained
#: all its stacks before folding any; with one stack in flight and one
#: clone, 2**16 reads 135 (2/2/1) and 67 (43/43/42).  2**16 keeps
#: paper-sized clients in pairs and never splits six-sample 3x8x8 clients
#: below 28 a stack (57 of them split 29/28).
_STACK_STEP_ELEMENTS = 1 << 16


def _stack_sizes(count: int, limit: int) -> list[int]:
    """Split ``count`` clients into the fewest stacks of at most ``limit``,
    as even as possible: two distinct sizes at most, larger ones first."""
    stacks = -(-count // limit)
    base, extra = divmod(count, stacks)
    return [base + 1] * extra + [base] * (stacks - extra)


class EnsembleBackend:
    """The one trainer: train one co-resident group, one stack at a time.

    :meth:`train_stacks` takes aligned ``clients`` and ``seeds``, the
    engine's workspace/template ``model`` and the already-decoded broadcast
    ``wire_state`` every client trains from, and yields ``(positions,
    updates)`` per stack: the group positions it trained and one
    :class:`repro.fl.executor.ClientUpdate` per position, each stamped with
    ``train_seconds``.  :meth:`run_group` is that iterator collected into
    group order.

    Clients are sub-grouped by dataset size (stacking needs a shared batch
    geometry), and each sub-group trains as the fewest even stacks whose
    per-step input fits :data:`_STACK_STEP_ELEMENTS` (two stack sizes at
    most).  Stacks train in the order of their first position, so the
    lowest untrained position is always in the next stack.
    """

    def __init__(self) -> None:
        #: (architecture, capacity, ensemble clone): one clone, of the latest
        #: group's architecture, with its workspace, sized to the largest
        #: stack any group needed and rebuilt only when a group needs a
        #: larger one.  Smaller stacks train on its leading slices
        #: (``load_state_broadcast``).  A worker trains the same resident
        #: group round after round, so rebuilding the stacked module graph
        #: every round is pure waste.  Reuse is safe because every use
        #: starts with a full ``load_state_broadcast`` and every step
        #: rewrites the workspace arrays it reads — the clone carries no
        #: state between stacks, only structure — which is also why the key
        #: only needs to pin the architecture
        #: (:func:`repro.nn.architecture_signature`, hyperparameters such as
        #: conv strides included), not the owning model object.
        self._clone: "tuple[tuple, int, Module] | None" = None

    def _stack_limit(self, strategy: "Strategy", client: Client) -> int:
        batch = min(strategy.local_config.batch_size, client.num_samples)
        step = batch * math.prod(client.dataset.image_shape)
        return max(1, _STACK_STEP_ELEMENTS // step)

    def _plan(
        self, strategy: "Strategy", clients: Sequence[Client]
    ) -> "list[list[int]]":
        """The run plan: one position list per stack, ordered by first
        position."""
        by_size: dict[int, list[int]] = {}
        for position, client in enumerate(clients):
            by_size.setdefault(client.num_samples, []).append(position)
        plan: "list[list[int]]" = []
        for positions in by_size.values():
            limit = self._stack_limit(strategy, clients[positions[0]])
            start = 0
            for stack in _stack_sizes(len(positions), limit):
                plan.append(positions[start : start + stack])
                start += stack
        plan.sort(key=lambda chunk: chunk[0])
        return plan

    def _clone_for(self, model: "Module", stack: int) -> "Module":
        """The one clone, holding at least ``stack`` slices of ``model``."""
        architecture = architecture_signature(model)
        clone = self._clone
        if clone is None or clone[0] != architecture or clone[1] < stack:
            self._clone = clone = None  # freed before its successor is built
            emodel = ensemble_of(model, stack)
            emodel.attach_workspace()
            self._clone = (architecture, stack, emodel)
        return self._clone[2]

    def train_stacks(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        wire_state: "StateDict",
        clients: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
    ) -> "Iterator[tuple[list[int], list[ClientUpdate]]]":
        plan = self._plan(strategy, clients)
        emodel = self._clone_for(model, max(map(len, plan)))
        for chunk in plan:
            members = [clients[position] for position in chunk]
            stack = len(chunk)
            load_state_broadcast(emodel, wire_state, stack)
            rngs = [np.random.default_rng(seeds[position]) for position in chunk]
            begin = time.perf_counter()
            updates = strategy.train_group(members, emodel, round_index, rngs)
            elapsed = time.perf_counter() - begin
            # The stack trained as one fused pass; attribute each client an
            # equal share so timing reports stay per-client.
            for update in updates:
                update.train_seconds = elapsed / stack
            yield chunk, updates

    def run_group(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        wire_state: "StateDict",
        clients: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
    ) -> "list[ClientUpdate]":
        """Train the whole group; one update per client, in group order."""
        results: "list[ClientUpdate | None]" = [None] * len(clients)
        for positions, updates in self.train_stacks(
            strategy, model, wire_state, clients, round_index, seeds
        ):
            for position, update in zip(positions, updates):
                results[position] = update
        return results  # type: ignore[return-value]
