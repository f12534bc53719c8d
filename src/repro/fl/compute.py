"""Compute backends: how an engine trains a group of co-resident clients.

The execution engines (:mod:`repro.fl.executor`) decide *where* local
updates run (in-process or on a pool worker); a compute backend decides
*how* the clients that landed in one place actually train:

* ``loop`` — the historical per-client loop: load the broadcast weights,
  run :meth:`repro.fl.strategy.Strategy.local_update`, repeat.
* ``ensemble`` — stack the group's K clients along a leading axis
  (:mod:`repro.nn.ensemble`) and run their local epochs as single batched
  matmuls per layer, with one fused SGD step over the whole ``(K, ...)``
  parameter stack.  Requires the strategy to implement
  :meth:`repro.fl.strategy.Strategy.ensemble_update` and every module of
  the model to have an ensemble converter; anything else falls back to the
  loop per group, so the backend is always safe to select.
* ``strict`` — the ensemble code path forced to K=1 groups.  Because
  numpy's batched kernels are bitwise identical per slice, ``strict``
  produces exactly the same bytes as ``ensemble`` for any grouping — it
  exists to *prove* that equivalence in tests and audits, one client at a
  time.

Backends are negotiated like codecs and transports: the registry maps spec
strings to factories, ``auto`` resolves against the model at pool build
(``ensemble`` when every module converts, ``loop`` otherwise), and the
resolved spec ships to workers so both endpoints agree on the compute
semantics before any task is dispatched.

Numerical contract
------------------
Per-client results are *independent of grouping*: slice ``k`` of a K-stack
is bitwise the computation the loop backend runs for that client (see
:mod:`repro.nn.ensemble` for why).  The serial engine may therefore hand a
round's survivors over as one group while the parallel engine hands over
one group per home worker, and the backend may split either into stacks of
any size — their traces stay bit-identical, the invariant the cross-engine
tests in ``tests/test_nn_ensemble.py`` enforce.  ``ensemble`` sizes its
stacks by their per-step input (:data:`_STACK_STEP_ELEMENTS`), so training
memory is bounded per stack, not proportional to the group.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.fl.client import Client
from repro.nn.ensemble import ensemble_of, ensemble_supports, load_state_broadcast

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.fl.executor import ClientUpdate
    from repro.fl.strategy import Strategy
    from repro.nn.models import FeatureClassifierModel
    from repro.nn.module import Module
    from repro.nn.serialize import StateDict

__all__ = [
    "ComputeBackend",
    "LoopBackend",
    "EnsembleBackend",
    "compute_specs",
    "make_compute",
    "resolve_compute",
    "timed_local_update",
]

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
#: ``round_s`` stayed within run-to-run noise down to 2**15.  Every stack
#: size a group uses keeps one clone alive, so 43/43/42 costs about what
#: 64/64 does, and 3 * 2**14 wins on ``xdev_lazy`` only because 128 splits
#: into equal 32s.  2**16 keeps paper-sized clients in pairs and never splits
#: six-sample 3x8x8 clients below 28 a stack (57 of them split 29/28).
_STACK_STEP_ELEMENTS = 1 << 16


def _stack_sizes(count: int, limit: int) -> list[int]:
    """Split ``count`` clients into the fewest stacks of at most ``limit``,
    as even as possible: two distinct sizes at most, larger ones first."""
    stacks = -(-count // limit)
    base, extra = divmod(count, stacks)
    return [base + 1] * extra + [base] * (stacks - extra)


def _architecture(model: "Module") -> tuple:
    """What an ensemble clone's structure depends on: names and shapes."""
    return tuple(
        (name, param.data.shape) for name, param in model.named_parameters()
    ) + tuple((name, buffer.shape) for name, buffer in model.named_buffers())


def timed_local_update(
    strategy: "Strategy",
    client: Client,
    model: "FeatureClassifierModel",
    round_index: int,
    seed: int,
) -> "ClientUpdate":
    """Run one local update on ``model`` (already holding the broadcast
    weights) and stamp its wall clock."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    update = strategy.local_update(client, model, round_index, rng)
    update.train_seconds = time.perf_counter() - start
    return update


class ComputeBackend:
    """Backend contract: train one co-resident group, in group order.

    ``clients`` and ``seeds`` are aligned; ``model`` is the engine's
    workspace/template model and ``wire_state`` the already-decoded
    broadcast weights every client trains from.  Implementations return
    one :class:`repro.fl.executor.ClientUpdate` per client, in the same
    order, each stamped with ``train_seconds``.
    """

    name = "compute"
    #: Whether the engine should hand this backend multi-client groups
    #: (one task per home worker) instead of one task per client.
    batched = False

    @property
    def spec(self) -> str:
        return self.name

    def run_group(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        wire_state: "StateDict",
        clients: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
    ) -> "list[ClientUpdate]":
        raise NotImplementedError


class LoopBackend(ComputeBackend):
    """The historical per-client loop; the default and the fallback."""

    name = "loop"

    def run_group(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        wire_state: "StateDict",
        clients: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
    ) -> "list[ClientUpdate]":
        updates = []
        for client, seed in zip(clients, seeds):
            model.load_state_dict(wire_state)
            updates.append(
                timed_local_update(strategy, client, model, round_index, seed)
            )
        return updates


class EnsembleBackend(ComputeBackend):
    """Leading-axis batched training over each group's parameter stack.

    Clients are sub-grouped by dataset size (stacking needs a shared batch
    geometry) preserving group order, and each sub-group trains as the
    fewest even stacks whose per-step input fits
    :data:`_STACK_STEP_ELEMENTS` (two stack sizes at most); empty-dataset
    clients and any stack the strategy declines (``ensemble_update``
    returning ``None``) run through the loop path instead.
    ``max_group_size=1`` is the ``strict`` backend: every client becomes a
    K=1 stack through the identical code path, which slice independence
    makes bit-equal to any larger stack.
    """

    name = "ensemble"
    batched = True
    #: Upper bound on stack size; ``None`` sizes each stack by its per-step
    #: input (:data:`_STACK_STEP_ELEMENTS`).
    max_group_size: int | None = None

    def __init__(self) -> None:
        #: Ensemble clones of the latest group, keyed by (architecture,
        #: stack size).  A worker trains the same resident group round after
        #: round, so rebuilding the stacked module graph every round is pure
        #: waste; a clone no stack of the latest group used is dropped, so a
        #: survivor count that changes every round cannot pile them up.
        #: Reuse is safe because every use starts with a full
        #: ``load_state_broadcast`` — the clone carries no state between
        #: rounds, only structure — which is also why the key only needs to
        #: pin the architecture, not the owning model object.
        self._clones: dict[tuple, "Module"] = {}

    def _stack_limit(self, strategy: "Strategy", client: Client) -> int:
        if self.max_group_size is not None:
            return self.max_group_size
        batch = min(strategy.local_config.batch_size, client.num_samples)
        step = batch * client.dataset.images[0].size
        return max(1, _STACK_STEP_ELEMENTS // step)

    def run_group(
        self,
        strategy: "Strategy",
        model: "FeatureClassifierModel",
        wire_state: "StateDict",
        clients: Sequence[Client],
        round_index: int,
        seeds: Sequence[int],
    ) -> "list[ClientUpdate]":
        if not (strategy.supports_ensemble() and ensemble_supports(model)):
            return LoopBackend().run_group(
                strategy, model, wire_state, clients, round_index, seeds
            )
        # Order-preserving sub-grouping by dataset size.
        by_size: dict[int, list[int]] = {}
        for position, client in enumerate(clients):
            by_size.setdefault(client.num_samples, []).append(position)
        results: "list[ClientUpdate | None]" = [None] * len(clients)

        def run_loop(positions: list[int]) -> None:
            singles = LoopBackend().run_group(
                strategy,
                model,
                wire_state,
                [clients[position] for position in positions],
                round_index,
                [seeds[position] for position in positions],
            )
            for position, update in zip(positions, singles):
                results[position] = update

        # The run plan, in group order: (stacked, positions).
        plan: list[tuple[bool, list[int]]] = []
        for num_samples, positions in by_size.items():
            if num_samples == 0:
                # Strategies special-case empty clients before consuming
                # any randomness; keep them on the reference path.
                plan.append((False, positions))
                continue
            limit = self._stack_limit(strategy, clients[positions[0]])
            start = 0
            for stack in _stack_sizes(len(positions), limit):
                plan.append((True, positions[start : start + stack]))
                start += stack
        architecture = _architecture(model)
        used = {(architecture, len(chunk)) for stacked, chunk in plan if stacked}
        # Drop the clones this group does not use before building new ones.
        self._clones = {
            key: clone for key, clone in self._clones.items() if key in used
        }
        for stacked, chunk in plan:
            if not stacked:
                run_loop(chunk)
                continue
            stack = len(chunk)
            key = (architecture, stack)
            if key not in self._clones:
                self._clones[key] = ensemble_of(model, stack)
            emodel = self._clones[key]
            load_state_broadcast(emodel, wire_state, stack)
            rngs = [np.random.default_rng(seeds[position]) for position in chunk]
            begin = time.perf_counter()
            updates = strategy.ensemble_update(
                [clients[position] for position in chunk],
                emodel,
                round_index,
                rngs,
            )
            elapsed = time.perf_counter() - begin
            if updates is None:
                run_loop(chunk)
                continue
            # The stack trained as one fused pass; attribute each client an
            # equal share so timing reports stay comparable with the loop
            # backend's per-client clocks.
            share = elapsed / stack
            for position, update in zip(chunk, updates):
                update.train_seconds = share
                results[position] = update
        return results  # type: ignore[return-value]


class _StrictBackend(EnsembleBackend):
    name = "strict"
    max_group_size = 1


_BACKENDS: dict[str, Callable[[], ComputeBackend]] = {
    "loop": LoopBackend,
    "ensemble": EnsembleBackend,
    "strict": _StrictBackend,
}


def compute_specs() -> tuple[str, ...]:
    """The registered concrete backend specs (``auto`` excluded)."""
    return tuple(sorted(_BACKENDS))


def make_compute(spec: "str | ComputeBackend") -> ComputeBackend:
    """Build a backend from its spec string (or pass one through).

    ``auto`` is not buildable — resolve it first against a model with
    :func:`resolve_compute`, like the engines do at pool build.
    """
    if isinstance(spec, ComputeBackend):
        return spec
    factory = _BACKENDS.get(spec)
    if factory is None:
        known = ("auto",) + compute_specs()
        raise ValueError(f"unknown compute backend {spec!r}; expected one of {known}")
    return factory()


def resolve_compute(
    spec: str, model: "FeatureClassifierModel | None" = None
) -> str:
    """Validate a compute spec; resolve ``auto`` against ``model``.

    ``auto`` picks ``ensemble`` when every module of the model has an
    ensemble converter (clients share the architecture by construction —
    the engines broadcast one template), and ``loop`` otherwise.  Without
    a model, ``auto`` stays ``auto`` — configs validate early, engines
    resolve late.
    """
    if spec == "auto":
        if model is None:
            return "auto"
        return "ensemble" if ensemble_supports(model) else "loop"
    if spec not in _BACKENDS:
        known = ("auto",) + compute_specs()
        raise ValueError(f"unknown compute backend {spec!r}; expected one of {known}")
    return spec
