"""Leading-axis stacks: K identical models trained in one pass.

A federated worker hosting K co-resident clients runs K structurally
identical models per round.  Instead of looping, the trainer
(:mod:`repro.fl.compute`) stacks the K parameter sets along a new leading
axis — weights become ``(K, ...)`` arrays — so one batched
``np.matmul`` per layer trains the whole stack at once.

One implementation per layer
----------------------------
``Conv2d``, ``Linear`` and ``Flatten`` are written once, over the stack
axis (:class:`repro.nn.module.StackedModule`): :func:`ensemble_of` builds a
K-stack of the *same classes*, and a template — parameters without the
stack axis — runs that code as a stack of one.  ReLU is elementwise, and
``Sequential`` / ``FeatureClassifierModel`` only route arrays, so each of
them serves both shapes unchanged.  The losses are functions over the
same stacks (:mod:`repro.nn.losses`); this module holds only the stacking
and the state helpers.

Why per-client numerics survive stacking
----------------------------------------
numpy's batched ``matmul`` and axis reductions (``sum``/``max``) produce
*bitwise identical* results per slice regardless of the stack
composition: slice ``k`` of a batched ``(K, M, N) @ (K, N, P)`` equals the
plain 2-D product of the same operands, and a reduction over a slice's
axes equals the same reduction on the extracted slice.  So per-client
results do not depend on how clients are grouped into stacks, and a stack
of one is a lone client.  The test suite holds every layer and every loss
to an oracle it does not share — the per-batch scalar forms kept in
``tests/reference_loop.py`` — on drawn architectures and drawn batches
(``tests/test_nn_ensemble.py``, ``tests/test_nn_losses.py``).

A stack's layers keep their template's attribute names (``weight``,
``bias``, ``layers``, ...), so ``named_parameters`` / ``state_dict`` yield
the *same dotted names* with ``(K,) + shape`` values — the state helpers at
the bottom of this module stack / split client state dicts without any
per-layer knowledge.

A layer type without a registered converter cannot be stacked, and the
trainer has no other way to train: :func:`check_stackable` names such
layers, and every engine's ``run_round`` calls it before it dispatches
anything.  A layer that owns a stateful generator (a dropout mask, say)
would need per-slice generators to keep slices independent; none is
registered.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.models import FeatureClassifierModel
from repro.nn.module import Module, Parameter, Sequential, StackedModule

__all__ = [
    "register_ensemble_converter",
    "check_stackable",
    "ensemble_of",
    "load_state_stack",
    "load_state_broadcast",
    "ensemble_state_dicts",
]


def _stack_layer(template: StackedModule, ensemble_size: int) -> StackedModule:
    """A K-stack of ``template``: its class and hyperparameters, each
    parameter broadcast to ``(K,) + shape``, no cached activations and no
    workspace (what a copy of the template carries)."""
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {ensemble_size}")
    layer = object.__new__(type(template))
    for attr, value in template.__getstate__().items():
        if isinstance(value, Parameter):
            value = Parameter(
                np.broadcast_to(value.data, (ensemble_size,) + value.shape).copy(),
                name=value.name,
            )
        setattr(layer, attr, value)
    layer.ensemble_size = ensemble_size
    return layer


# --------------------------------------------------------------------------
# Converter registry: template layer type -> ensemble constructor
# --------------------------------------------------------------------------

_CONVERTERS: dict[type, Callable[[Module, int], Module]] = {}


def register_ensemble_converter(
    template_type: type, converter: Callable[[Module, int], Module]
) -> None:
    """Register ``converter(template, K) -> ensemble module`` for a layer type.

    Matching is by exact type (like the codec registry's spec names): a
    subclass with different semantics must register its own converter or its
    models cannot train (:func:`check_stackable`).
    """
    _CONVERTERS[template_type] = converter


def check_stackable(model: Module) -> None:
    """Raise ``ValueError`` naming the module types in ``model`` that have
    no registered ensemble converter; return quietly if there are none."""
    unsupported = sorted(
        {
            type(module).__name__
            for module in model.modules()
            if type(module) not in _CONVERTERS
        }
    )
    if unsupported:
        raise ValueError(
            f"model contains modules without ensemble converters: {unsupported}"
        )


def _convert(module: Module, ensemble_size: int) -> Module:
    try:
        converter = _CONVERTERS[type(module)]
    except KeyError:
        raise ValueError(
            f"no ensemble converter registered for {type(module).__name__}"
        ) from None
    return converter(module, ensemble_size)


def ensemble_of(model: Module, ensemble_size: int) -> Module:
    """Build a ``(K, ...)``-stacked clone of ``model``.

    Every slice of the result starts as a copy of ``model``'s weights; use
    :func:`load_state_stack` to give each slice its own state.
    """
    check_stackable(model)
    return _convert(model, ensemble_size)


for _layer in (Conv2d, Linear, Flatten):
    register_ensemble_converter(_layer, _stack_layer)
# ReLU is elementwise and shape-agnostic: a fresh instance works on
# (K, batch, ...) stacks unchanged.
register_ensemble_converter(ReLU, lambda template, ensemble_size: ReLU())
register_ensemble_converter(
    Sequential,
    lambda t, k: Sequential(*[_convert(layer, k) for layer in t.layers]),
)
register_ensemble_converter(
    FeatureClassifierModel,
    lambda t, k: FeatureClassifierModel(
        _convert(t.features, k), _convert(t.classifier, k), t.embed_dim
    ),
)


# --------------------------------------------------------------------------
# State helpers: per-client dicts <-> (K, ...) stacks
# --------------------------------------------------------------------------


def load_state_stack(emodel: Module, states: list[dict[str, np.ndarray]]) -> None:
    """Load K per-client state dicts into the slices of an ensemble model."""
    stacked = {}
    for name in states[0]:
        stacked[name] = np.stack(
            [np.asarray(state[name], dtype=np.float64) for state in states]
        )
    emodel.load_state_dict(stacked)


def _use_leading(emodel: Module, ensemble_size: int) -> None:
    """Make ``emodel`` an ``ensemble_size``-stack over the leading slices of
    the storage it was built with.

    Each module's parameter data and gradients at build size are remembered
    on first use; every later call points them at ``[:size]`` views of that
    storage.  A leading slice of a C-contiguous array is
    C-contiguous at the same address, so every GEMM operand keeps the
    layout a freshly built ``size``-stack would give it.
    """
    for module in emodel.modules():
        if isinstance(module, StackedModule):
            module.ensemble_size = ensemble_size
        storage = vars(module).get("_storage")
        if storage is None:
            storage = module._storage = {
                attr: (value.data, value.grad)
                for attr, value in vars(module).items()
                if isinstance(value, Parameter)
            }
        for attr, (data, grad) in storage.items():
            if data.shape[0] < ensemble_size:
                raise ValueError(
                    f"a {data.shape[0]}-stack clone cannot train "
                    f"{ensemble_size} slices"
                )
            param = getattr(module, attr)
            param.data, param.grad = data[:ensemble_size], grad[:ensemble_size]


def load_state_broadcast(
    emodel: Module, state: dict[str, np.ndarray], ensemble_size: int
) -> None:
    """Load one (global) state dict into every slice of an
    ``ensemble_size``-stack of ``emodel``.

    ``emodel`` may have been built for more slices (the trainer keeps one
    clone, sized to the largest stack it needs): a smaller stack then
    trains on leading-slice views of the clone's parameters and gradients
    (:func:`_use_leading`).  The broadcast is copied into those views in
    place, never into fresh arrays.
    """
    _use_leading(emodel, ensemble_size)
    for name, param in emodel.state_targets(state).items():
        value, target = state[name], param.data
        if np.shape(value) != target.shape[1:]:
            raise ValueError(
                f"shape mismatch for {name}: "
                f"expected {target.shape[1:]}, got {np.shape(value)}"
            )
        target[...] = value


def ensemble_state_dicts(emodel: Module) -> list[dict[str, np.ndarray]]:
    """Split an ensemble model back into K per-client state dicts.

    Key order matches the template's ``state_dict`` because ensemble layers
    mirror the template attribute names.  Each stack is copied once and the
    K states hold its row views, which are C-contiguous snapshots that alias
    neither the live stack nor each other.
    """
    ensemble_size = next(
        (
            module.ensemble_size
            for module in emodel.modules()
            if isinstance(module, StackedModule) and module.ensemble_size
        ),
        None,
    )
    if ensemble_size is None:
        raise ValueError("not an ensemble model: no ensemble_size found")
    states: list[dict[str, np.ndarray]] = [{} for _ in range(ensemble_size)]
    for name, param in emodel.named_parameters():
        rows = param.data.copy()
        for index in range(ensemble_size):
            states[index][name] = rows[index]
    return states
