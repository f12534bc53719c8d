"""Module system for the numpy neural-network substrate.

The paper's training stack is PyTorch; this sandbox has no PyTorch, so the
library ships its own small framework.  The design is deliberately explicit
(per the project style guide): each :class:`Module` implements ``forward``
(caching whatever the backward pass needs) and ``backward`` (consuming the
upstream gradient, accumulating parameter gradients, and returning the
gradient with respect to its input).  There is no tape/autograd — gradients
are hand-derived per layer and verified against finite differences in the
test suite.

Weights are exchanged between federated clients through ``state_dict`` /
``load_state_dict``, which mirror the PyTorch contract closely enough that the
federated-averaging code reads naturally.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "Parameter",
    "Module",
    "StackedModule",
    "Sequential",
    "Workspace",
    "architecture_signature",
]


class Parameter:
    """A trainable tensor: value plus accumulated gradient.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float64`` — the substrate favours
        numerical robustness over speed, and the models are small.
    name:
        Dotted name assigned when the parameter is registered on a module;
        used in state dicts and error messages.
    """

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __getstate__(self) -> dict:
        # A copy (a pickled model template, an evaluation snapshot) carries
        # the value only; its gradient starts at zero, as a fresh one does.
        return {"data": self.data, "name": self.name}

    def __setstate__(self, state: dict) -> None:
        self.data = state["data"]
        self.name = state["name"]
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Workspace:
    """The arrays one model's steps write: one buffer per layer and role.

    A model that runs step after step (the trainer's stacked clone, the
    evaluation stage's private copy) gets one through
    :meth:`Module.attach_workspace`, and its layers take from it what a
    step writes: padded inputs, im2col columns, activations, ReLU masks,
    input gradients, the products that accumulate into parameter gradients
    (``owner=None``: one buffer every layer takes in turn) and the
    gathered step input.  Each ``(owner, role)`` is one flat buffer, grown
    to the largest request and handed out as a leading view: a smaller
    step (a tail batch, a smaller stack) reads the first elements, which
    are C-contiguous at the same address, so every GEMM operand keeps the
    shape and layout a fresh array would have.  A warm step allocates
    nothing here.

    A layer's results on such a model are the workspace's until the layer
    runs again; :class:`repro.nn.models.FeatureClassifierModel` hands its
    caller copies of whatever it returns from it.  Nothing is shared
    between models, so two models train on two threads without a lock, and
    a copy or a pickle of a model carries no workspace
    (:meth:`Module.__getstate__`).  A model without one takes fresh arrays
    (:data:`NO_WORKSPACE`).
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[int, str], np.ndarray] = {}

    def _storage(self, key: tuple[int, str], size: int, dtype) -> np.ndarray:
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[key] = np.empty(size, dtype)
        return buffer

    def take(
        self,
        owner: object,
        role: str,
        shape: tuple[int, ...],
        dtype=np.float64,
        axes: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """``owner``'s ``role`` array of ``shape``, its contents undefined,
        laid out in memory in ``axes`` order (slowest first; C order when
        ``None``)."""
        if axes is not None:
            shape = tuple(shape[axis] for axis in axes)
        size = math.prod(shape)
        view = self._storage((id(owner), role), size, dtype)[:size].reshape(shape)
        return view if axes is None else view.transpose(np.argsort(axes))

    def holds(self, array: np.ndarray) -> bool:
        """Whether ``array`` is a view of one of this workspace's buffers."""
        base = array if array.base is None else array.base
        return any(base is buffer for buffer in self._buffers.values())


class _NoWorkspace(Workspace):
    def _storage(self, key: tuple[int, str], size: int, dtype) -> np.ndarray:
        return np.empty(size, dtype)


#: What a model without a workspace takes from: a fresh array every time.
NO_WORKSPACE: Workspace = _NoWorkspace()


class Module:
    """Base class for all layers and models.

    Subclasses register parameters as attributes of type :class:`Parameter`
    and child modules as attributes of type :class:`Module`; both are
    discovered by introspection, the same way PyTorch does it.
    """

    #: Where the layers take the arrays a step writes; a class attribute,
    #: so a template's instance state (and its pickle) does not carry it.
    _workspace: Workspace = NO_WORKSPACE

    def __init__(self) -> None:
        self.training = True

    @property
    def workspace(self) -> Workspace:
        """Where this module's step arrays come from (:data:`NO_WORKSPACE`
        until :meth:`attach_workspace`)."""
        return self._workspace

    def attach_workspace(self) -> Workspace:
        """Give this model and every module in it one new
        :class:`Workspace`, and return it."""
        workspace = Workspace()
        for module in self.modules():
            module._workspace = workspace
        return workspace

    def __getstate__(self) -> dict:
        # A copy (a pickled model template, an evaluation snapshot) carries
        # structure and weights: no workspace, and none of the arrays a
        # step left for its backward (underscore attributes are runtime
        # state, as architecture_signature treats them).
        return {
            attr: None if attr.startswith("_") else value
            for attr, value in vars(self).items()
            if attr != "_workspace"
        }

    # -- structure ---------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for attr, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}{attr}", value)
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(
                            prefix=f"{prefix}{attr}.{index}."
                        )

    def parameters(self) -> list[Parameter]:
        """Return all parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def zero_grad(self) -> None:
        """Reset every parameter gradient to zero."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar weights in the module."""
        return sum(param.size for param in self.parameters())

    # -- train/eval mode ---------------------------------------------------

    def train(self) -> "Module":
        """Put the module (and children) into training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put the module (and children) into evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    # -- state exchange (the FL wire format) --------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of all parameters, by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters from ``state`` (copies, never aliases)."""
        for name, param in self.state_targets(state).items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    def state_targets(self, state: dict[str, np.ndarray]) -> dict[str, Parameter]:
        """The parameters ``state`` loads into, by dotted name; a
        ``KeyError`` unless it names exactly those."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        return params

    # -- computation (implemented by subclasses) ----------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """``backward`` for a caller that does not consume the input gradient.

        Accumulates exactly the parameter gradients ``backward`` would.  Layers
        whose input gradient is costly (the convolutions) override this to
        skip computing it; a training step uses it for the first layer.
        """
        self.backward(grad_output)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class StackedModule(Module):
    """A layer whose arithmetic is written once, over a leading stack axis.

    Subclasses implement ``stack_forward`` / ``stack_backward`` (and, where
    skipping the input gradient saves work, ``stack_backward_params``) over
    ``(K, batch, ...)`` input, reaching each parameter with its stack axis
    through :meth:`stacked`.  A K-stack (built by
    :func:`repro.nn.ensemble.ensemble_of`) holds ``(K,) + shape`` parameters
    and sets ``ensemble_size``.  A template holds its parameters without
    the stack axis and takes ``(batch, ...)`` input, which runs the same
    code as a unit stack: K = 1 is one client.
    """

    #: K on a stack; a template leaves the class's ``None`` (no instance
    #: attribute, so its ``architecture_signature`` does not see it).
    ensemble_size: int | None = None

    @property
    def stack_size(self) -> int:
        """The stack axis' length: K, or 1 on a template."""
        return self.ensemble_size or 1

    def _refuse(self, x: np.ndarray, slice_shape: str) -> None:
        """Raise the ``ValueError`` for stacked input ``x`` that is not
        ``(K, slice_shape)``, naming the shape as the caller passed it."""
        lead, got = "", x.shape[1:]
        if self.ensemble_size is not None:
            lead, got = f"{self.ensemble_size}, ", x.shape
        raise ValueError(f"{type(self).__name__} expected ({lead}{slice_shape}), got {got}")

    def stacked(self, param: Parameter) -> tuple[np.ndarray, np.ndarray]:
        """``param``'s value and gradient with the stack axis (a unit-axis
        view on a template, so gradients accumulate in place)."""
        if self.ensemble_size is None:
            return param.data[None], param.grad[None]
        return param.data, param.grad

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.ensemble_size is None:
            return self.stack_forward(x[None])[0]
        return self.stack_forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.ensemble_size is None:
            return self.stack_backward(grad_output[None])[0]
        return self.stack_backward(grad_output)

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self.ensemble_size is None:
            grad_output = grad_output[None]
        self.stack_backward_params(grad_output)

    def stack_forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stack_backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stack_backward_params(self, grad_output: np.ndarray) -> None:
        self.stack_backward(grad_output)


class Sequential(Module):
    """Chain modules; forward left-to-right, backward right-to-left."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def backward_params(self, grad_output: np.ndarray) -> None:
        if not self.layers:
            return
        for layer in reversed(self.layers[1:]):
            grad_output = layer.backward(grad_output)
        self.layers[0].backward_params(grad_output)


def architecture_signature(model: Module) -> tuple:
    """What decides whether a clone or a remote template of ``model`` still
    fits another model: parameter names and shapes, plus each module's class
    and public scalar hyperparameters (stride, padding, ...), which change
    the forward pass without changing any tensor shape.  Weights,
    ``training`` and underscore-prefixed attributes are excluded: they vary
    at runtime and are not structure."""
    structure = tuple(
        (
            type(module).__name__,
            tuple(
                sorted(
                    (key, value)
                    for key, value in vars(module).items()
                    if key != "training"
                    and not key.startswith("_")
                    and isinstance(value, (bool, int, float, str, tuple))
                )
            ),
        )
        for module in model.modules()
    )
    return structure, tuple(
        (name, param.shape) for name, param in model.named_parameters()
    )
