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

from typing import Callable, Iterator

import numpy as np

__all__ = ["Parameter", "Module", "Sequential"]


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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses register parameters as attributes of type :class:`Parameter`
    and child modules as attributes of type :class:`Module`; both are
    discovered by introspection, the same way PyTorch does it.
    """

    def __init__(self) -> None:
        self.training = True

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
        """Return a copy of all parameters plus registered buffers.

        Buffers (e.g. batch-norm running statistics) are exposed by modules
        through a ``_buffers`` dict of name -> ndarray.
        """
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = buffer.copy()
        return state

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs, depth first."""
        buffers = getattr(self, "_buffers", None)
        if buffers:
            for attr, value in buffers.items():
                yield (f"{prefix}{attr}", value)
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_buffers(prefix=f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{prefix}{attr}.{index}.")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers from ``state`` (copies, never aliases)."""
        params = dict(self.named_parameters())
        expected = set(params)
        buffer_hosts = self._buffer_hosts()
        expected.update(buffer_hosts)
        missing = expected - set(state)
        unexpected = set(state) - expected
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()
        for name, (host, attr) in buffer_hosts.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != host._buffers[attr].shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: "
                    f"expected {host._buffers[attr].shape}, got {value.shape}"
                )
            host._buffers[attr] = value.copy()

    def _buffer_hosts(
        self, prefix: str = ""
    ) -> dict[str, tuple["Module", str]]:
        """Map dotted buffer names to their (owner module, attribute) pair."""
        hosts: dict[str, tuple[Module, str]] = {}
        buffers = getattr(self, "_buffers", None)
        if buffers:
            for attr in buffers:
                hosts[f"{prefix}{attr}"] = (self, attr)
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                hosts.update(value._buffer_hosts(prefix=f"{prefix}{attr}."))
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        hosts.update(
                            item._buffer_hosts(prefix=f"{prefix}{attr}.{index}.")
                        )
        return hosts

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
