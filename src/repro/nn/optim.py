"""Optimizers for the numpy substrate."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["SGD", "Adam"]


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    This is the optimizer used by every federated client in the paper's
    experiments; weight decay here acts on parameters (standard L2), distinct
    from PARDON's representation-space regularizer (Eq. 8, the ``pair_l2``
    term).  :meth:`step` writes each parameter's scaled update over its
    spent gradient, so without weight decay a step allocates nothing, and
    ``grad`` holds that update until the next ``zero_grad``.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for param, velocity in zip(self.parameters, self._velocity):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= np.multiply(self.lr, update, out=param.grad)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


class Adam:
    """Adam optimizer; used for the privacy-attack inverter training."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()
