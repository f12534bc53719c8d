"""``repro.nn`` — a from-scratch numpy neural-network framework.

This package substitutes for PyTorch in the sandbox (see README.md,
"Architecture map"): explicit per-layer forward/backward, seeded
initialization, PyTorch-style state dicts for federated weight exchange, and
the loss functions PARDON's objective is built from.
"""

from repro.nn.module import Module, Parameter, Sequential, architecture_signature
from repro.nn.layers import Flatten, Linear, ReLU, Tanh
from repro.nn.conv import Conv2d
from repro.nn.losses import cross_entropy, mse
from repro.nn.optim import SGD, Adam
from repro.nn.models import (
    FeatureClassifierModel,
    build_cnn_model,
    build_mlp_model,
)
from repro.nn.serialize import (
    StateDict,
    average_states,
    flatten_state,
    state_allclose,
    state_sub,
    unflatten_state,
)
from repro.nn.ensemble import (
    check_stackable,
    ensemble_of,
    ensemble_state_dicts,
    load_state_broadcast,
    load_state_stack,
    register_ensemble_converter,
)
from repro.nn import functional, init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "architecture_signature",
    "Linear",
    "ReLU",
    "Tanh",
    "Flatten",
    "Conv2d",
    "cross_entropy",
    "mse",
    "SGD",
    "Adam",
    "FeatureClassifierModel",
    "build_cnn_model",
    "build_mlp_model",
    "StateDict",
    "average_states",
    "state_sub",
    "flatten_state",
    "unflatten_state",
    "state_allclose",
    "check_stackable",
    "ensemble_of",
    "ensemble_state_dicts",
    "load_state_broadcast",
    "load_state_stack",
    "register_ensemble_converter",
    "functional",
    "init",
]
