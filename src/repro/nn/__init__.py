"""``repro.nn`` — a from-scratch numpy neural-network framework.

This package substitutes for PyTorch in the sandbox (see README.md,
"Architecture map"): explicit per-layer forward/backward, seeded
initialization, PyTorch-style state dicts for federated weight exchange, and
the loss functions PARDON's objective is built from.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    Dropout,
    Flatten,
    LeakyReLU,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.conv import AvgPool2d, Conv2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.norm import BatchNorm2d, InstanceNorm2d, LayerNorm
from repro.nn.losses import (
    CrossEntropyLoss,
    EmbeddingL2Loss,
    MSELoss,
    TripletStyleLoss,
)
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
    state_add,
    state_allclose,
    state_sub,
    unflatten_state,
    zeros_like_state,
)
from repro.nn.ensemble import (
    ensemble_of,
    ensemble_state_dicts,
    ensemble_supports,
    load_state_broadcast,
    load_state_stack,
    register_ensemble_converter,
)
from repro.nn import functional, init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "InstanceNorm2d",
    "LayerNorm",
    "CrossEntropyLoss",
    "TripletStyleLoss",
    "EmbeddingL2Loss",
    "MSELoss",
    "SGD",
    "Adam",
    "FeatureClassifierModel",
    "build_cnn_model",
    "build_mlp_model",
    "StateDict",
    "average_states",
    "state_add",
    "state_sub",
    "zeros_like_state",
    "flatten_state",
    "unflatten_state",
    "state_allclose",
    "ensemble_of",
    "ensemble_state_dicts",
    "ensemble_supports",
    "load_state_broadcast",
    "load_state_stack",
    "register_ensemble_converter",
    "functional",
    "init",
]
