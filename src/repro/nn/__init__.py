"""Numpy neural-network micro-framework (PyTorch/DGL substitution).

Layers cache inputs on a LIFO stack, so a layer may be applied many times
(e.g. once per topological level in the GNN) before gradients flow back in
reverse order.  All backward passes are verified against numerical
gradients in the test suite (:mod:`repro.nn.gradcheck`, imported from
its own module).
"""

from repro.nn.module import (
    PRECISIONS,
    Module,
    Parameter,
    Sequential,
    inference_mode,
    is_inference,
    load_state_dict,
    state_dict,
)
from repro.nn.layers import Embedding, Flatten, Linear, ReLU, Tanh, mlp
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.losses import huber_loss, mse_loss
from repro.nn.optim import SGD, Adam
from repro.nn.init import kaiming_uniform, xavier_uniform
from repro.nn.workspace import (
    Workspace,
    current_workspace,
    workspace,
    ws_empty,
)

__all__ = [
    "PRECISIONS",
    "Module",
    "Parameter",
    "Sequential",
    "inference_mode",
    "is_inference",
    "load_state_dict",
    "state_dict",
    "Workspace",
    "current_workspace",
    "workspace",
    "ws_empty",
    "Embedding",
    "Flatten",
    "Linear",
    "ReLU",
    "Tanh",
    "mlp",
    "Conv2d",
    "MaxPool2d",
    "huber_loss",
    "mse_loss",
    "SGD",
    "Adam",
    "kaiming_uniform",
    "xavier_uniform",
]
