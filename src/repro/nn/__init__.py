"""A small, from-scratch numpy deep-learning framework.

This package stands in for TensorFlow in the original work.  It provides
exactly the operator set the paper's cGAN needs — strided convolutions,
transposed convolutions, batch normalization, LeakyReLU/ReLU/tanh,
dropout, Adam, and the BCE/L1 losses — implemented with explicit
forward/backward passes over im2col-packed arrays in a workspace arena,
a fused ``forward_eval`` inference pass, and derivatives verified against
finite differences in the test suite.
"""

from repro.nn.functional import (
    col2im,
    col2im_bt,
    conv2d_output_size,
    conv_transpose2d_output_size,
    im2col,
    im2col_view,
    leaky_relu,
    leaky_relu_,
    pad2d,
    sigmoid,
)
from repro.nn.init import normal_init
from repro.nn.layers import (
    BatchNorm2d,
    Concat,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    LeakyReLU,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import BCEWithLogitsLoss, L1Loss
from repro.nn.optim import Adam
from repro.nn.serialize import (
    load_state_dict,
    save_state_dict,
    state_dict_mismatch,
    validate_state_dict,
)
from repro.nn.workspace import Workspace

__all__ = [
    "Adam",
    "BCEWithLogitsLoss",
    "BatchNorm2d",
    "Concat",
    "Conv2d",
    "ConvTranspose2d",
    "Dropout",
    "L1Loss",
    "LeakyReLU",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "Tanh",
    "Workspace",
    "col2im",
    "col2im_bt",
    "conv2d_output_size",
    "conv_transpose2d_output_size",
    "im2col",
    "im2col_view",
    "leaky_relu",
    "leaky_relu_",
    "load_state_dict",
    "normal_init",
    "pad2d",
    "save_state_dict",
    "sigmoid",
    "state_dict_mismatch",
    "validate_state_dict",
]
