"""A from-scratch numpy deep-learning framework.

Replaces the paper's PyTorch/TensorFlow stack.  Layers implement explicit
forward/backward passes (no autograd); the :class:`~repro.nn.model.Model`
container wires them into a trainable network with mini-batch SGD/Adam,
losses, callbacks and weight serialization.  The framework is exactly as
big as Vehicle-Key needs: dense layers, (Bi)LSTM with full backpropagation
through time, the paper's joint MSE+BCE loss, and nothing else.
"""

from repro.nn.activations import Activation, Identity, ReLU, Sigmoid, Tanh, get_activation
from repro.nn.initializers import GlorotUniform, Orthogonal, Zeros
from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.lstm import LSTM
from repro.nn.layers.gru import GRU
from repro.nn.layers.bilstm import BiLSTM
from repro.nn.losses import (
    Loss,
    MeanSquaredError,
    BinaryCrossEntropy,
    JointPredictionQuantizationLoss,
)
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.model import Model
from repro.nn.callbacks import EarlyStopping, History
from repro.nn.serialization import save_weights, load_weights

__all__ = [
    "Activation",
    "Identity",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "get_activation",
    "GlorotUniform",
    "Orthogonal",
    "Zeros",
    "Layer",
    "Dense",
    "LSTM",
    "GRU",
    "BiLSTM",
    "Loss",
    "MeanSquaredError",
    "BinaryCrossEntropy",
    "JointPredictionQuantizationLoss",
    "SGD",
    "Adam",
    "Optimizer",
    "Model",
    "EarlyStopping",
    "History",
    "save_weights",
    "load_weights",
]
