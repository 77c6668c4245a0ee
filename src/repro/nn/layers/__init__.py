"""Neural-network layers with explicit forward/backward passes."""

from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.lstm import LSTM
from repro.nn.layers.gru import GRU
from repro.nn.layers.bilstm import BiLSTM

__all__ = ["Layer", "Dense", "LSTM", "GRU", "BiLSTM"]
