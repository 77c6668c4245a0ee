"""Frozen reference implementations that optimized code is pinned against.

Each oracle is a verbatim copy of an implementation as it stood before
an optimization, with its private helpers inlined so it does not
depend on the code it checks.  Tests compare the optimized path with
exact equality; benchmarks time it as their declared ``before``.

The one exception is :mod:`tests.oracles.nn_kernels`, which depends on
the code it checks: its ``ReferenceBiLSTM`` subclasses the live
:class:`repro.nn.layers.bilstm.BiLSTM` and only swaps in the frozen LSTM
as ``lstm_cls``, so a change to the live bidirectional wrapper reaches
the oracle too.  The recurrent kernels themselves are frozen copies.
"""
