"""Kernel microbenchmarks: the perf trajectory behind the fused kernels.

Times the vectorized recurrent kernels (``after``) against the frozen
pre-refactor implementations in :mod:`tests.oracles.nn_kernels`
(``before``) at layer level (forward train/infer, backward), training
level (full ``fit()`` epochs), and protocol level (an end-to-end key
establishment session), and persists the numbers to
``BENCH_kernels.json`` at the repo root.

The committed copy of that file is the perf baseline: CI regenerates it
and ``scripts/check_bench_regression.py`` fails the build if any
measured speedup falls more than 25% below the committed one.  Speedup
*ratios* are compared rather than absolute seconds, so the gate holds
across machines of different absolute speed.

Timing discipline: every before/after pair is measured interleaved with
min-of-N (the machine's timing noise far exceeds the quantity being
estimated; the minimum is the least-contended sample of the same code).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.channel.scenario import ScenarioName, scenario_config
from repro.core.pipeline import PipelineConfig, VehicleKeyPipeline
from repro.nn.layers.bilstm import BiLSTM
from repro.nn.layers.dense import Dense
from repro.nn.layers.lstm import LSTM
from repro.nn.model import Model
from repro.probing.features import FeatureConfig
from tests.oracles.nn_kernels import ReferenceBiLSTM, ReferenceLSTM
from tests.oracles.probing_loop import reference_run_loop

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Collected by the tests below, written once at module teardown.
_ENTRIES = {}


def _min_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _compare(before_fn, after_fn, reps=5, warmup=1):
    """Interleaved min-of-N for a before/after pair."""
    for _ in range(warmup):
        before_fn()
        after_fn()
    before = after = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        before_fn()
        before = min(before, time.perf_counter() - start)
        start = time.perf_counter()
        after_fn()
        after = min(after, time.perf_counter() - start)
    return before, after


def _record(name, before_s, after_s):
    _ENTRIES[name] = {
        "before_s": round(before_s, 6) if before_s is not None else None,
        "after_s": round(after_s, 6),
        "speedup": round(before_s / after_s, 3) if before_s is not None else None,
    }
    return _ENTRIES[name]


def _paired_layers(cls_new, cls_ref, units, seed=0, **kwargs):
    """New and reference layers with identical weights."""
    new = cls_new(units, seed=seed, **kwargs)
    ref = cls_ref(units, seed=seed, **kwargs)
    return new, ref


def _built(layer, x):
    layer.forward(x[:2], training=True)
    return layer


def _sync(new, ref, x):
    _built(new, x)
    _built(ref, x)
    ref.set_weights(new.get_weights())


@pytest.fixture(scope="module", autouse=True)
def write_results():
    """Persist everything the module measured to ``BENCH_kernels.json``."""
    yield
    if not _ENTRIES:
        return
    payload = {
        "benchmark": "recurrent-kernels",
        "units": "seconds, min over interleaved repetitions",
        "before": "frozen pre-refactor kernels (tests.oracles.nn_kernels)",
        "after": "fused vectorized kernels (repro.nn.layers.lstm/bilstm)",
        "numpy": np.__version__,
        "entries": dict(sorted(_ENTRIES.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[benchmarks] wrote {RESULTS_PATH} with {len(_ENTRIES)} entries")


class TestLayerKernels:
    """Layer-level forward/backward timings."""

    BATCH, STEPS, FEATURES, HIDDEN = 64, 32, 12, 64

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(self.BATCH, self.STEPS, self.FEATURES))
        grad = rng.normal(size=(self.BATCH, self.STEPS, self.HIDDEN))
        return x, grad

    def test_lstm_forward_train(self, data):
        x, _ = data
        new, ref = _paired_layers(LSTM, ReferenceLSTM, self.HIDDEN)
        _sync(new, ref, x)
        before, after = _compare(
            lambda: ref.forward(x, training=True),
            lambda: new.forward(x, training=True),
            reps=9,
        )
        entry = _record("lstm_forward_train@b64_t32_f12_h64", before, after)
        assert entry["speedup"] > 1.0

    def test_lstm_forward_infer(self, data):
        x, _ = data
        new, ref = _paired_layers(LSTM, ReferenceLSTM, self.HIDDEN)
        _sync(new, ref, x)
        # The reference has no inference fast path; training forward is
        # exactly what it runs at predict() time.
        before, after = _compare(
            lambda: ref.forward(x, training=False),
            lambda: new.forward(x, training=False),
            reps=9,
        )
        entry = _record("lstm_forward_infer@b64_t32_f12_h64", before, after)
        assert entry["speedup"] > 1.0

    def test_lstm_backward(self, data):
        x, grad = data
        new, ref = _paired_layers(LSTM, ReferenceLSTM, self.HIDDEN)
        _sync(new, ref, x)
        # Neither backward mutates its forward cache, so one training
        # forward supports repeated backward timings.
        ref.forward(x, training=True)
        new.forward(x, training=True)
        before, after = _compare(
            lambda: ref.backward(grad),
            lambda: new.backward(grad),
            reps=9,
        )
        # Backward is near parity: the reference backward was already
        # transcendental-free and GEMM-bound, so fusing buys little here
        # (the epoch-level win comes from forward + the fused epilogue).
        entry = _record("lstm_backward@b64_t32_f12_h64", before, after)
        assert entry["speedup"] > 0.6

        # What training actually runs: the first layer skips the model-
        # input gradient (Model.backward(need_input_grad=False)); the
        # reference has no such path, so its full backward is the
        # honest "before".
        _, skip_after = _compare(
            lambda: ref.backward(grad),
            lambda: new.backward(grad, compute_input_grad=False),
            reps=9,
        )
        entry = _record(
            "lstm_backward_train_path@b64_t32_f12_h64", before, skip_after
        )
        assert entry["speedup"] > 0.8

    def test_bilstm_forward_train(self, data):
        x, _ = data
        new, ref = _paired_layers(BiLSTM, ReferenceBiLSTM, self.HIDDEN)
        _sync(new, ref, x)
        before, after = _compare(
            lambda: ref.forward(x, training=True),
            lambda: new.forward(x, training=True),
            reps=9,
        )
        entry = _record("bilstm_forward_train@b64_t32_f12_h64", before, after)
        assert entry["speedup"] > 1.0


class TestTrainingAndInference:
    """Full ``fit()`` epochs and batched ``predict()``."""

    @staticmethod
    def _models(hidden, features, seed=0):
        new = Model([BiLSTM(hidden, seed=seed), Dense(1, seed=1)])
        ref = Model([ReferenceBiLSTM(hidden, seed=seed), Dense(1, seed=1)])
        return new, ref

    @staticmethod
    def _fit_pair(n, steps, batch_size, hidden, features, reps=6):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, steps, features))
        y = rng.normal(size=(n, steps, 1))
        new, ref = TestTrainingAndInference._models(hidden, features)
        new.forward(x[:2], training=True)
        ref.forward(x[:2], training=True)
        ref.set_weights(new.get_weights())
        before, after = _compare(
            lambda: ref.fit(x, y, epochs=1, batch_size=batch_size, shuffle_seed=0),
            lambda: new.fit(x, y, epochs=1, batch_size=batch_size, shuffle_seed=0),
            reps=reps,
        )
        return x, new, ref, before, after

    def test_fit_epoch_microbenchmark(self):
        # Long sequences, modest width: the shape where per-step dispatch
        # overhead -- what the fused kernels remove -- dominates the
        # irreducible GEMM + transcendental floor both implementations
        # share (see docs/PERFORMANCE.md).
        *_, before, after = self._fit_pair(
            n=256, steps=128, batch_size=32, hidden=32, features=8
        )
        entry = _record("fit_epoch@bilstm_n256_t128_b32_h32", before, after)
        assert entry["speedup"] > 1.0

    def test_fit_epoch_pipeline_shape(self):
        # The shape the Vehicle-Key predictor actually trains at (quick
        # scale).  The shared GEMM/transcendental floor caps the
        # achievable ratio here (~1.9x); recorded honestly.
        x, new, ref, before, after = self._fit_pair(
            n=512, steps=32, batch_size=64, hidden=64, features=12
        )
        entry = _record("fit_epoch@bilstm_n512_t32_b64_h64_pipeline", before, after)
        assert entry["speedup"] > 1.0

        # Batched predict on the same pipeline-shaped models: the
        # inference fast path (no backward cache, gate-major buffers).
        p_before, p_after = _compare(
            lambda: ref.predict(x, batch_size=256),
            lambda: new.predict(x, batch_size=256),
            reps=6,
        )
        p_entry = _record("predict@bilstm_n512_t32_b64_h64", p_before, p_after)
        assert p_entry["speedup"] > 1.0


class TestEndToEnd:
    """Protocol-level timing: a full key-establishment session."""

    def test_establish_session(self):
        config = PipelineConfig(
            scenario=scenario_config(ScenarioName.V2I_URBAN),
            feature_config=FeatureConfig(window_fraction=0.10, values_per_packet=2),
            seq_len=16,
            hidden_units=16,
            key_bits=32,
            code_dim=24,
            decoder_units=64,
            rounds_per_episode=48,
            session_rounds=256,
            final_key_bits=64,
            alice_confidence_margin=0.12,
            bob_guard_fraction=0.30,
        )
        pipeline = VehicleKeyPipeline(config, seed=11)
        pipeline.train(n_episodes=60, epochs=20, reconciler_epochs=8)
        pipeline.establish_key(episode="bench-warmup", n_rounds=128)

        def before():
            protocol, seeds, _, _ = pipeline.build_protocol("bench")
            trace = reference_run_loop(protocol, 256, seeds)
            pipeline.build_outcome(pipeline.build_session().run(trace), [trace])

        # "before" probes with the frozen per-round loop
        # (tests/oracles/probing_loop.py) and grades the session on its
        # trace as establish_key does; "after" is establish_key on the
        # default fault-free kernel.  Both produce bit-identical keys, so this times exactly
        # the probing hot path inside a real establishment -- and gives
        # the entry the speedup column the regression gate needs (it
        # tracked absolute cost only, ungated, before the fast path
        # existed).
        before, after = _compare(
            before,
            lambda: pipeline.establish_key(episode="bench", n_rounds=256),
            reps=3,
            warmup=0,
        )
        entry = _record("establish_session@tiny_r256", before, after)
        assert entry["speedup"] > 1.0
