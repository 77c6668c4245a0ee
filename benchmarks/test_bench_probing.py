"""Probing/throughput benchmarks: the perf trajectory of the fast path.

Times the vectorized fault-free probing path (``after``) against the
frozen per-round loop (``before``, ``tests/oracles/probing_loop.py``)
at paper scale (SF12, 256 rounds), the served probing kernel measuring
only Alice's arRSSI window against the same kernel measuring every
read, the batched multi-session engine
against a sequential ``establish_key`` loop, the whole-matrix
consensus extraction against the frozen per-window one
(``tests/oracles/extraction.py``), and the per-piece relative-motion
grid against the frozen per-point one (``tests/oracles/motion_grid.py``),
persisting the numbers to ``BENCH_probing.json`` at the repo root.

Like ``BENCH_kernels.json``, the committed copy is the perf baseline: CI
regenerates it and ``scripts/check_bench_regression.py`` fails the build
if any measured speedup falls more than 25% below the committed one.
Both execution paths produce bit-identical traces, keys, extraction
output and motion grids (``tests/test_probing_vectorized.py`` /
``tests/test_batched_sessions.py`` / ``tests/test_extraction_oracle.py`` /
``tests/test_motion_grid_oracle.py``), so these entries time pure
implementation differences.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.channel.mobility import RelativeMotion
from repro.channel.scenario import ScenarioName, scenario_config
from repro.core.batch import BatchedSessionRunner
from repro.faults.chaos import build_chaos_pipeline
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import DRAGINO_LORA_SHIELD
from repro.probing.dataset import build_dataset
from repro.probing.features import arrssi_sequences
from repro.probing.protocol import ProbingProtocol, run_fastpath_group
from repro.utils.rng import SeedSequenceFactory
from tests.oracles.extraction import assert_details_equal, reference_extract_detail
from tests.oracles.motion_grid import ReferenceMotionGrid
from tests.oracles.probing_loop import reference_run_loop

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_probing.json"

#: Collected by the tests below, written once at module teardown.
_ENTRIES = {}


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


def _record(name, before_s, after_s, **extra):
    _ENTRIES[name] = {
        "before_s": round(before_s, 6) if before_s is not None else None,
        "after_s": round(after_s, 6),
        "speedup": round(before_s / after_s, 3) if before_s is not None else None,
        **extra,
    }
    return _ENTRIES[name]


@pytest.fixture(scope="module", autouse=True)
def write_results():
    """Persist everything the module measured to ``BENCH_probing.json``."""
    yield
    if not _ENTRIES:
        return
    payload = {
        "benchmark": "probing-fast-path",
        "units": "seconds, min over interleaved repetitions",
        "before": (
            "frozen per-round probing loop / sequential establish_key / "
            "frozen per-window extraction / frozen per-point motion grid / "
            "served kernel measuring every read"
        ),
        "after": (
            "vectorized fault-free path / BatchedSessionRunner / "
            "whole-matrix extract_detail / per-piece motion grid / "
            "served kernel measuring Alice's arRSSI window"
        ),
        "numpy": np.__version__,
        "entries": dict(sorted(_ENTRIES.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[benchmarks] wrote {RESULTS_PATH} with {len(_ENTRIES)} entries")


def _fresh_probing_setup(seed=5, scenario=ScenarioName.V2V_URBAN):
    """A fresh protocol + seed factory for one timed trace generation.

    Built per timed call so each run grows its own lazy channel caches --
    reusing a channel would hand later repetitions a warm cache and
    flatter the measurement.
    """
    seeds = SeedSequenceFactory(seed)
    config = scenario_config(scenario)
    alice, bob = config.build_trajectories(seeds)
    motion = RelativeMotion(alice, bob)
    channel = config.build_channel(seeds, motion)
    protocol = ProbingProtocol(
        channel=channel,
        phy=LoRaPHYConfig(),  # the paper's SF12 configuration
        alice_device=DRAGINO_LORA_SHIELD,
        bob_device=DRAGINO_LORA_SHIELD,
    )
    return protocol, seeds


class TestTraceGeneration:
    """Fault-free trace generation at paper scale (SF12, 256 rounds)."""

    ROUNDS = 256

    def test_vectorized_vs_loop(self):
        def before():
            protocol, seeds = _fresh_probing_setup()
            reference_run_loop(protocol, self.ROUNDS, seeds)

        def after():
            protocol, seeds = _fresh_probing_setup()
            protocol.run(self.ROUNDS, seeds)

        before_s, after_s = _compare(before, after, reps=3, warmup=1)
        entry = _record("trace_generation@sf12_r256", before_s, after_s)
        # Acceptance criterion for the fast path at paper scale.  The
        # loop pays per-round Python dispatch into the channel stack and
        # samplers ~1300 times; the grid path pays it twice per
        # direction and lands 2.5-3.5x depending on the runner (the
        # committed baseline records the honest number).  The in-test
        # assertion is a coarse sanity floor ("vectorization must
        # clearly win"); the fine-grained trajectory is enforced by
        # scripts/check_bench_regression.py against the committed
        # baseline, so one loaded machine doesn't fail two different
        # thresholds in two different places.
        assert entry["speedup"] >= 2.0


class TestMotionGrid:
    """The relative-motion grid of one paper-scale episode (SF12, 256 rounds)."""

    ROUNDS = 256

    def test_per_piece_vs_per_point(self):
        scenario = scenario_config(ScenarioName.V2I_URBAN)
        protocol, seeds = _fresh_probing_setup(scenario=ScenarioName.V2I_URBAN)
        trace = protocol.run(self.ROUNDS, seeds)
        # The episode's last channel instant: the end of the last response.
        horizon_s = float(trace.round_start_s[-1]) + 2.0 * protocol.phy.airtime_s
        grids = {}

        def fresh_trajectories():
            return scenario.build_trajectories(SeedSequenceFactory(5))

        def before():
            oracle = ReferenceMotionGrid(*fresh_trajectories())
            oracle.ensure_grid(horizon_s)
            grids["before"] = oracle.grid

        def after():
            motion = RelativeMotion(*fresh_trajectories())
            motion.relative_displacement_m(horizon_s)
            grids["after"] = motion._grid_cumulative

        before_s, after_s = _compare(before, after, reps=15, warmup=2)
        assert np.array_equal(grids["before"], grids["after"])
        entry = _record(
            "motion_grid@v2i_urban_r256",
            before_s,
            after_s,
            grid_points=len(grids["after"]),
        )
        # One integrand evaluation per constant-velocity piece instead of
        # per 10 ms grid point; both sides build fresh trajectories.  The
        # committed baseline gates the fine-grained ratio in CI.
        assert entry["speedup"] >= 2.0


@pytest.fixture(scope="module")
def trained_pipeline():
    """The chaos-sized pipeline the served workloads run (``tiny_r256``).

    Trained enough that 256-round sessions keep samples and reconcile
    blocks, so the session-level entries time every phase of a batch.
    """
    return build_chaos_pipeline()


class TestServedProbe:
    """The served kernel: Alice's arRSSI window vs all of her reads."""

    SESSIONS = 2
    ROUNDS = 256

    def test_windowed_vs_full(self, trained_pipeline):
        config = trained_pipeline.config
        alice_reads = config.feature_config.window_length(config.phy.total_symbols)
        labels = [f"served-{i}" for i in range(self.SESSIONS)]
        traces = {}

        def group(side, window):
            # Fresh channels per call, so neither side inherits the
            # other's lazily grown channel caches.
            protocols, factories = [], []
            for label in labels:
                protocol, seeds, _, _ = trained_pipeline.build_protocol(label)
                protocols.append(protocol)
                factories.append(seeds)
            traces[side] = run_fastpath_group(
                protocols, self.ROUNDS, factories, alice_reads=window
            )

        before_s, after_s = _compare(
            lambda: group("before", None),
            lambda: group("after", alice_reads),
            reps=7,
            warmup=1,
        )
        for full, windowed in zip(traces["before"], traces["after"]):
            assert windowed.alice_rssi.shape[1] == alice_reads
            for expected, actual in zip(
                arrssi_sequences(full, config.feature_config),
                arrssi_sequences(windowed, config.feature_config),
            ):
                np.testing.assert_array_equal(expected, actual)
        entry = _record(
            "served_probe@tiny_x2_r256",
            before_s,
            after_s,
            sessions=self.SESSIONS,
            alice_reads=alice_reads,
            samples_per_packet=config.phy.total_symbols,
        )
        # The window drops 48 of Alice's 53 reads per round, 44% of the
        # channel instants; the committed baseline gates the fine-grained
        # ratio in CI.
        assert entry["speedup"] >= 1.2


class TestSessionThroughput:
    """Batched multi-session engine vs a sequential establish_key loop."""

    SESSIONS = 6
    ROUNDS = 256

    def test_batched_vs_sequential(self, trained_pipeline):
        runner = BatchedSessionRunner(
            trained_pipeline, n_rounds=self.ROUNDS, episode_prefix="tput"
        )

        def before():
            # The declared reference: a sequential establish_key loop on
            # the frozen per-round probing path, one session at a time --
            # what the paper's single-device pipeline costs.
            for label in runner.session_labels(self.SESSIONS):
                protocol, seeds, _, _ = trained_pipeline.build_protocol(label)
                trace = reference_run_loop(protocol, self.ROUNDS, seeds)
                trained_pipeline.build_outcome(
                    trained_pipeline.build_session().run(trace), [trace]
                )

        last_report = {}

        def after():
            last_report["report"] = runner.run(self.SESSIONS)

        before_s, after_s = _compare(before, after, reps=3, warmup=1)
        report = last_report["report"]
        entry = _record(
            "session_throughput@tiny_x6_r256",
            before_s,
            after_s,
            sessions=self.SESSIONS,
            sessions_per_sec=round(self.SESSIONS / after_s, 3),
            # Where a batch tick's time goes (seconds, from the last run):
            # probing, window building, the single stacked predict,
            # per-session reconciliation + amplification, and whatever
            # orchestration overhead remains.
            phases={name: round(value, 6) for name, value in report.phase_s.items()},
        )
        assert report.n_sessions == self.SESSIONS
        assert entry["sessions_per_sec"] > 0.0
        # Sessions that reconcile nothing would leave the reconcile and
        # amplify phases untimed.
        assert all(outcome.session.n_blocks >= 1 for outcome in report.outcomes)
        # The phase breakdown must cover the batch fast path's stages and
        # account for (nearly) all of the tick's wall time.
        assert set(entry["phases"]) == {
            "probe", "window", "predict", "reconcile", "amplify", "orchestrate",
        }
        assert all(value >= 0.0 for value in entry["phases"].values())
        # Cross-session stacking + the mixed-precision trig kernel must
        # clearly beat the sequential loop; the committed baseline gates
        # the fine-grained number (and each phase's share) in CI.  The
        # batch's probing must stay a small fraction of the frozen
        # sequential reference.  Its share of the batch says nothing:
        # it grows whenever the other phases get cheaper.
        assert entry["speedup"] >= 3.0
        assert report.phase_s["probe"] < 0.2 * before_s


class TestExtraction:
    """Whole-matrix consensus extraction vs the frozen per-window loop."""

    SESSIONS = 6
    ROUNDS = 256

    def test_matrix_vs_per_window(self, trained_pipeline):
        session = trained_pipeline.build_session()
        datasets, probabilities = [], []
        for index in range(self.SESSIONS):
            trace = trained_pipeline.collect_trace(
                f"extract-{index}", n_rounds=self.ROUNDS
            )
            bob_seq, alice_seq = arrssi_sequences(
                trace, trained_pipeline.config.feature_config
            )
            dataset = build_dataset(
                alice_seq, bob_seq, seq_len=trained_pipeline.model.seq_len
            )
            datasets.append(dataset)
            # Precomputed as the batch engine does, so only extraction
            # is timed.
            probabilities.append(
                trained_pipeline.model.predict_bit_probabilities(dataset.alice)
            )
        pairs = list(zip(datasets, probabilities))

        def before():
            return [
                reference_extract_detail(session, dataset, probs)
                for dataset, probs in pairs
            ]

        def after():
            return [
                session.extract_detail(dataset, alice_probabilities=probs)
                for dataset, probs in pairs
            ]

        for expected, actual in zip(before(), after()):
            assert_details_equal(expected, actual)
        before_s, after_s = _compare(before, after, reps=7, warmup=1)
        entry = _record(
            "extract@tiny_r256",
            before_s,
            after_s,
            sessions=self.SESSIONS,
            windows=sum(len(dataset) for dataset in datasets),
        )
        # One quantization pass per dataset instead of two per window;
        # the committed baseline gates the fine-grained ratio in CI.
        assert entry["speedup"] >= 3.0
