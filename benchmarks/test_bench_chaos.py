"""Chaos-harness benchmarks: cost and verdict of the invariant sweep.

Trains the chaos-sized pipeline once, runs a fixed-seed randomized
fault/attack sweep, asserts that every safety invariant held (zero
violations -- the same verdict the ``repro chaos`` CI smoke job
enforces at larger scale), and persists the timings to
``BENCH_chaos.json`` at the repo root.

The training entry is an absolute-cost tracker (``speedup: null``):
``scripts/check_bench_regression.py`` reports it and fails CI if it
disappears, but does not gate on the absolute seconds, which do not
transfer across runners.  The other entries are same-run before/after
pairs of process CPU time whose speedup ratio the checker gates at its
tolerance.  In two of them ``before`` is the frozen per-attempt ARQ loop
(``tests/oracles/probing_loop.py``).  The sweep entry runs the whole
sweep with ``ProbingProtocol.run_loop`` swapped for that loop and
requires both reports to be equal; the ``arq_probing`` entry times the
two loops alone and records the live loop's decision-pass counts
(attempts, ``path_gain_db`` calls and the instants they evaluate), whose
instants per attempt the test bounds.  The ``library_measure`` entry
times ``run_loop``'s measurement pass at the key path's SF12 measuring
every read (``before``) against only Alice's arRSSI window (``after``),
as ``establish_key`` measures it.
"""

import dataclasses
import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.faults import chaos
from repro.lora.airtime import LoRaPHYConfig
from repro.probing import protocol as protocol_module
from repro.probing.features import FeatureConfig
from repro.probing.protocol import ProbingProtocol
from tests.oracles.probing_loop import reference_run_loop
from tests.test_probing_loop_oracle import (
    N_PLANS,
    assert_traces_equal,
    build_attacked,
    decision_pass_counts,
    plan_case,
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: Sessions in the timed sweep -- large enough to mix null, faulted,
#: attacked and duty-cycled combinations, small enough for ~1 min.
N_SESSIONS = 40
SWEEP_SEED = 0
#: Timed before/after pairs of the sweep, interleaved after one warm-up
#: pair.  At 2 pairs with no warm-up its ratio spread 2.20-3.33x over
#: five module runs, against a 25% gate.
SWEEP_REPS = 5

#: Rounds per ARQ probing session in the ``arq_probing`` and
#: ``library_measure`` entries.
ARQ_ROUNDS = 64
#: Timed pairs of the ``arq_probing`` entry.  At 3 its ratio spread
#: 4.49-5.69x over five module runs, against a 25% gate.
ARQ_REPS = 7
#: Bound on the live loop's decision instants per ARQ attempt.  Two per
#: attempt are read; re-evaluating the rest of the burst after every
#: retransmission read 25.8 on these plans, the look-ahead 7.5.
MAX_DECISION_INSTANTS_PER_ATTEMPT = 10.0
#: The key path's PHY (SF12, 53 reads per reception) and Alice's arRSSI
#: window at it, for the ``library_measure`` entry.
KEY_PHY = LoRaPHYConfig()
ALICE_READS = FeatureConfig().window_length(KEY_PHY.total_symbols)
#: Timed pairs of the ``library_measure`` entry.
MEASURE_REPS = 9
#: In-test floor of the ``library_measure`` ratio: the window drops 48
#: of 106 channel instants per round.  ``served_probe``, its fastpath
#: analogue, reads 1.54-1.65x.
MIN_MEASURE_SPEEDUP = 1.3

#: Collected by the tests below, written once at module teardown.
_ENTRIES = {}


def _compare(before_fn, after_fn, reps=3, warmup=1):
    """Interleaved min-of-N process CPU seconds for a before/after pair.

    CPU time leaves out the time other processes on the host hold the
    core, which wall-clock time charges to whichever side was running.
    """
    for _ in range(warmup):
        before_fn()
        after_fn()
    before = after = float("inf")
    for _ in range(reps):
        start = time.process_time()
        before_fn()
        before = min(before, time.process_time() - start)
        start = time.process_time()
        after_fn()
        after = min(after, time.process_time() - start)
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
    """Persist everything the module measured to ``BENCH_chaos.json``."""
    yield
    if not _ENTRIES:
        return
    payload = {
        "benchmark": "chaos-invariant-harness",
        "units": "seconds; before/after pairs min of process CPU time over "
        "interleaved repetitions, chaos_pipeline_train a single wall-clock "
        "run (absolute-cost tracker)",
        "before": "frozen per-attempt ARQ probing loop "
        "(tests/oracles/probing_loop.py): alone (arq_probing) or swapped "
        "into the run_chaos sweep; run_loop's measurement pass over every "
        "read (library_measure)",
        "after": "ProbingProtocol.run_loop: alone (arq_probing) or in the "
        "run_chaos sweep; its measurement pass over Alice's arRSSI window "
        "(library_measure); build_chaos_pipeline (chaos_pipeline_train)",
        "numpy": np.__version__,
        "entries": dict(sorted(_ENTRIES.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[benchmarks] wrote {RESULTS_PATH} with {len(_ENTRIES)} entries")


@pytest.fixture(scope="module")
def chaos_pipeline():
    """The chaos-sized trained pipeline, timing its own construction."""
    start = time.perf_counter()
    pipeline = chaos.build_chaos_pipeline()
    elapsed = time.perf_counter() - start
    _record("chaos_pipeline_train", None, elapsed)
    return pipeline


def test_chaos_sweep_holds_invariants(chaos_pipeline):
    """The benchmark sweep must come back clean, whichever ARQ loop runs.

    ``before`` runs the sweep with ``ProbingProtocol.run_loop`` swapped
    for the frozen per-attempt loop, so the pair times the sweep's end to
    end cost of the ARQ engine, and the two reports must be equal.
    """
    reports = {}

    def frozen_loop(
        protocol, n_rounds, seeds, eavesdroppers=(), start_time_s=0.0, alice_reads=None
    ):
        # The frozen loop has no window: it measures every read, which
        # leaves every key and verdict the same.
        return reference_run_loop(
            protocol, n_rounds, seeds, eavesdroppers, start_time_s
        )

    def sweep(engine):
        if engine == "before":
            with mock.patch.object(ProbingProtocol, "run_loop", frozen_loop):
                reports[engine] = chaos.run_chaos(
                    chaos_pipeline, N_SESSIONS, seed=SWEEP_SEED
                )
        else:
            reports[engine] = chaos.run_chaos(
                chaos_pipeline, N_SESSIONS, seed=SWEEP_SEED
            )

    before_s, after_s = _compare(
        lambda: sweep("before"), lambda: sweep("after"), reps=SWEEP_REPS
    )
    report = reports["after"]
    assert dataclasses.asdict(reports["before"]) == dataclasses.asdict(report)
    assert report.ok, [violation.detail for violation in report.violations]
    assert report.n_sessions == N_SESSIONS
    # The sweep must exercise the machinery it claims to: some sessions
    # attacked, some faulted, and a mix of successes and structured ends.
    assert report.attacked_sessions > 0
    assert report.faulted_sessions > 0
    assert report.successes > 0
    assert report.aborts > 0

    _record(
        f"chaos_sweep@{N_SESSIONS}_sessions",
        before_s,
        after_s,
        sessions_per_sec=round(N_SESSIONS / after_s, 3),
        seed=SWEEP_SEED,
        successes=report.successes,
        aborts=report.aborts,
        attacked_sessions=report.attacked_sessions,
        faulted_sessions=report.faulted_sessions,
        violations=len(report.violations),
    )


def test_arq_probing_vs_frozen_loop():
    """The ARQ loop against its frozen oracle on chaos-drawn plans.

    Each pass probes ``ARQ_ROUNDS`` rounds under every plan of
    ``tests/test_probing_loop_oracle.py`` (fault plan, attack plan and
    retry policy drawn as ``run_chaos`` draws them, four scenarios, zero
    to two eavesdroppers), building every protocol afresh so each pass
    grows its own lazy channel state.
    """
    traces = {}

    def sweep(engine):
        traces[engine] = []
        for index in range(N_PLANS):
            setup, *plans = plan_case(index)
            protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
            if engine == "before":
                trace = reference_run_loop(protocol, ARQ_ROUNDS, seeds, eavesdroppers)
            else:
                trace = protocol.run_loop(ARQ_ROUNDS, seeds, eavesdroppers)
            traces[engine].append(trace)

    before_s, after_s = _compare(
        lambda: sweep("before"), lambda: sweep("after"), reps=ARQ_REPS
    )
    for expected, actual in zip(traces["before"], traces["after"]):
        assert_traces_equal(expected, actual)
    # The decision pass's work, counted in one untimed pass of the live
    # loop as tests/test_probing_loop_oracle.py::TestTwoPasses counts it.
    attempts = calls = instants = 0
    for index, expected in enumerate(traces["after"]):
        setup, *plans = plan_case(index)
        protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
        trace, trace_calls, trace_instants = decision_pass_counts(
            protocol, ARQ_ROUNDS, seeds, eavesdroppers
        )
        assert_traces_equal(expected, trace)
        attempts += int((trace.retries + 1).sum())
        calls += trace_calls
        instants += trace_instants
    entry = _record(
        f"arq_probing@chaos_plans_x{N_PLANS}_r{ARQ_ROUNDS}",
        before_s,
        after_s,
        sessions=N_PLANS,
        rounds=ARQ_ROUNDS,
        retries=int(sum(trace.retries.sum() for trace in traces["after"])),
        attempts=attempts,
        decision_instants=instants,
        path_gain_calls=calls,
    )
    # Deciding per attempt and measuring once per round must clearly beat
    # four channel evaluations per attempt; the committed baseline gates
    # the fine-grained ratio in CI.
    assert entry["speedup"] >= 3.0
    assert instants <= MAX_DECISION_INSTANTS_PER_ATTEMPT * attempts


def test_library_measure_window_vs_every_read():
    """``run_loop``'s measurement pass: Alice's arRSSI window against every read.

    ``establish_key`` (every chaos-sweep session, rekey and served
    fallback) measures only the window.  The ARQ decision pass of each
    eavesdropper-free plan of ``tests/test_probing_loop_oracle.py`` runs
    once at the key path's PHY and ``ARQ_ROUNDS`` rounds; the timed pair
    then repeats the register pipeline over the recorded final attempts,
    measuring every read (``before``) or Alice's first ``ALICE_READS``
    (``after``).
    """
    measure = protocol_module._measure_rounds
    passes = []

    def recorded(*args, **kwargs):
        passes.append(args)
        return measure(*args, **kwargs)

    with mock.patch.object(protocol_module, "_measure_rounds", recorded):
        for index in range(N_PLANS):
            setup, *plans = plan_case(index)
            protocol, seeds, _ = build_attacked(
                1000 + index, *plans, phy=KEY_PHY, **setup
            )
            protocol.run_loop(ARQ_ROUNDS, seeds)
    assert len(passes) == N_PLANS
    results = {}

    def measure_all(side, alice_reads):
        results[side] = [measure(*args, alice_reads=alice_reads) for args in passes]

    before_s, after_s = _compare(
        lambda: measure_all("before", None),
        lambda: measure_all("after", ALICE_READS),
        reps=MEASURE_REPS,
    )
    for full, windowed in zip(results["before"], results["after"]):
        (bob, bob_z), (alice, alice_z), _, _ = full
        (w_bob, w_bob_z), (w_alice, w_alice_z), _, _ = windowed
        np.testing.assert_array_equal(bob, w_bob)
        np.testing.assert_array_equal(bob_z, w_bob_z)
        np.testing.assert_array_equal(alice[..., :ALICE_READS], w_alice)
        np.testing.assert_array_equal(alice_z, w_alice_z)
    # Channel instants each side evaluates per round, counted untimed.
    instants = {}
    group_path_gain = protocol_module._group_path_gain
    for side, alice_reads in (("before", None), ("after", ALICE_READS)):
        sizes = []

        def counted(protocols, times_1d):
            sizes.append(times_1d.size)
            return group_path_gain(protocols, times_1d)

        with mock.patch.object(protocol_module, "_group_path_gain", counted):
            measure_all(side, alice_reads)
        instants[side] = sum(sizes) / (N_PLANS * ARQ_ROUNDS)
    assert instants == {
        "before": 2 * KEY_PHY.total_symbols,
        "after": KEY_PHY.total_symbols + ALICE_READS,
    }
    entry = _record(
        f"library_measure@chaos_plans_x{N_PLANS}_r{ARQ_ROUNDS}",
        before_s,
        after_s,
        sessions=N_PLANS,
        rounds=ARQ_ROUNDS,
        spreading_factor=KEY_PHY.spreading_factor,
        alice_reads=ALICE_READS,
        instants_per_round_before=int(instants["before"]),
        instants_per_round_after=int(instants["after"]),
    )
    assert entry["speedup"] >= MIN_MEASURE_SPEEDUP
