"""Chaos-harness benchmarks: cost and verdict of the invariant sweep.

Trains the chaos-sized pipeline once, runs a fixed-seed randomized
fault/attack sweep, asserts that every safety invariant held (zero
violations -- the same verdict the ``repro chaos`` CI smoke job
enforces at larger scale), and persists the timings to
``BENCH_chaos.json`` at the repo root.

The training entry is an absolute-cost tracker (``speedup: null``):
``scripts/check_bench_regression.py`` reports it and fails CI if it
disappears, but does not gate on the absolute seconds, which do not
transfer across runners.  The other two entries are same-run
before/after pairs whose speedup ratio the checker gates at its
tolerance; ``before`` is the frozen per-attempt ARQ loop
(``tests/oracles/probing_loop.py``).  The sweep entry runs the whole
sweep with ``ProbingProtocol.run_loop`` swapped for that loop and
requires both reports to be equal; the ``arq_probing`` entry times the
two loops alone and records the live loop's decision-pass counts
(attempts, ``path_gain_db`` calls and the instants they evaluate), whose
instants per attempt the test bounds.
"""

import dataclasses
import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.faults import chaos
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
#: Interleaved before/after pairs of the sweep; the first pair doubles
#: as the warm-up, so a timing is the faster of the two.
SWEEP_REPS = 2

#: Rounds per ARQ probing session in the ``arq_probing`` entry.
ARQ_ROUNDS = 64
#: Bound on the live loop's decision instants per ARQ attempt.  Two per
#: attempt are read; re-evaluating the rest of the burst after every
#: retransmission read 25.8 on these plans, the look-ahead 7.5.
MAX_DECISION_INSTANTS_PER_ATTEMPT = 10.0

#: Collected by the tests below, written once at module teardown.
_ENTRIES = {}


def _compare(before_fn, after_fn, reps=3, warmup=1):
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
    """Persist everything the module measured to ``BENCH_chaos.json``."""
    yield
    if not _ENTRIES:
        return
    payload = {
        "benchmark": "chaos-invariant-harness",
        "units": "seconds; before/after pairs min over interleaved "
        "repetitions, chaos_pipeline_train a single run (absolute-cost tracker)",
        "before": "frozen per-attempt ARQ probing loop "
        "(tests/oracles/probing_loop.py): alone (arq_probing) or swapped "
        "into the run_chaos sweep",
        "after": "ProbingProtocol.run_loop: alone (arq_probing) or in the "
        "run_chaos sweep; build_chaos_pipeline (chaos_pipeline_train)",
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

    def sweep(engine):
        if engine == "before":
            with mock.patch.object(ProbingProtocol, "run_loop", reference_run_loop):
                reports[engine] = chaos.run_chaos(
                    chaos_pipeline, N_SESSIONS, seed=SWEEP_SEED
                )
        else:
            reports[engine] = chaos.run_chaos(
                chaos_pipeline, N_SESSIONS, seed=SWEEP_SEED
            )

    before_s, after_s = _compare(
        lambda: sweep("before"), lambda: sweep("after"), reps=SWEEP_REPS, warmup=0
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

    before_s, after_s = _compare(lambda: sweep("before"), lambda: sweep("after"))
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
