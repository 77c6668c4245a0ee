"""Session-server benchmarks: start-up, throughput and chaos-sweep cost.

Stands up the real asyncio key-establishment server on a loopback port
and measures what an operator would: the CPU a fresh process spends
starting the key service, sessions per second through the full
framed-transport -> batch-tick -> result path for a burst of honest
concurrent devices, and the wall cost of the mixed (hostile + honest)
chaos sweep.  Numbers persist to ``BENCH_server.json`` at the repo root.

``server_start@import`` is a same-run before/after: the start-up alone
against the same start-up after importing SciPy's ``stats`` and
``special``, so ``scripts/check_bench_regression.py`` gates its speedup
at the CI tolerance.  The other entries are absolute-cost trackers
(``speedup: null``): the checker reports them and fails CI if one
disappears (or the payload comes back empty), but does not gate on the
absolute seconds, which do not transfer across runners.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.channel.scenario import ScenarioName, scenario_config
from repro.core.pipeline import PipelineConfig, VehicleKeyPipeline
from repro.faults.chaos import run_server_chaos
from repro.probing.features import FeatureConfig
from repro.server import (
    DeviceClient,
    Endpoint,
    KeyEstablishmentServer,
    ModelRegistry,
    ServerConfig,
    run_behavior,
)
from repro.server.client import channel_from_frame
from repro.server.journal import SessionJournal

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_server.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: Honest concurrent devices in the throughput burst.
CLIENTS = 32
#: Mixed-behavior clients in the timed chaos sweep.
CHAOS_CLIENTS = 48
#: Probing rounds per served session.
ROUNDS = 48
SEED = 0

#: Collected by the tests below, written once at module teardown.
_ENTRIES = {}


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
    """Persist everything the module measured to ``BENCH_server.json``.

    Entries merge over whatever the committed payload already holds, so
    a partial run (one ``-k``-selected benchmark) refreshes its own
    numbers without dropping the others -- the regression gate fails CI
    when an entry disappears, so clobbering would read as a regression.
    """
    yield
    if not _ENTRIES:
        return
    entries = {}
    if RESULTS_PATH.exists():
        try:
            entries = dict(json.loads(RESULTS_PATH.read_text())["entries"])
        except (json.JSONDecodeError, KeyError, TypeError):
            entries = {}
    entries.update(_ENTRIES)
    payload = {
        "benchmark": "key-establishment-session-server",
        "units": (
            "seconds, single run (absolute-cost trackers); server_start: "
            "child CPU seconds, min over interleaved fresh interpreters"
        ),
        "before": "server_start: the same start-up after importing SciPy",
        "after": "asyncio server: framed transport -> batch ticks -> results",
        "numpy": np.__version__,
        "entries": dict(sorted(entries.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[benchmarks] wrote {RESULTS_PATH} with {len(entries)} entries")


#: The key service's start-up in a fresh interpreter: import the CLI and
#: the server, then build a pipeline (which builds Bob's quantizer).
_START_UP = """
import json, resource, sys, time
import repro.cli, repro.server
from repro.channel.scenario import ScenarioName
from repro.core.pipeline import VehicleKeyPipeline
VehicleKeyPipeline.for_scenario(ScenarioName.V2I_URBAN)
print(json.dumps({
    "cpu_s": time.process_time(),
    "modules": len(sys.modules),
    "scipy_modules": sum(name.split(".")[0] == "scipy" for name in sys.modules),
    "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""
#: The same start-up after the SciPy modules the key path used to import.
_START_UP_WITH_SCIPY = "import scipy.stats, scipy.special\n" + _START_UP


def _start_up(script):
    """Run one start-up script in a fresh interpreter; returns its figures."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(completed.stdout)


def test_server_start_without_scipy():
    """CPU, modules and memory of starting the key service.

    Five interleaved pairs of fresh interpreters; each side keeps its
    minimum CPU time and its median max RSS.
    """
    runs = {"before": [], "after": []}
    for _ in range(5):
        runs["before"].append(_start_up(_START_UP_WITH_SCIPY))
        runs["after"].append(_start_up(_START_UP))
    before, after = (
        {
            "cpu_s": min(run["cpu_s"] for run in runs[side]),
            "max_rss_mb": round(float(np.median([run["max_rss_mb"] for run in runs[side]])), 1),
            "modules": runs[side][-1]["modules"],
            "scipy_modules": runs[side][-1]["scipy_modules"],
        }
        for side in ("before", "after")
    )
    entry = _record(
        "server_start@import",
        before["cpu_s"],
        after["cpu_s"],
        pairs=5,
        before_modules=before["modules"],
        after_modules=after["modules"],
        before_max_rss_mb=before["max_rss_mb"],
        after_max_rss_mb=after["max_rss_mb"],
        after_scipy_modules=after["scipy_modules"],
    )
    # The key service imports no SciPy; the committed baseline gates the
    # fine-grained ratio in CI.
    assert after["scipy_modules"] == 0
    assert entry["speedup"] >= 2.0


@pytest.fixture(scope="module")
def served_pipeline():
    """A small trained pipeline sized like the chaos harness's."""
    config = PipelineConfig(
        scenario=scenario_config(ScenarioName.V2I_URBAN),
        feature_config=FeatureConfig(window_fraction=0.10, values_per_packet=2),
        seq_len=16,
        hidden_units=16,
        key_bits=32,
        code_dim=24,
        decoder_units=64,
        rounds_per_episode=48,
        session_rounds=96,
        final_key_bits=64,
        alice_confidence_margin=0.12,
        bob_guard_fraction=0.30,
    )
    pipeline = VehicleKeyPipeline(config, seed=11)
    pipeline.train(n_episodes=100, epochs=60, reconciler_epochs=15)
    return pipeline


def test_server_honest_throughput(served_pipeline):
    """Sessions/second for a burst of honest concurrent devices."""

    async def burst():
        server = KeyEstablishmentServer(
            ModelRegistry(served_pipeline),
            ServerConfig(
                port=0,
                tick_interval_s=0.02,
                max_batch=16,
                queue_limit=CLIENTS,
                max_sessions=2 * CLIENTS,
            ),
        )
        await server.start()
        endpoint = Endpoint(port=server.bound_port)
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(
                run_behavior(
                    endpoint,
                    "normal",
                    f"bench-{i}",
                    episode=f"bench-{SEED}-{i}",
                    rounds=ROUNDS,
                )
                for i in range(CLIENTS)
            )
        )
        elapsed = time.perf_counter() - start
        await server.drain(timeout=30.0)
        return outcomes, elapsed, server

    outcomes, elapsed, server = asyncio.run(burst())
    delivered = sum(1 for outcome in outcomes if outcome.kind == "result")
    entry = _record(
        f"server_throughput@honest_x{CLIENTS}_r{ROUNDS}",
        None,
        elapsed,
        clients=CLIENTS,
        delivered=delivered,
        sessions_per_sec=round(delivered / elapsed, 3),
        ticks=server.metrics.ticks,
        tick_sessions_max=server.metrics.tick_sessions_max,
    )
    # Every honest device must get its result, through real sockets,
    # coalesced into fewer ticks than sessions.
    assert delivered == CLIENTS
    assert entry["sessions_per_sec"] > 0.0
    assert server.metrics.ticks <= CLIENTS


def test_secure_echo_throughput(served_pipeline):
    """Data-plane records/second through the server's batched drain.

    One established device floods secure records over a real loopback
    socket in windows sized to the server's drain cap, so the server
    coalesces waiting frames into batched ``open_records``/
    ``seal_records`` passes instead of one crypto round-trip per frame.
    Absolute tracker; the honest before/after for the record crypto
    itself lives in ``BENCH_secure.json``.
    """
    n_records = 512
    window = 64
    payloads = [bytes(256) for _ in range(window)]

    async def flood():
        server = KeyEstablishmentServer(
            ModelRegistry(served_pipeline),
            ServerConfig(
                port=0,
                tick_interval_s=0.02,
                idle_timeout_s=10.0,
                secure_batch_max=window,
                secure_max_records=4 * n_records,
            ),
        )
        await server.start()
        endpoint = Endpoint(port=server.bound_port)
        try:
            # Establishment success depends on the episode realization;
            # search a small space for one that yields a live channel.
            for i in range(16):
                client = DeviceClient(
                    endpoint,
                    f"bench-secure-{i}",
                    episode=f"bench-secure-{SEED}-{i}",
                    rounds=ROUNDS,
                    timeout_s=30.0,
                    data=True,
                )
                await client.connect()
                await client.hello()
                await client.send({"type": "start"})
                verdict = await client.recv()
                if (
                    verdict is not None
                    and verdict.get("type") == "result"
                    and "channel" in verdict
                ):
                    break
                await client.close()
            else:
                pytest.fail("no successful establishment in 16 episodes")
            channel = channel_from_frame(verdict["channel"])
            try:
                start = time.perf_counter()
                for _ in range(n_records // window):
                    for record in channel.seal_records(payloads):
                        await client.send(
                            {"type": "secure", "record": record.hex()}
                        )
                    for _ in range(window):
                        reply = await client.recv()
                        assert reply["type"] == "secure"
                elapsed = time.perf_counter() - start
                await client.send({"type": "bye"})
            finally:
                await client.close()
        finally:
            await server.drain(timeout=30.0)
        return elapsed, server

    elapsed, server = asyncio.run(flood())
    metrics = server.metrics
    entry = _record(
        f"secure_echo_throughput@{n_records}x256B",
        None,
        elapsed,
        records=n_records,
        records_per_sec=round(n_records / elapsed, 1),
        secure_batches=metrics.secure_batches,
        secure_batch_records_max=metrics.secure_batch_records_max,
    )
    assert metrics.secure_records == n_records
    assert metrics.secure_echoed == n_records
    # The flood must actually exercise the coalesced path, not 512
    # single-record passes.
    assert metrics.secure_batches < n_records
    assert metrics.secure_batch_records_max >= 2
    assert entry["records_per_sec"] > 0.0


def test_recovery_time(served_pipeline, tmp_path):
    """Journal-replay latency: restart over 1k journaled sessions.

    Pre-populates a write-ahead journal the way a long-lived server
    would -- admit/outcome/channel/deliver/nonce records for 1000
    sessions, the newest 50 left orphaned as a crash would -- and times
    a cold :meth:`KeyEstablishmentServer.start`, which replays the
    journal, aborts the orphans and restores the nonce floors before
    the listener accepts its first connection.
    """
    n_sessions = 1000
    n_orphans = 50
    journal_dir = tmp_path / "wal"
    journal = SessionJournal(journal_dir, fsync="off")
    journal.recover()
    for i in range(n_sessions):
        token = f"{i:032x}"
        journal.append(
            {"t": "admit", "token": token, "sid": f"bench-r-{i}",
             "episode": f"bench-r-{i}", "rounds": ROUNDS, "data": i % 4 == 0}
        )
        if i < n_sessions - n_orphans:
            journal.append(
                {"t": "outcome", "token": token, "sid": f"bench-r-{i}",
                 "kind": "result",
                 "frame": {"type": "result", "session_id": f"bench-r-{i}",
                           "success": True, "key_digest": f"{i:032x}"}}
            )
            if i % 4 == 0:
                # A data-phase session: channel context then its nonce
                # high-water advances, as the live server journals them.
                journal.append(
                    {"t": "channel", "token": token, "sid": f"bench-r-{i}",
                     "master": "ab" * 32, "nonce": f"{i:032x}",
                     "fingerprint": "bench", "epoch": i % 3,
                     "max_records": 2**20, "replay_window": 64}
                )
                journal.append(
                    {"t": "nonce", "key": f"key-{i:04d}", "dir": 0,
                     "high": i % 7}
                )
            journal.append({"t": "deliver", "token": token})
    records_journaled = journal.records_written
    journal.close()

    async def restart():
        server = KeyEstablishmentServer(
            ModelRegistry(served_pipeline),
            ServerConfig(port=0, journal_dir=str(journal_dir)),
        )
        start = time.perf_counter()
        await server.start()
        elapsed = time.perf_counter() - start
        await server.drain(timeout=30.0)
        return elapsed, server

    elapsed, server = asyncio.run(restart())
    entry = _record(
        f"recovery_time@journal_{n_sessions}_sessions",
        None,
        elapsed,
        sessions=n_sessions,
        records_replayed=records_journaled,
        orphans_aborted=server.metrics.recovered_orphans,
        sessions_per_sec=round(n_sessions / elapsed, 1),
    )
    assert server.metrics.recoveries == 1
    assert server.metrics.recovered_orphans == n_orphans
    assert entry["sessions_per_sec"] > 0.0
    # Recovery appended its own records (orphan aborts + the marker).
    assert server.metrics.journal_records >= n_orphans + 1


def test_server_chaos_sweep_cost(served_pipeline):
    """Wall cost (and clean verdict) of the mixed-behavior server sweep."""
    start = time.perf_counter()
    report = run_server_chaos(
        served_pipeline, n_clients=CHAOS_CLIENTS, seed=SEED, n_rounds=ROUNDS
    )
    elapsed = time.perf_counter() - start
    _record(
        f"server_chaos_sweep@mixed_x{CHAOS_CLIENTS}_r{ROUNDS}",
        None,
        elapsed,
        clients=CHAOS_CLIENTS,
        results=report.results,
        aborts=report.aborts,
        rejections=report.rejections,
        leaked_sessions=report.leaked_sessions,
        violations=len(report.violations),
    )
    assert report.ok, [violation.detail for violation in report.violations]
    assert report.leaked_sessions == 0
