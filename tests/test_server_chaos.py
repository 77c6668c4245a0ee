"""Server-path chaos smoke: misbehaving clients vs. a live server.

A scaled-down version of the CI sweep (``repro chaos --server``): two
dozen seeded concurrent clients -- honest, disconnecting, slow-loris,
corrupt/oversized frames, duplicate ids, silent -- against a real
loopback server, asserting every library- and server-level invariant
held, no session leaked, and the behavior mix actually exercised the
misbehaving paths (the sweep must not silently degenerate to all-honest).
A 16-client kill/restart sweep (``repro chaos --restart``) must hold its
invariants and leave no journal behind when it made its own.
"""

import tempfile

import pytest

from repro.faults.chaos import ChaosReport
from repro.faults.chaos_served import (
    random_client_behavior,
    run_restart_chaos,
    run_server_chaos,
)

CLIENTS = 24
SEED = 3
ROUNDS = 48


@pytest.fixture(scope="module")
def sweep(tiny_pipeline) -> ChaosReport:
    """One shared sweep; the tests below assert different facets of it."""
    return run_server_chaos(
        tiny_pipeline, n_clients=CLIENTS, seed=SEED, n_rounds=ROUNDS
    )


class TestServerChaosSweep:
    def test_all_invariants_hold(self, sweep):
        details = [
            f"[{v.invariant}] client {v.session}: {v.detail}"
            for v in sweep.violations
        ]
        assert sweep.ok, "invariant violations:\n" + "\n".join(details)

    def test_no_session_leaks(self, sweep):
        assert sweep.leaked_sessions == 0

    def test_results_were_delivered(self, sweep):
        # Honest clients exist in every seeded mix; they must get results.
        assert sweep.results > 0
        assert sweep.metrics["completed"] == sweep.results

    def test_misbehavior_was_exercised(self, sweep):
        # The sweep is only meaningful if hostile behaviors actually ran
        # and produced taxonomized aborts (not exceptions, not hangs).
        assert len(sweep.behaviors) >= 4
        assert sum(
            count
            for name, count in sweep.behaviors.items()
            if name not in ("normal", "ping-then-normal")
        ) > 0
        assert sweep.aborts > 0

    def test_every_client_accounted_for(self, sweep):
        assert sum(sweep.client_kinds.values()) == CLIENTS
        assert sum(sweep.behaviors.values()) == CLIENTS

    def test_violation_counts_cover_both_invariant_sets(self, sweep):
        # Exactly the invariants the server sweep checks: the library
        # key-release and payload checks it re-runs, plus its own four.
        counts = sweep.violation_counts()
        assert sweep.sweep == "server"
        assert set(counts) == {
            "silent-key-mismatch",
            "key-after-failed-verification",
            "no-nonce-reuse-ever",
            "no-plaintext-on-auth-failure",
            "rekey-preserves-continuity",
            "session-leak-after-reap",
            "tick-stall",
            "shed-not-hang",
            "silent-degraded-session",
        }
        assert all(count == 0 for count in counts.values())

    def test_degraded_sessions_counted_not_silent(self, sweep):
        # The counter exists and is consistent with the metrics snapshot
        # (the invariant 'silent-degraded-session' already checked the
        # observer agreement; this pins the report plumbing).
        assert sweep.degraded_sessions == sweep.metrics["degraded_sessions"]
        assert sweep.degraded_sessions >= 0


class TestBehaviorGenerator:
    def test_behavior_draw_is_deterministic(self):
        import numpy as np

        draws_a = [
            random_client_behavior(np.random.default_rng([7, i])) for i in range(50)
        ]
        draws_b = [
            random_client_behavior(np.random.default_rng([7, i])) for i in range(50)
        ]
        assert draws_a == draws_b

    def test_behavior_mix_is_diverse(self):
        import numpy as np

        draws = [
            random_client_behavior(np.random.default_rng([7, i])) for i in range(200)
        ]
        assert len(set(draws)) >= 6
        assert draws.count("normal") > 50  # honest majority


class TestRestartSweep:
    def test_sweep_holds_and_removes_the_journal_it_made(
        self, tiny_pipeline, tmp_path, monkeypatch
    ):
        """Without a journal directory the restart sweep journals into a
        temporary one -- which holds each data-phase session's master
        secret -- and removes it once the journal is verified."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_restart_chaos(
            tiny_pipeline, n_clients=16, seed=0, n_rounds=ROUNDS, restarts=1
        )
        details = [f"[{v.invariant}] {v.detail}" for v in report.violations]
        assert report.ok, "invariant violations:\n" + "\n".join(details)
        assert report.journal_records > 0
        assert report.generations == report.kills + 1
        assert list(tmp_path.iterdir()) == []
