"""Payload-phase chaos: the secure channel under the invariant harness.

The headline test is the negative control the acceptance criteria demand:
a sweep over a deliberately broken channel (a receive-side replay window
that never reports a replay, substituted with ``monkeypatch``) must
demonstrably trip the
``no-nonce-reuse-ever`` invariant -- and *only* that invariant.  A harness
whose alarms cannot fire proves nothing.
"""

import pytest

from repro.faults.chaos import (
    INVARIANTS,
    ChaosReport,
    run_chaos,
)
from repro.secure.channel import ReplayWindow
from repro.secure.records import OPEN_FAILURES
from repro.secure.rekey import CLOSE_REASONS

SESSIONS = 16
ROUNDS = 48

#: Seed whose sweep is known to exercise record-replay attacks against
#: secured sessions (the broken-window negative control needs them).
BROKEN_SEED = 3


@pytest.fixture(scope="module")
def sweep(tiny_pipeline) -> ChaosReport:
    """One healthy data-phase sweep shared by the positive tests."""
    return run_chaos(tiny_pipeline, SESSIONS, seed=1, n_rounds=ROUNDS)


class TestHealthyDataPhase:
    def test_sweep_is_clean_and_actually_secured_sessions(self, sweep):
        details = [f"[{v.invariant}] {v.detail}" for v in sweep.violations]
        assert sweep.ok, "violations:\n" + "\n".join(details)
        assert sweep.secured_sessions > 0
        assert sweep.records_delivered > 0

    def test_no_nonce_was_ever_reused(self, sweep):
        assert sweep.nonce_reuses == 0
        assert sweep.violation_counts()["no-nonce-reuse-ever"] == 0

    def test_payload_failures_stay_in_the_closed_taxonomy(self, sweep):
        assert set(sweep.payload_failures) <= set(OPEN_FAILURES)

    def test_channel_closes_are_taxonomized(self, sweep):
        assert set(sweep.close_reasons) <= set(CLOSE_REASONS)
        assert sweep.channels_closed == sum(sweep.close_reasons.values())
        assert sweep.rekeys_completed >= 0

    def test_payload_invariants_are_the_declared_four(self, sweep):
        payload = (
            "no-decrypt-under-mismatched-keys",
            "no-nonce-reuse-ever",
            "no-plaintext-on-auth-failure",
            "rekey-preserves-continuity",
        )
        assert all("library" in INVARIANTS[name] for name in payload)
        assert set(payload) <= set(sweep.violation_counts())


class TestDataPhaseToggle:
    def test_disabled_data_phase_runs_no_payload_traffic(self, tiny_pipeline):
        report = run_chaos(
            tiny_pipeline, 4, seed=2, n_rounds=ROUNDS, data_phase=False
        )
        assert report.ok
        assert report.secured_sessions == 0
        assert report.records_delivered == 0
        assert report.nonce_reuses == 0
        assert report.channels_closed == 0


class TestBrokenChannelTripsTheAlarm:
    def test_disabled_replay_window_trips_only_nonce_reuse(
        self, tiny_pipeline, monkeypatch
    ):
        monkeypatch.setattr(ReplayWindow, "seen", lambda self, sequence: False)
        report = run_chaos(tiny_pipeline, SESSIONS, seed=BROKEN_SEED, n_rounds=ROUNDS)
        assert not report.ok
        reuse = [
            v for v in report.violations if v.invariant == "no-nonce-reuse-ever"
        ]
        other = [
            v for v in report.violations if v.invariant != "no-nonce-reuse-ever"
        ]
        # The broken window is caught -- and blamed precisely: nothing
        # else about the channel misbehaves.
        assert len(reuse) >= 1
        assert other == []
        assert report.nonce_reuses == len(reuse)
        # Every reuse the ledger saw is an accept-side duplicate (the
        # sender's monotonic counter is untouched by the broken window).
        assert all("accept" in v.detail for v in reuse)

