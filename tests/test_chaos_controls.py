"""Negative controls: every registered chaos invariant demonstrably fires.

A harness whose alarms cannot fire proves nothing.  :data:`CONTROLS` maps
every invariant in :data:`repro.faults.chaos.INVARIANTS` to a control
that breaks exactly one thing -- a forged outcome field, a substituted
channel or pipeline piece, a hand-built client outcome, counter or
journal -- runs the sweep's own check over it, and returns the report;
the control must raise its invariant and nothing else.  The registry
and the table must name the same invariants, so a new invariant cannot
ship without a control.

The server and restart controls need no trained pipeline; CI runs the
restart ones next to the journal tests.
"""

import asyncio
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _print_verdict
from repro.core.pipeline import KeyEstablishmentOutcome
from repro.core.statemachine import ABORT_MAC, SessionAbort
from repro.exceptions import ConfigurationError
from repro.faults import chaos_served
from repro.faults.adversary import AdversaryPlan
from repro.faults.chaos import (
    INVARIANTS,
    SWEEPS,
    ChaosReport,
    _check_invariants,
    _run_payload_phase,
    run_chaos,
)
from repro.faults.chaos_served import (
    _check_drain,
    _classify_clients,
    _restart_client,
    _verify_restart_journal,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.lora.regional import EU868
from repro.secure import ManagedSecureLink, NonceLedger
from repro.secure.channel import OpenOutcome, ReplayWindow
from repro.server.client import ClientOutcome
from repro.server.framing import FrameReader, write_frame

SECURITY_MD = Path(__file__).resolve().parent.parent / "docs" / "SECURITY.md"

#: A sweep whose secured sessions face record replays (seed, sessions):
#: the first three sessions of ``test_chaos_payload``'s broken-window sweep.
REPLAY_SWEEP = (3, 3)


def _fires_only(report: ChaosReport, invariant: str) -> None:
    """Assert ``report`` holds violations of ``invariant`` and no other."""
    fired = [f"[{v.invariant}] {v.detail}" for v in report.violations]
    assert report.violations, f"the {invariant} control raised nothing"
    assert {v.invariant for v in report.violations} == {invariant}, fired


@pytest.fixture(scope="module")
def established(tiny_pipeline) -> KeyEstablishmentOutcome:
    """One real fault-free establishment every library control starts from."""
    outcome = tiny_pipeline.establish_key(episode="chaos-controls")
    assert outcome.success and outcome.session.confirmed
    return outcome


# -- library: outcome checks over a real outcome --------------------------


def _check(pipeline, outcome, policy=RetryPolicy()) -> ChaosReport:
    """The library sweep's outcome checks on one (forged) outcome."""
    report = ChaosReport()
    _check_invariants(
        report, outcome, policy, FaultPlan.none(), pipeline.config.phy.airtime_s, 0
    )
    return report


def _success_ignores_key_agreement(pipeline, outcome, monkeypatch):
    # A success flag that forgot to compare the two keys.
    monkeypatch.setattr(
        KeyEstablishmentOutcome,
        "success",
        property(lambda self: self.failure_reason is None),
    )
    wrong = bytes(b ^ 0xFF for b in outcome.session.final_key_bob)
    return _check(
        pipeline, replace(outcome, session=replace(outcome.session, final_key_bob=wrong))
    )


def _abort_keeps_key_bytes(pipeline, outcome, monkeypatch):
    abort = SessionAbort(ABORT_MAC, "forged", "reconciling")
    session = replace(outcome.session, abort=abort)
    return _check(pipeline, replace(outcome, session=session, failure_reason=ABORT_MAC))


def _establish_raises(pipeline, outcome, monkeypatch):
    def boom(**kwargs):
        raise RuntimeError("establishment blew up")

    monkeypatch.setattr(pipeline, "establish_key", boom)
    return run_chaos(pipeline, 1, seed=0)


def _retry_budget_overspent(pipeline, outcome, monkeypatch):
    return _check(
        pipeline,
        replace(
            outcome,
            retry_limit_per_round=2,
            max_round_retries=3,
            retry_budget_remaining=-1,
        ),
    )


def _no_backoff_under_a_regional_plan(pipeline, outcome, monkeypatch):
    return _check(
        pipeline,
        replace(outcome, total_retries=2, total_backoff_s=0.0),
        policy=RetryPolicy(regional_plan=EU868),
    )


def _replayed_syndrome_never_aborts(pipeline, outcome, monkeypatch):
    return _check(pipeline, replace(outcome, adversary_events={"syndromes_replayed": 1}))


# -- library: the data phase with one broken piece -----------------------


def _data_phase(pipeline, outcome, plan: AdversaryPlan) -> ChaosReport:
    """One real data phase over ``outcome`` under the attack ``plan``."""
    report = ChaosReport()
    _run_payload_phase(
        pipeline,
        outcome,
        np.random.default_rng(5),
        FaultPlan.none(),
        RetryPolicy(),
        plan,
        NonceLedger(),
        [],
        0,
        report,
    )
    return report


def _broken_delivery(monkeypatch, transform) -> None:
    """Substitute ``ManagedSecureLink.deliver`` with ``transform`` of its result."""
    deliver = ManagedSecureLink.deliver

    def broken(self, role, data):
        result = deliver(self, role, data)
        return None if result is None else transform(result)

    monkeypatch.setattr(ManagedSecureLink, "deliver", broken)


def _delivery_accepts_foreign_records(pipeline, outcome, monkeypatch):
    def accept_forgeries(result):
        if result.failure == "auth-failed":
            return OpenOutcome(ok=True, plaintext=b"forged")
        return result

    _broken_delivery(monkeypatch, accept_forgeries)
    return _data_phase(pipeline, outcome, AdversaryPlan(record_bitflip_rate=0.5))


def _delivery_leaks_plaintext(pipeline, outcome, monkeypatch):
    _broken_delivery(
        monkeypatch, lambda r: r if r.ok else replace(r, plaintext=b"leaked")
    )
    return _data_phase(pipeline, outcome, AdversaryPlan(record_bitflip_rate=0.5))


def _delivery_fails_untouched_records(pipeline, outcome, monkeypatch):
    _broken_delivery(
        monkeypatch,
        lambda r: OpenOutcome(ok=False, failure="auth-failed") if r.ok else r,
    )
    return _data_phase(pipeline, outcome, AdversaryPlan.none())


def _replay_window_never_fires(pipeline, outcome, monkeypatch):
    monkeypatch.setattr(ReplayWindow, "seen", lambda self, sequence: False)
    seed, sessions = REPLAY_SWEEP
    return run_chaos(pipeline, sessions, seed=seed, n_rounds=48)


# -- server: the shared classifier and the drain check -------------------


def _honest_client_gets_no_verdict():
    report = ChaosReport(sweep="server")
    _classify_clients(report, [ClientOutcome("dev-0", "normal", "closed")])
    return report


def _rejection_without_retry_hint():
    report = ChaosReport(sweep="server")
    frame = {"type": "rejected", "reason": "server-overloaded"}
    _classify_clients(report, [ClientOutcome("dev-0", "normal", "rejected", frame)])
    return report


def _session_still_registered():
    report = ChaosReport(sweep="server", leaked_sessions=1)
    _check_drain(report, still_active=0, degraded_seen=0)
    return report


def _degraded_session_uncounted():
    report = ChaosReport(sweep="server", degraded_sessions=1)
    _check_drain(report, still_active=0, degraded_seen=2)
    return report


# -- restart: hand-built journals ----------------------------------------

TOKEN = "a" * 32


def _journal(*extra: dict) -> list:
    """A clean one-session journal with ``extra`` records before the drain."""
    return [
        {"t": "admit", "token": TOKEN, "sid": "dev-0"},
        {"t": "outcome", "token": TOKEN, "kind": "result",
         "frame": {"key_digest": "d1"}},
        {"t": "channel", "token": TOKEN, "epoch": 0},
        {"t": "nonce", "key": "k" * 32, "dir": 0, "high": 4},
        *extra,
        {"t": "drain", "leaked": 0, "ledger_reuses": 0,
         "metrics": {"completed": 1}},
    ]


def _verified(records: list) -> ChaosReport:
    report = ChaosReport(sweep="restart")
    _verify_restart_journal(report, records)
    return report


def _seal_high_water_regresses():
    return _verified(_journal({"t": "nonce", "key": "k" * 32, "dir": 0, "high": 2}))


def _token_gets_a_second_key():
    return _verified(
        _journal({"t": "outcome", "token": TOKEN, "kind": "result",
                  "frame": {"key_digest": "d2"}})
    )


def _recovery_leaves_an_orphan():
    return _verified(
        _journal({"t": "admit", "token": "b" * 32, "sid": "dev-1"},
                 {"t": "recovery", "orphans": 0})
    )


TRAINED_CONTROLS = {
    "silent-key-mismatch": _success_ignores_key_agreement,
    "key-after-failed-verification": _abort_keeps_key_bytes,
    "uncaught-exception": _establish_raises,
    "retry-budget-exceeded": _retry_budget_overspent,
    "duty-cycle-violated": _no_backoff_under_a_regional_plan,
    "undetected-replay": _replayed_syndrome_never_aborts,
    "no-decrypt-under-mismatched-keys": _delivery_accepts_foreign_records,
    "no-nonce-reuse-ever": _replay_window_never_fires,
    "no-plaintext-on-auth-failure": _delivery_leaks_plaintext,
    "rekey-preserves-continuity": _delivery_fails_untouched_records,
}

SERVER_CONTROLS = {
    "session-leak-after-reap": _session_still_registered,
    "tick-stall": _honest_client_gets_no_verdict,
    "shed-not-hang": _rejection_without_retry_hint,
    "silent-degraded-session": _degraded_session_uncounted,
}

RESTART_CONTROLS = {
    "no-nonce-reuse-across-restart": _seal_high_water_regresses,
    "no-duplicate-result-delivery": _token_gets_a_second_key,
    "no-orphan-session-after-recovery": _recovery_leaves_an_orphan,
}

#: One negative control per registered invariant.
CONTROLS = {**TRAINED_CONTROLS, **SERVER_CONTROLS, **RESTART_CONTROLS}


class TestRegistry:
    def test_every_registered_invariant_has_a_control(self):
        assert set(CONTROLS) == set(INVARIANTS)

    def test_sweeps_check_exactly_their_invariants(self):
        by_sweep = {
            sweep: {name for name, sweeps in INVARIANTS.items() if sweep in sweeps}
            for sweep in SWEEPS
        }
        shared = {"silent-key-mismatch", "key-after-failed-verification"}
        payload = {
            "no-decrypt-under-mismatched-keys",
            "no-nonce-reuse-ever",
            "no-plaintext-on-auth-failure",
            "rekey-preserves-continuity",
        }
        assert by_sweep["library"] == shared | payload | {
            "uncaught-exception",
            "retry-budget-exceeded",
            "duty-cycle-violated",
            "undetected-replay",
        }
        assert by_sweep["server"] == shared | {
            "no-nonce-reuse-ever",
            "no-plaintext-on-auth-failure",
            "rekey-preserves-continuity",
            "session-leak-after-reap",
            "tick-stall",
            "shed-not-hang",
            "silent-degraded-session",
        }
        assert by_sweep["restart"] == shared | {
            "uncaught-exception",
            "rekey-preserves-continuity",
            "shed-not-hang",
            "no-nonce-reuse-across-restart",
            "no-duplicate-result-delivery",
            "no-orphan-session-after-recovery",
        }
        assert [len(by_sweep[sweep]) for sweep in SWEEPS] == [10, 9, 8]
        for sweep in SWEEPS:
            assert set(ChaosReport(sweep=sweep).violation_counts()) == by_sweep[sweep]

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_cli_prints_exactly_the_sweeps_invariants(self, sweep, capsys):
        report = ChaosReport(sweep=sweep)
        assert _print_verdict(report) == 0
        printed = [
            line[len("invariant "):].split(":")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("invariant ")
        ]
        assert printed == list(report.violation_counts())
        report.violate("silent-key-mismatch", 4, "forged")
        assert _print_verdict(report) == 1
        assert "VIOLATION [" in capsys.readouterr().out

    def test_violate_refuses_a_name_the_sweep_does_not_check(self):
        report = ChaosReport(sweep="server")
        with pytest.raises(ValueError):
            report.violate("uncaught-exception", 0, "not a server invariant")
        with pytest.raises(ValueError):
            report.violate("no-such-invariant", 0, "typo")
        assert report.ok

    def test_unknown_sweep_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosReport(sweep="fleet")

    def test_every_invariant_is_documented(self):
        text = SECURITY_MD.read_text(encoding="utf-8")
        assert [name for name in INVARIANTS if name not in text] == []


class TestLibraryControls:
    @pytest.mark.parametrize("invariant", list(TRAINED_CONTROLS))
    def test_fires_only_its_invariant(
        self, invariant, tiny_pipeline, established, monkeypatch
    ):
        control = TRAINED_CONTROLS[invariant]
        _fires_only(control(tiny_pipeline, established, monkeypatch), invariant)

    def test_untouched_outcome_and_data_phase_are_clean(
        self, tiny_pipeline, established
    ):
        assert _check(tiny_pipeline, established).ok
        report = _data_phase(
            tiny_pipeline, established, AdversaryPlan(record_bitflip_rate=0.5)
        )
        assert report.ok and report.payload_failures


class TestServerControls:
    @pytest.mark.parametrize("invariant", list(SERVER_CONTROLS))
    def test_fires_only_its_invariant(self, invariant):
        _fires_only(SERVER_CONTROLS[invariant](), invariant)

    def test_restart_sweep_blames_a_missing_verdict_as_shed_not_hang(self):
        # Its honest clients reconnect across crashes; a walk-away client
        # whose connection a crash cut is legal there.
        report = ChaosReport(sweep="restart")
        _classify_clients(
            report,
            [
                ClientOutcome("dev-0", "secure-data", "disconnected"),
                ClientOutcome("dev-1", "disconnect-after-start", "error"),
            ],
        )
        assert [(v.invariant, v.session) for v in report.violations] == [
            ("shed-not-hang", 0)
        ]

    def test_payload_detail_outside_the_sweep_is_shed_not_hang(self):
        report = ChaosReport(sweep="restart")
        detail = "payload-invariant:no-plaintext-on-auth-failure"
        _classify_clients(
            report, [ClientOutcome("dev-0", "secure-data", "error", detail=detail)]
        )
        _fires_only(report, "shed-not-hang")


class TestRestartControls:
    @pytest.mark.parametrize("invariant", list(RESTART_CONTROLS))
    def test_fires_only_its_invariant(self, invariant):
        _fires_only(RESTART_CONTROLS[invariant](), invariant)

    def test_clean_journal_passes_and_fills_the_report(self):
        report = _verified(_journal({"t": "recovery", "orphans": 0}))
        assert report.ok
        assert report.recoveries == 1
        assert report.metrics == {"completed": 1}

    def test_missing_drain_is_an_orphan_risk(self):
        _fires_only(_verified(_journal()[:-1]), "no-orphan-session-after-recovery")

    def test_journaled_restart_violation_is_filed_under_its_name(self):
        record = {"t": "violation", "invariant": "silent-key-mismatch",
                  "detail": "witnessed"}
        _fires_only(_verified(_journal(record)), "silent-key-mismatch")

    def test_resumed_honest_client_keeps_its_behavior(self, monkeypatch):
        # Seed 0, client 2 draws "normal".  The peer mints a token, then
        # drops every connection without a verdict, so the client's
        # second attempt resumes -- and must still be checked as the
        # honest client it is.
        monkeypatch.setattr(chaos_served, "_RESUME_ATTEMPTS", 2)

        class Cluster:
            bound = 0

            async def port(self):
                return self.bound

        async def drop_before_verdict(reader, writer):
            frames = FrameReader(reader)
            hello = await frames.read()
            if not hello.get("resume"):
                await write_frame(
                    writer,
                    {"type": "welcome", "session_id": hello["session_id"],
                     "resume_token": TOKEN},
                )
                await frames.read()  # the start frame
            writer.close()
            await writer.wait_closed()

        async def body():
            listener = await asyncio.start_server(
                drop_before_verdict, "127.0.0.1", 0
            )
            cluster = Cluster()
            cluster.bound = listener.sockets[0].getsockname()[1]
            try:
                return await _restart_client(
                    cluster, 2, 0, 48, NonceLedger(), ChaosReport(sweep="restart")
                )
            finally:
                listener.close()
                await listener.wait_closed()

        outcome = asyncio.run(body())
        assert (outcome.behavior, outcome.kind) == ("normal", "disconnected")
        assert outcome.resume_token == TOKEN
        report = ChaosReport(sweep="restart")
        _classify_clients(report, [outcome])
        _fires_only(report, "shed-not-hang")

    @pytest.mark.parametrize(
        "name",
        [None, "tick-stall", "no-such-invariant", ["not", "a", "name"]],
        ids=["missing", "server-only", "unknown", "not-a-string"],
    )
    def test_journaled_foreign_name_is_an_uncaught_exception(self, name):
        record = {"t": "violation", "detail": "witnessed"}
        if name is not None:
            record["invariant"] = name
        report = _verified(_journal(record))
        _fires_only(report, "uncaught-exception")
        assert repr(name) in report.violations[0].detail
