"""Key lifecycle: rekey triggers, structured closure, faulted rekeys.

Every test runs over a real trained pipeline (the shared tiny fixture):
rekeys are genuine re-establishments, not stubs -- except where a stub
pipeline exists precisely to force the establishment-failure path
deterministically.  Establishment success depends on the channel
realization of the episode, so tests that need a *successful* rekey
search a small episode space and fail loudly if none succeeds.
"""

from types import SimpleNamespace

import pytest

from repro.faults import AdversaryPlan, FaultPlan, LossConfig, MessageFaultConfig
from repro.secure import ManagedSecureLink, NonceLedger, RekeyPolicy
from repro.secure.rekey import (
    CLOSE_BY_PEER,
    CLOSE_REASONS,
    CLOSE_REKEY_BUDGET,
    CLOSE_REKEY_FAILED,
    REKEY_TRIGGERS,
    TRIGGER_DECRYPT_BUDGET,
    TRIGGER_EXHAUSTION,
)

ROUNDS = 64

#: Episodes tried before declaring a needed establishment impossible.
SEARCH = 8


@pytest.fixture(scope="module")
def established(tiny_pipeline):
    """One confirmed session result to derive epoch-0 keys from."""
    for i in range(SEARCH):
        outcome = tiny_pipeline.establish_key(
            episode=f"rekey-base-{i}", n_rounds=ROUNDS
        )
        if outcome.success:
            return outcome.session
    pytest.fail(f"no successful establishment in {SEARCH} episodes")


class _FailingPipeline:
    """A pipeline whose every establishment fails -- deterministically.

    Wraps the real pipeline for its fingerprint (the KDF context must
    stay honest) while making the rekey path's failure branch testable
    without hunting for an episode the channel model rejects.
    """

    def __init__(self, inner):
        self._inner = inner

    def fingerprint(self):
        return self._inner.fingerprint()

    def establish_key(self, **kwargs):
        return SimpleNamespace(
            success=False,
            failure_reason="injected-failure",
            attempts=1,
            session=None,
        )


class TestRekeyTriggers:
    def test_counter_exhaustion_rolls_the_epoch(self, tiny_pipeline, established):
        for i in range(SEARCH):
            link = ManagedSecureLink(
                tiny_pipeline,
                established,
                episode=f"rk-exhaust-{i}",
                policy=RekeyPolicy(max_records_per_epoch=3, grace_opens=2),
                n_rounds=ROUNDS,
            )
            wires = [link.seal("initiator", f"m{j}".encode()) for j in range(4)]
            if link.closed:  # this episode's rekey establishment failed
                assert link.close_report.reason in CLOSE_REASONS
                continue
            assert all(wire is not None for wire in wires)
            assert link.epoch == 1
            assert link.rekeys_completed == 1
            assert link.rekey_events[0].trigger == TRIGGER_EXHAUSTION
            assert link.rekey_events[0].epoch == 1
            # Continuity: the post-rekey record delivers, and the grace
            # allowance still drains an in-flight old-epoch record.
            drained = link.deliver("responder", wires[0])
            assert drained.ok and drained.plaintext == b"m0"
            fresh = link.deliver("responder", wires[3])
            assert fresh.ok and fresh.plaintext == b"m3"
            return
        pytest.fail("no successful counter-exhaustion rekey found")

    def test_decrypt_budget_forces_a_rekey(self, tiny_pipeline, established):
        for i in range(SEARCH):
            link = ManagedSecureLink(
                tiny_pipeline,
                established,
                episode=f"rk-budget-{i}",
                policy=RekeyPolicy(decrypt_failure_budget=2),
                n_rounds=ROUNDS,
            )
            outcomes = [link.deliver("responder", b"garbage") for _ in range(2)]
            assert all(not outcome.ok for outcome in outcomes)
            assert all(outcome.plaintext is None for outcome in outcomes)
            if link.closed:
                assert link.close_report.reason in CLOSE_REASONS
                continue
            assert link.rekeys_completed == 1
            assert link.rekey_events[0].trigger == TRIGGER_DECRYPT_BUDGET
            # The fresh epoch carries traffic again.
            wire = link.seal("initiator", b"after")
            assert link.deliver("responder", wire).plaintext == b"after"
            return
        pytest.fail("no successful decrypt-budget rekey found")

    def test_trigger_taxonomy_is_closed(self):
        assert set(REKEY_TRIGGERS) == {TRIGGER_EXHAUSTION, TRIGGER_DECRYPT_BUDGET}


class TestStructuredClosure:
    def test_failed_rekey_closes_with_report_not_exception(
        self, tiny_pipeline, established
    ):
        link = ManagedSecureLink(
            _FailingPipeline(tiny_pipeline),
            established,
            episode="rk-fail",
            policy=RekeyPolicy(max_records_per_epoch=1),
            n_rounds=ROUNDS,
        )
        assert link.seal("initiator", b"first") is not None
        # The second seal triggers a rekey whose establishment fails:
        # the data path answers None, never raises, and the close report
        # says exactly why.
        assert link.seal("initiator", b"second") is None
        assert link.closed
        assert link.close_report.reason == CLOSE_REKEY_FAILED
        assert link.close_report.trigger == TRIGGER_EXHAUSTION
        assert "injected-failure" in link.close_report.detail
        # Closed means closed: both halves of the data path refuse.
        assert link.seal("initiator", b"third") is None
        assert link.deliver("responder", b"anything") is None

    def test_spent_rekey_budget_closes_structurally(
        self, tiny_pipeline, established
    ):
        link = ManagedSecureLink(
            tiny_pipeline,
            established,
            episode="rk-spent",
            policy=RekeyPolicy(max_records_per_epoch=1, max_rekeys=0),
            n_rounds=ROUNDS,
        )
        assert link.seal("initiator", b"only one") is not None
        assert link.seal("initiator", b"over budget") is None
        assert link.closed
        assert link.close_report.reason == CLOSE_REKEY_BUDGET
        assert link.close_report.epoch == 0
        assert link.rekeys_completed == 0

    def test_close_is_idempotent_and_validated(self, tiny_pipeline, established):
        link = ManagedSecureLink(
            tiny_pipeline, established, episode="rk-close", n_rounds=ROUNDS
        )
        first = link.close(CLOSE_BY_PEER, detail="peer said bye")
        second = link.close(CLOSE_REKEY_FAILED)  # ignored: already closed
        assert first is second
        assert link.close_report.reason == CLOSE_BY_PEER
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            link.close("made-up-reason")

    def test_policy_validates_against_channel_bound(
        self, tiny_pipeline, established
    ):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ManagedSecureLink(
                tiny_pipeline,
                established,
                episode="rk-bad",
                policy=RekeyPolicy(max_records_per_epoch=2**21),
            )


class TestRekeyUnderFaults:
    def test_rekey_under_faults_and_adversary_is_structured(
        self, tiny_pipeline, established
    ):
        # A Gilbert-Elliott lossy link plus a syndrome-tampering
        # adversary attack every rekey establishment.  The contract is
        # not that rekeys succeed -- it is that whatever happens is
        # structured: completed rekeys are recorded, failure closes with
        # a taxonomized report, and the nonce ledger stays clean.
        fault_plan = FaultPlan(
            loss=LossConfig(rate=0.15, mean_burst=2.0),
            messages=MessageFaultConfig(drop_rate=0.05, duplicate_rate=0.05),
        )
        adversary_plan = AdversaryPlan(syndrome_tamper_rate=0.1)
        ledger = NonceLedger()
        link = ManagedSecureLink(
            tiny_pipeline,
            established,
            episode="rk-faulted",
            policy=RekeyPolicy(max_records_per_epoch=4, grace_opens=2),
            ledger=ledger,
            fault_plan=fault_plan,
            adversary_plan=adversary_plan,
            n_rounds=ROUNDS,
        )
        delivered = 0
        for i in range(20):
            wire = link.seal("initiator", f"msg-{i}".encode())
            if wire is None:
                break
            outcome = link.deliver("responder", wire)
            if outcome is None:
                break
            if outcome.ok:
                delivered += 1
        assert link.rekeys_completed >= 1 or link.closed
        if link.closed:
            assert link.close_report.reason in CLOSE_REASONS
            assert link.close_report.trigger in REKEY_TRIGGERS
        for event in link.rekey_events:
            assert event.trigger in REKEY_TRIGGERS
            assert event.attempts >= 1
        assert delivered >= 4  # epoch 0 at minimum carried its traffic
        assert ledger.ok  # no nonce reused across any epoch of the run

    def test_ledger_threads_through_completed_rekeys(
        self, tiny_pipeline, established
    ):
        for i in range(SEARCH):
            ledger = NonceLedger()
            link = ManagedSecureLink(
                tiny_pipeline,
                established,
                episode=f"rk-ledger-{i}",
                policy=RekeyPolicy(max_records_per_epoch=2),
                ledger=ledger,
                n_rounds=ROUNDS,
            )
            for j in range(6):  # crosses at least two epoch boundaries
                wire = link.seal("initiator", f"m{j}".encode())
                if wire is None:
                    break
                link.deliver("responder", wire)
            if link.closed:
                continue
            assert link.rekeys_completed >= 2
            assert ledger.total_seals >= 6
            assert ledger.ok
            return
        pytest.fail("no run with two completed rekeys found")
