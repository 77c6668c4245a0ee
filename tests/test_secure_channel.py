"""Stateful channel endpoints: nonce discipline, replay, epochs, ledger."""

import pytest

from repro.exceptions import ConfigurationError
from repro.secure.channel import (
    NonceExhaustedError,
    ReplayWindow,
    SecureChannel,
    SecureLink,
)
from repro.secure.kdf import ChannelContext, derive_channel_keys
from repro.secure.ledger import NonceLedger
from repro.secure.records import (
    FAILURE_EPOCH,
    FAILURE_EXHAUSTED,
    FAILURE_REPLAY,
)

MASTER = b"\x5a" * 32
NONCE = b"\x11" * 16


def make_keys(epoch: int = 0):
    return derive_channel_keys(
        MASTER, ChannelContext(session_nonce=NONCE, epoch=epoch)
    )


class TestReplayWindow:
    def test_fresh_window_accepts_anything_once(self):
        window = ReplayWindow(size=8)
        assert not window.seen(0)
        window.mark(0)
        assert window.seen(0)
        assert not window.seen(1)

    def test_out_of_order_within_window_tracked_individually(self):
        window = ReplayWindow(size=8)
        window.mark(5)
        window.mark(2)
        assert window.seen(5) and window.seen(2)
        assert not window.seen(3)
        window.mark(3)
        assert window.seen(3)

    def test_fallen_off_the_back_is_conservatively_seen(self):
        window = ReplayWindow(size=4)
        window.mark(10)
        # 10 - 6 = 4 >= size: too old to tell, treated as replayed.
        assert window.seen(6)
        assert not window.seen(7)

    def test_huge_forward_jump_does_not_blow_up_the_bitmap(self):
        window = ReplayWindow(size=16)
        window.mark(0)
        window.mark(10**9)  # shift is clamped to the window size
        assert window.highest == 10**9
        assert window.seen(10**9)
        assert window.seen(0)  # ancient: off the back
        assert window._bitmap < (1 << 16)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            ReplayWindow(size=0)


class TestSecureChannelBasics:
    def test_bidirectional_round_trip_and_counters(self):
        link = SecureLink(make_keys())
        to_bob = link.initiator.seal(b"ping")
        to_alice = link.responder.seal(b"pong")
        assert link.responder.open(to_bob).plaintext == b"ping"
        assert link.initiator.open(to_alice).plaintext == b"pong"
        assert link.initiator.sealed == link.initiator.opened == 1
        assert link.responder.sealed == link.responder.opened == 1
        assert link.initiator.total_open_failures == 0

    def test_sequences_are_monotonic_per_direction(self):
        channel = SecureChannel(make_keys(), "initiator")
        assert channel.send_sequence == 0
        channel.seal(b"a")
        channel.seal(b"b")
        assert channel.send_sequence == 2

    def test_replay_is_rejected_exactly_once_delivered(self):
        link = SecureLink(make_keys())
        wire = link.initiator.seal(b"once only")
        assert link.responder.open(wire).ok
        replayed = link.responder.open(wire)
        assert not replayed.ok
        assert replayed.failure == FAILURE_REPLAY
        assert replayed.plaintext is None
        assert link.responder.open_failures[FAILURE_REPLAY] == 1

    def test_out_of_order_delivery_within_window_is_fine(self):
        link = SecureLink(make_keys(), replay_window=8)
        wires = [link.initiator.seal(f"m{i}".encode()) for i in range(4)]
        for wire in reversed(wires):
            assert link.responder.open(wire).ok
        # ...but none of them a second time.
        assert link.responder.open(wires[1]).failure == FAILURE_REPLAY

    def test_unknown_role_is_refused(self):
        with pytest.raises(ConfigurationError):
            SecureChannel(make_keys(), "eve")


class TestNonceExhaustion:
    def test_sender_refuses_to_wrap(self):
        channel = SecureChannel(make_keys(), "initiator", max_sequence=2)
        for i in range(3):  # sequences 0, 1, 2
            channel.seal(b"x")
        assert channel.sequence_remaining == 0
        with pytest.raises(NonceExhaustedError):
            channel.seal(b"one too many")
        assert channel.sealed == 3

    def test_receiver_rejects_past_its_own_bound(self):
        sender = SecureChannel(make_keys(), "initiator", max_sequence=100)
        receiver = SecureChannel(make_keys(), "responder", max_sequence=3)
        wire = sender.seal(b"high", force_sequence=7)
        outcome = receiver.open(wire)
        assert not outcome.ok
        assert outcome.failure == FAILURE_EXHAUSTED
        assert outcome.plaintext is None


class TestNonceLedger:
    def test_ledger_witnesses_honest_traffic_cleanly(self):
        ledger = NonceLedger()
        link = SecureLink(make_keys(), ledger=ledger)
        for i in range(3):
            assert link.responder.open(link.initiator.seal(b"m")).ok
        assert ledger.total_seals == 3
        assert ledger.total_accepts == 3
        assert ledger.ok

    def test_forced_counter_reuse_is_caught_at_seal(self):
        # The force_sequence test hook is the deliberate misuse: a sender
        # that repeats a counter is flagged by the ledger even though the
        # record itself is perfectly well-formed.
        ledger = NonceLedger()
        channel = SecureChannel(make_keys(), "initiator", ledger=ledger)
        channel.seal(b"a", force_sequence=9)
        channel.seal(b"b", force_sequence=9)
        assert not ledger.ok
        (reuse,) = ledger.reuses
        assert reuse.kind == "seal"
        assert reuse.sequence == 9

    def test_disabled_replay_window_is_caught_at_accept(self, monkeypatch):
        # A replay window that never reports a replay is the deliberately
        # broken channel: the double-accept the window would have stopped
        # lands in the ledger as an accept reuse.
        monkeypatch.setattr(ReplayWindow, "seen", lambda self, sequence: False)
        ledger = NonceLedger()
        link = SecureLink(make_keys(), ledger=ledger)
        wire = link.initiator.seal(b"twice")
        assert link.responder.open(wire).ok
        assert link.responder.open(wire).ok  # the window would have said no
        assert not ledger.ok
        (reuse,) = ledger.reuses
        assert reuse.kind == "accept"


class TestEpochRouting:
    def test_rollover_resets_counters_and_keys(self):
        link = SecureLink(make_keys())
        link.initiator.seal(b"old epoch")
        link.rollover(make_keys(epoch=1))
        assert link.epoch == 1
        assert link.initiator.send_sequence == 0
        wire = link.initiator.seal(b"new epoch")
        assert link.responder.open(wire).plaintext == b"new epoch"

    def test_rollover_must_advance_by_exactly_one(self):
        link = SecureLink(make_keys())
        with pytest.raises(ConfigurationError):
            link.rollover(make_keys(epoch=2))

    def test_grace_drains_bounded_in_flight_records(self):
        link = SecureLink(make_keys())
        in_flight = [link.initiator.seal(f"late-{i}".encode()) for i in range(3)]
        link.rollover(make_keys(epoch=1), grace_opens=2)
        # Two old-epoch records drain through the grace allowance...
        assert link.responder.open(in_flight[0]).ok
        assert link.responder.open(in_flight[1]).ok
        # ...the third finds the allowance spent.
        stale = link.responder.open(in_flight[2])
        assert not stale.ok
        assert stale.failure == FAILURE_EPOCH
        assert stale.plaintext is None

    def test_zero_grace_rejects_old_epoch_immediately(self):
        link = SecureLink(make_keys())
        wire = link.initiator.seal(b"too late")
        link.rollover(make_keys(epoch=1), grace_opens=0)
        outcome = link.responder.open(wire)
        assert outcome.failure == FAILURE_EPOCH

    def test_rolled_past_epoch_is_mismatch_after_two_rollovers(self):
        link = SecureLink(make_keys())
        wire = link.initiator.seal(b"epoch zero")
        link.rollover(make_keys(epoch=1), grace_opens=4)
        link.rollover(make_keys(epoch=2), grace_opens=4)
        # Epoch 0 is older than the in-grace epoch 1: mismatch, no MAC try.
        assert link.responder.open(wire).failure == FAILURE_EPOCH

    def test_replay_across_rollover_grace_is_still_replay(self):
        link = SecureLink(make_keys())
        wire = link.initiator.seal(b"drain me")
        assert link.responder.open(wire).ok
        link.rollover(make_keys(epoch=1), grace_opens=4)
        # The old epoch's replay window is retained with its keys.
        assert link.responder.open(wire).failure == FAILURE_REPLAY


class TestSecureLinkFromResult:
    class _Result:
        session_nonce = NONCE
        final_key_alice = MASTER
        keys_match = True

    def test_link_derives_from_a_confirmed_result(self):
        link = SecureLink.from_result(self._Result())
        wire = link.initiator.seal(b"derived")
        assert link.responder.open(wire).plaintext == b"derived"

    def test_custom_context_overrides_the_default(self):
        context = ChannelContext(
            session_nonce=NONCE, initiator_id="dev-1", responder_id="server"
        )
        bound = SecureLink.from_result(self._Result(), context=context)
        plain = SecureLink.from_result(self._Result())
        wire = bound.initiator.seal(b"bound")
        # The identity-bound link cannot talk to the default-context link.
        assert not plain.responder.open(wire).ok
        assert bound.responder.open(wire).ok

    def test_endpoint_accessor(self):
        link = SecureLink.from_result(self._Result())
        assert link.endpoint("initiator") is link.initiator
        assert link.endpoint("responder") is link.responder
        with pytest.raises(ConfigurationError):
            link.endpoint("eve")
