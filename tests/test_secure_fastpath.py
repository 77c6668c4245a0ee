"""Batched data plane and cached-key fast paths.

The perf rewrite added two kinds of shortcut -- batched
``seal_records``/``open_records`` and per-key caches (primed MAC key,
keystream midstates) -- each promising *exactly* the sequential,
uncached behaviour.  These tests hold every shortcut to that promise:
wire bytes, outcomes, counters, window state and ledger totals must
match the one-record-at-a-time path.
"""

import copy
import hashlib
import hmac as hmac_mod
import pickle

import pytest

from repro.reconciliation.mac import (
    MAC_BYTES,
    PrecomputedMacKey,
    compute_mac,
    mac_key_bytes,
)
from repro.secure import (
    ManagedSecureLink,
    NonceExhaustedError,
    NonceLedger,
    RekeyPolicy,
    SecureLink,
)
from repro.secure.channel import SecureChannel
from repro.secure.kdf import ChannelContext, derive_channel_keys
from repro.utils.bits import bytes_to_bits

MASTER = b"\x77" * 32
ROUNDS = 64
SEARCH = 8

#: A burst mixing the interesting payload shapes.
BURST = [
    b"",
    b"x",
    bytes(31),
    bytes(range(32)),
    b"y" * 33,
    b"z" * 64,
    bytes(i % 251 for i in range(1024)),
]


@pytest.fixture()
def keys():
    return derive_channel_keys(
        MASTER, ChannelContext(session_nonce=b"\x22" * 16)
    )


@pytest.fixture(scope="module")
def established(tiny_pipeline):
    """One confirmed session result to derive epoch-0 keys from."""
    for i in range(SEARCH):
        outcome = tiny_pipeline.establish_key(
            episode=f"fastpath-base-{i}", n_rounds=ROUNDS
        )
        if outcome.success:
            return outcome.session
    pytest.fail(f"no successful establishment in {SEARCH} episodes")


def _state(channel: SecureChannel):
    return (
        channel.send_sequence,
        channel.sealed,
        channel.opened,
        dict(channel.open_failures),
        channel._window.highest,
        channel._window._bitmap,
    )


class TestBatchedParity:
    def test_seal_records_matches_sequential_seals(self, keys):
        batched = SecureChannel(keys, "initiator")
        sequential = SecureChannel(keys, "initiator")
        wires = batched.seal_records(BURST)
        expected = [sequential.seal(payload) for payload in BURST]
        assert wires == expected
        assert _state(batched) == _state(sequential)

    def test_open_records_matches_sequential_opens(self, keys):
        sender = SecureChannel(keys, "initiator")
        wires = sender.seal_records(BURST)
        wires[3] = wires[3][:-1] + bytes([wires[3][-1] ^ 1])  # tamper one
        batched = SecureChannel(keys, "responder")
        sequential = SecureChannel(keys, "responder")
        got = batched.open_records(wires)
        expected = [sequential.open(wire) for wire in wires]
        assert [(o.ok, o.plaintext, o.failure) for o in got] == [
            (o.ok, o.plaintext, o.failure) for o in expected
        ]
        assert _state(batched) == _state(sequential)

    def test_batched_ledger_totals_match_sequential(self, keys):
        ledger_a, ledger_b = NonceLedger(), NonceLedger()
        batched = SecureLink(keys, ledger=ledger_a)
        sequential = SecureLink(keys, ledger=ledger_b)
        for outcome in batched.responder.open_records(
            batched.initiator.seal_records(BURST)
        ):
            assert outcome.ok
        for payload in BURST:
            assert sequential.responder.open(sequential.initiator.seal(payload)).ok
        assert ledger_a.total_seals == ledger_b.total_seals
        assert ledger_a.total_accepts == ledger_b.total_accepts
        assert ledger_a.ok and ledger_b.ok

    def test_seal_records_exhaustion_carries_the_partial_burst(self, keys):
        batched = SecureChannel(keys, "initiator", max_sequence=4)
        sequential = SecureChannel(keys, "initiator", max_sequence=4)
        payloads = [f"m{i}".encode() for i in range(8)]
        with pytest.raises(NonceExhaustedError) as excinfo:
            batched.seal_records(payloads)
        expected = [sequential.seal(p) for p in payloads[:5]]
        with pytest.raises(NonceExhaustedError):
            sequential.seal(payloads[5])
        assert excinfo.value.sealed == expected
        assert batched.send_sequence == sequential.send_sequence == 5
        assert batched.sealed == sequential.sealed == 5

    def test_open_records_stops_at_the_failure_budget(self, keys):
        sender = SecureChannel(keys, "initiator")
        wires = sender.seal_records([f"m{i}".encode() for i in range(6)])
        for index in (1, 3, 4):  # tamper three of six
            wires[index] = wires[index][:-1] + bytes([wires[index][-1] ^ 1])
        receiver = SecureChannel(keys, "responder")
        outcomes = receiver.open_records(wires, max_failures=2)
        # Stops right after the second failure (index 3); record 4 unseen.
        assert len(outcomes) == 4
        assert [o.ok for o in outcomes] == [True, False, True, False]


class TestCachedKeys:
    def test_precomputed_mac_matches_compute_mac(self, keys):
        dk = keys.send_keys("initiator")
        key_bits = bytes_to_bits(dk.mac_key)
        for message in (b"\x00", bytes(64), bytes(range(256)) * 4 + b"!"):
            tag = dk.mac().tag(message)
            assert tag == compute_mac(key_bits, message)
            assert dk.mac().verify(message, tag)
            assert not dk.mac().verify(message, bytes(MAC_BYTES))

    def test_midstates_match_hmac_for_long_keys(self):
        long_key = b"\x5c" * 100  # > the 64-byte HMAC block: hashed first
        primed = PrecomputedMacKey(long_key)
        message = b"long-key message"
        expected = hmac_mod.new(long_key, message, hashlib.sha256).digest()
        assert primed.tag(message) == expected[:MAC_BYTES]

    def test_mac_key_bytes_round_trip(self, keys):
        dk = keys.send_keys("responder")
        assert mac_key_bytes(bytes_to_bits(dk.mac_key)) == dk.mac_key

    def test_direction_keys_pickle_and_deepcopy_round_trip(self, keys):
        dk = keys.send_keys("initiator")
        dk.mac()  # populate both caches before serializing
        dk.keystream_states()
        for clone in (pickle.loads(pickle.dumps(dk)), copy.deepcopy(dk)):
            assert clone == dk
            assert clone.key_id == dk.key_id
            message = b"after the round trip"
            assert clone.mac().tag(message) == dk.mac().tag(message)


class TestLedgerMemory:
    def test_contiguous_sessions_hold_one_run(self):
        ledger = NonceLedger()
        for sequence in range(5000):
            assert ledger.record_seal("k", 0, sequence)
            assert ledger.record_accept("k", 0, sequence)
        assert ledger.total_seals == ledger.total_accepts == 5000
        assert ledger.seal_runs == 1  # O(gaps), not O(records)
        assert ledger.accept_runs == 1
        assert ledger.ok

    def test_batched_run_witnessing_is_one_run(self):
        ledger = NonceLedger()
        assert ledger.record_seal_run("k", 0, 0, 100_000)
        assert ledger.record_seal_run("k", 0, 100_000, 50_000)  # tail-extends
        assert ledger.total_seals == 150_000
        assert ledger.seal_runs == 1
        assert ledger.ok

    def test_gaps_cost_one_run_each_and_coalesce_when_filled(self):
        ledger = NonceLedger()
        for sequence in (0, 1, 2, 4, 5, 10):
            assert ledger.record_seal("k", 0, sequence)
        assert ledger.seal_runs == 3  # [0,2] [4,5] [10,10]
        assert ledger.record_seal("k", 0, 3)  # fills the first gap
        assert ledger.seal_runs == 2  # [0,5] [10,10]

    def test_duplicates_are_reuses_in_both_paths(self):
        ledger = NonceLedger()
        ledger.record_seal("k", 0, 7)
        assert not ledger.record_seal("k", 0, 7)
        assert not ledger.record_seal_run("k", 0, 5, 5)  # 7 collides
        assert [r.sequence for r in ledger.reuses] == [7, 7]
        assert not ledger.ok


class TestManagedLinkBatched:
    def _paired_links(self, tiny_pipeline, established, tag, policy_kwargs):
        """Two managed links whose rekeys replay the same episodes."""
        return [
            ManagedSecureLink(
                tiny_pipeline,
                established,
                episode=f"fastpath-{tag}",
                policy=RekeyPolicy(**policy_kwargs),
                n_rounds=ROUNDS,
            )
            for _ in range(2)
        ]

    def test_batched_seal_deliver_match_sequential_across_rekeys(
        self, tiny_pipeline, established
    ):
        # 5 payloads over a 3-record epoch: exactly one rekey fires
        # mid-burst, and grace_opens=4 covers the 3 old-epoch records
        # still in flight when the burst is delivered afterwards.
        payloads = [f"burst-{i}".encode() for i in range(5)]
        for attempt in range(SEARCH):
            batched, sequential = self._paired_links(
                tiny_pipeline,
                established,
                f"parity-{attempt}",
                dict(max_records_per_epoch=3, grace_opens=4),
            )
            fast_wires = batched.seal_records("initiator", payloads)
            slow_wires = [
                sequential.seal("initiator", p) for p in payloads
            ]
            if batched.closed or sequential.closed:
                continue  # this episode's rekey failed; try another
            assert fast_wires == slow_wires
            assert batched.epoch == sequential.epoch == 1
            assert batched.rekeys_completed == sequential.rekeys_completed == 1
            fast = batched.deliver_records("responder", fast_wires)
            slow = [sequential.deliver("responder", w) for w in slow_wires]
            assert [(o.ok, o.plaintext) for o in fast] == [
                (o.ok, o.plaintext) for o in slow
            ]
            assert all(o.ok for o in fast)
            return
        pytest.fail(f"no episode with successful rekeys in {SEARCH} attempts")

    def test_deliver_records_burns_budget_like_sequential(
        self, tiny_pipeline, established
    ):
        for attempt in range(SEARCH):
            batched, sequential = self._paired_links(
                tiny_pipeline,
                established,
                f"budget-{attempt}",
                dict(decrypt_failure_budget=3),
            )
            garbage = [b"not a record %d" % i for i in range(5)]
            fast = batched.deliver_records("responder", garbage)
            slow = []
            for blob in garbage:
                outcome = sequential.deliver("responder", blob)
                if outcome is None:
                    break
                slow.append(outcome)
            if batched.closed != sequential.closed:
                continue  # a rekey attempt diverged; try another episode
            assert [(o.ok, o.failure) for o in fast] == [
                (o.ok, o.failure) for o in slow
            ]
            assert (
                batched.rekeys_completed == sequential.rekeys_completed
            )
            return
        pytest.fail(f"no deterministic budget episode in {SEARCH} attempts")
