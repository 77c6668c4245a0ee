"""Secure-channel microbenchmarks: record throughput and key agility.

No pipeline training here -- the channel layer is pure stdlib crypto
over already-derived keys, so this module is cheap enough for every CI
run.  It measures the costs a deployment plans around: KDF derivations
per channel open, sealed+opened records per second at small and large
payloads, the tamper-rejection path (which burns MAC verification but
must never decrypt), and epoch rollover.  Timings land in
``BENCH_secure.json`` at the repo root.

The ``seal_open`` and ``tamper_reject`` entries carry honest
before/after speedups: the "before" loop replays the pre-optimization
data plane (the frozen :mod:`tests.oracles.secure_records` crypto
inside the same per-record channel flow -- parse, verify, replay window,
decrypt, outcome) in the *same run*, so the ratio cancels machine noise.
The "after" side opens every record cryptographically, as a peer in a
separate process must.
``scripts/check_bench_regression.py`` gates those speedups at its
tolerance; the remaining entries stay absolute-cost trackers
(``speedup: null``) whose absolute seconds do not transfer across
runners.  Loops use best-of-reps to shave scheduler noise.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.secure import (
    ChannelContext,
    SecureLink,
    derive_channel_keys,
)
from repro.secure.channel import OpenOutcome, ReplayWindow
from repro.secure.records import parse_record
from tests.oracles import secure_records as reference

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_secure.json"

MASTER = b"\x5a" * 32
NONCE = b"\x11" * 16

#: Records per batched call on the optimized path (the server's drain cap).
BATCH = 64

#: Collected by the tests below, written once at module teardown.
_ENTRIES = {}


def _record(name, elapsed_s, before_s=None, **extra):
    speedup = None if before_s is None else round(before_s / elapsed_s, 2)
    _ENTRIES[name] = {
        "before_s": None if before_s is None else round(before_s, 6),
        "after_s": round(elapsed_s, 6),
        "speedup": speedup,
        **extra,
    }
    return _ENTRIES[name]


@pytest.fixture(scope="module", autouse=True)
def write_results():
    """Persist everything the module measured to ``BENCH_secure.json``."""
    yield
    if not _ENTRIES:
        return
    payload = {
        "benchmark": "secure-channel-records",
        "units": "seconds per normalized loop, best of reps",
        "before": "per-record hmac.new keystream + per-byte XOR (reference)",
        "after": "PBKDF2/midstate keystream, word XOR, batched seal/open",
        "numpy": np.__version__,
        "entries": dict(sorted(_ENTRIES.items())),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n[benchmarks] wrote {RESULTS_PATH} with {len(_ENTRIES)} entries")


def _context(epoch: int = 0) -> ChannelContext:
    return ChannelContext(
        session_nonce=NONCE, pipeline_fingerprint="bench", epoch=epoch
    )


def _best_of(reps, run):
    """Best wall-clock of ``reps`` runs of ``run()`` (fresh state each)."""
    best = float("inf")
    for _ in range(reps):
        best = min(best, run())
    return best


def _reference_pair_loop(keys, plaintext, n):
    """One rep of the pre-optimization data plane, per-record.

    Replays what ``SecureChannel`` did before the rewrite, with the
    frozen reference crypto: seal+encode on one side; parse, direction
    check, MAC verify, replay window, decrypt, window mark and outcome
    construction on the other.  Returns elapsed seconds.
    """
    send = keys.send_keys("initiator")
    recv = keys.recv_keys("responder")
    window = ReplayWindow()
    start = time.perf_counter()
    for sequence in range(n):
        wire = reference.seal_record(send, 0, 0, sequence, plaintext).encode()
        record = parse_record(wire)
        assert record.direction == 0
        assert reference.verify_record(recv, record)
        assert not window.seen(record.sequence)
        plain = reference.decrypt_record(recv, record)
        window.mark(record.sequence)
        outcome = OpenOutcome(ok=True, plaintext=plain, record=record)
    elapsed = time.perf_counter() - start
    assert outcome.ok and outcome.plaintext == plaintext
    return elapsed


def _batched_pair_loop(keys, plaintext, n):
    """One rep of the optimized data plane: batched seal+open on a link."""
    link = SecureLink(keys)
    payloads = [plaintext] * BATCH
    start = time.perf_counter()
    for _ in range(n // BATCH):
        outcomes = link.responder.open_records(
            link.initiator.seal_records(payloads)
        )
    elapsed = time.perf_counter() - start
    assert all(o.ok for o in outcomes)
    assert link.responder.opened == (n // BATCH) * BATCH
    return elapsed


def test_kdf_derivation_cost():
    """Four-key channel derivation: the per-open (and per-rekey) KDF bill."""
    n = 200
    start = time.perf_counter()
    for epoch in range(n):
        keys = derive_channel_keys(MASTER, _context(epoch))
    elapsed = time.perf_counter() - start
    assert keys.epoch == n - 1
    _record(
        f"kdf_derive@{n}_epochs",
        elapsed,
        derives_per_sec=round(n / elapsed, 1),
    )


@pytest.mark.parametrize(
    "payload_bytes, n_after, n_before, floor",
    [(64, 4096, 1024, 2.0), (1024, 2048, 512, 4.5)],
)
def test_seal_open_throughput(payload_bytes, n_after, n_before, floor):
    """Data-plane records per second, honest before/after in one run.

    ``floor`` is an in-test sanity bound; the honest measured speedup is
    committed to ``BENCH_secure.json`` where CI gates it at the
    regression checker's tolerance.  The 1 KiB floor is 0.75x the lowest
    of five runs of the PBKDF2 keystream (6.0-7.8x on a 2-vCPU host);
    the per-block midstate keystream read 3.8-5.1x there, mostly under
    it, so a record path that falls back to per-block hashing fails here
    in most runs.
    """
    keys = derive_channel_keys(MASTER, _context())
    plaintext = bytes(payload_bytes)
    after = _best_of(3, lambda: _batched_pair_loop(keys, plaintext, n_after))
    before = _best_of(
        3, lambda: _reference_pair_loop(keys, plaintext, n_before)
    )
    # The before loop is shorter (it is ~8x slower per record); scale
    # it to the after loop's record count so the entry compares equal
    # work and the speedup is a pure per-record ratio.
    after_s = after
    before_s = before * (n_after / n_before)
    entry = _record(
        f"seal_open@{payload_bytes}B",
        after_s,
        before_s=before_s,
        records_per_sec=round(n_after / after_s, 1),
        batch=BATCH,
    )
    assert entry["speedup"] >= floor


def test_tamper_rejection_cost():
    """The attacked path: MAC-reject throughput with zero decryptions."""
    keys = derive_channel_keys(MASTER, _context())
    n = 2000

    link = SecureLink(keys)
    tampered = bytearray(link.initiator.seal(b"victim record " * 4))
    tampered[-1] ^= 0x01
    blob = bytes(tampered)

    def run_after():
        fresh = SecureLink(keys)
        wire = bytearray(fresh.initiator.seal(b"victim record " * 4))
        wire[-1] ^= 0x01
        attacked = bytes(wire)
        start = time.perf_counter()
        for _ in range(n):
            outcome = fresh.responder.open(attacked)
        elapsed = time.perf_counter() - start
        assert not outcome.ok and outcome.plaintext is None
        assert fresh.responder.open_failures["auth-failed"] == n
        return elapsed

    def run_before():
        recv = keys.recv_keys("responder")
        record = parse_record(blob)
        start = time.perf_counter()
        for _ in range(n):
            rejected = not reference.verify_record(recv, parse_record(blob))
        elapsed = time.perf_counter() - start
        assert rejected
        return elapsed

    after_s = _best_of(3, run_after)
    before_s = _best_of(3, run_before)
    entry = _record(
        f"tamper_reject@{n}_records",
        after_s,
        before_s=before_s,
        rejects_per_sec=round(n / after_s, 1),
    )
    assert entry["speedup"] >= 1.5


def test_rollover_latency():
    """Epoch rollover (derive next epoch + install on both endpoints)."""
    link = SecureLink(derive_channel_keys(MASTER, _context()))
    n = 100
    start = time.perf_counter()
    for epoch in range(1, n + 1):
        link.rollover(derive_channel_keys(MASTER, _context(epoch)), grace_opens=4)
    elapsed = time.perf_counter() - start
    assert link.epoch == n
    # The rolled channel still carries traffic.
    assert link.responder.open(link.initiator.seal(b"post-roll")).ok
    _record(
        f"rollover@{n}_epochs",
        elapsed,
        rollovers_per_sec=round(n / elapsed, 1),
    )
