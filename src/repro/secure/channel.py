"""Stateful secure-channel endpoints: nonce discipline over the records.

:class:`SecureChannel` is one party's endpoint.  It owns the monotonic
send counter (sealing past the counter bound raises -- the *sender* can
never reuse a nonce), a DTLS-style sliding replay window on the receive
side (a replayed or duplicated record is rejected as ``nonce-replayed``,
never delivered twice), and the epoch routing that makes rekey rollover
safe (current-epoch records verify under current keys; previous-epoch
records drain through a bounded grace allowance; anything older is
``epoch-mismatch``; an epoch never issued can only fail its MAC).

:meth:`SecureChannel.open` **never raises and never leaks**: every
outcome is an :class:`OpenOutcome` whose ``failure`` is one of the closed
:data:`~repro.secure.records.OPEN_FAILURES` slugs, and ``plaintext`` is
``None`` on every one of them.  Decryption happens only after the MAC
verified and the nonce checks passed, so there is no code path on which
attacker-controlled bytes are decrypted and then "unreleased".

The data plane is batched: :meth:`SecureChannel.seal_records` and
:meth:`SecureChannel.open_records` process a burst with per-record state
semantics identical to the one-at-a-time calls while amortizing header
packing, ledger witnessing and attribute lookups across the burst.

:class:`SecureLink` bundles the two endpoints of one simulated channel --
the reproduction holds both parties in one process, exactly as the
session layer holds Alice and Bob.  In that topology the link threads a
:class:`RecordMemo` through both endpoints: the opener may recognize a
record as byte-identical to what its in-process peer just sealed and
reuse the sealed plaintext instead of re-deriving the keystream.  This
is the same simulation-sharing move the probing layer makes (one
channel-stack evaluation per direction) and it never changes an outcome:
seal and open are deterministic functions, so byte-equal inputs have
byte-equal results, and any record that is *not* byte-identical to the
sealed original -- tampered, replayed after acceptance, foreign -- falls
back to full cryptographic verification.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ProtocolError
from repro.secure.kdf import ChannelContext, ChannelKeys, derive_channel_keys
from repro.secure.kdf import DirectionKeys, master_secret_from_result
from repro.secure.ledger import NonceLedger
from repro.secure.records import (
    DIRECTION_I2R,
    DIRECTION_R2I,
    FAILURE_AUTH,
    FAILURE_EPOCH,
    FAILURE_EXHAUSTED,
    FAILURE_REPLAY,
    FAILURE_TRUNCATED,
    HEADER_BYTES,
    OPEN_FAILURES,
    RECORD_OVERHEAD,
    RECORD_VERSION,
    RecordDamage,
    SecureRecord,
    STREAM_LABEL,
    TAG_BYTES,
    _BLOCK_BYTES,
    _COUNTERS,
    _HEADER,
    _grow_counters,
    keystream_bytes,
    parse_record,
    verify_record,
    xor_bytes,
)
from repro.utils.validation import require

#: Default highest sequence number either side will seal or accept.
DEFAULT_MAX_SEQUENCE = 2**20

#: Default replay-window width (sequence numbers tracked behind the highest).
DEFAULT_REPLAY_WINDOW = 64

#: Default sealed-record entries a :class:`RecordMemo` retains.
DEFAULT_MEMO_CAPACITY = 1024


class NonceExhaustedError(ProtocolError):
    """The send counter hit its bound; sealing more records is refused.

    This is the sender-side guarantee behind "no nonce reuse, ever": a
    channel that cannot advance its counter refuses to seal rather than
    wrap.  The rekey layer treats it as a trigger, not an error.  When
    raised from :meth:`SecureChannel.seal_records` the ``sealed``
    attribute carries the wire records sealed before the bound was hit
    (exactly the records a one-at-a-time caller would already hold).
    """

    def __init__(self, message: str, sealed: Optional[List[bytes]] = None):
        super().__init__(message)
        self.sealed: List[bytes] = sealed if sealed is not None else []


@dataclass
class ReplayWindow:
    """Sliding anti-replay window over received sequence numbers.

    Tracks the highest authenticated sequence seen and a bitmap of the
    ``size`` numbers behind it.  A sequence ahead of the highest is new;
    one inside the window is new only if its bit is clear; one that fell
    off the back is treated as replayed (the conservative DTLS rule).

    Attributes:
        size: Window width in sequence numbers.
        highest: Highest sequence accepted so far (-1 before any).
    """

    size: int = DEFAULT_REPLAY_WINDOW
    highest: int = -1
    _bitmap: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        require(self.size > 0, "replay window size must be > 0")

    def seen(self, sequence: int) -> bool:
        """Whether ``sequence`` was already accepted (or is too old to tell)."""
        if sequence > self.highest:
            return False
        offset = self.highest - sequence
        if offset >= self.size:
            return True
        return bool((self._bitmap >> offset) & 1)

    def mark(self, sequence: int) -> None:
        """Record ``sequence`` as accepted."""
        if sequence > self.highest:
            shift = sequence - self.highest if self.highest >= 0 else self.size
            self._bitmap = ((self._bitmap << min(shift, self.size)) | 1) & (
                (1 << self.size) - 1
            )
            self.highest = sequence
        else:
            offset = self.highest - sequence
            if offset < self.size:
                self._bitmap |= 1 << offset


@dataclass(frozen=True)
class OpenOutcome:
    """The structured result of one :meth:`SecureChannel.open` call.

    Attributes:
        ok: Whether the record verified and its plaintext was released.
        plaintext: The decrypted payload; ``None`` on *every* failure --
            the harness's ``no-plaintext-on-auth-failure`` invariant
            checks exactly this field.
        failure: ``None`` on success, else one of the closed
            :data:`~repro.secure.records.OPEN_FAILURES` slugs.
        record: The parsed record when parsing succeeded (diagnostics);
            ``None`` when the bytes were structurally damaged.
    """

    ok: bool
    plaintext: Optional[bytes] = None
    failure: Optional[str] = None
    record: Optional[SecureRecord] = None


def _fast_record(
    epoch: int, direction: int, sequence: int, ciphertext: bytes, tag: bytes
) -> SecureRecord:
    """Build a :class:`SecureRecord` without the frozen-dataclass __init__.

    Semantically identical to the constructor (same fields, same
    equality/hash); skipping ``object.__setattr__`` per field roughly
    halves the cost, which is material at data-plane record rates.
    """
    record = object.__new__(SecureRecord)
    attrs = record.__dict__
    attrs["epoch"] = epoch
    attrs["direction"] = direction
    attrs["sequence"] = sequence
    attrs["ciphertext"] = ciphertext
    attrs["tag"] = tag
    return record


def _fast_outcome(plaintext: bytes, record: SecureRecord) -> OpenOutcome:
    """Build a success :class:`OpenOutcome` bypassing the dataclass init."""
    outcome = object.__new__(OpenOutcome)
    attrs = outcome.__dict__
    attrs["ok"] = True
    attrs["plaintext"] = plaintext
    attrs["failure"] = None
    attrs["record"] = record
    return outcome


class RecordMemo:
    """Sealed-record share table between the endpoints of one process.

    The keystream (and hence the whole record) is a pure function of
    ``(key_id, epoch, direction, sequence)`` and the plaintext, so when
    both endpoints live in one simulation the opener can recognize a
    delivered record as byte-identical to what its peer sealed and skip
    re-deriving the keystream -- the same "one evaluation per direction"
    sharing the probing layer performs.  **Correctness never rests on
    the memo**: a lookup only short-circuits when the received bytes
    equal the sealed original exactly (MAC equality follows because the
    MAC is a function of those bytes); every other delivery -- tampered,
    truncated, spliced, replayed, evicted -- takes the full
    cryptographic path.  Entries are consumed on match and evicted FIFO
    past ``capacity``, bounding memory for arbitrarily long sessions.

    Attributes:
        capacity: Maximum retained entries.
        hits: Deliveries served from the memo.
        misses: Lookups that fell back to the cryptographic path.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int = DEFAULT_MEMO_CAPACITY):
        require(capacity > 0, "memo capacity must be > 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[str, int, int, int], Tuple[bytes, bytes]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def put(
        self,
        key_id: str,
        epoch: int,
        direction: int,
        sequence: int,
        wire: bytes,
        plaintext: bytes,
    ) -> None:
        """Remember one sealed record's wire bytes and plaintext."""
        entries = self._entries
        entries[(key_id, epoch, direction, sequence)] = (wire, plaintext)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def match(
        self, key_id: str, epoch: int, direction: int, sequence: int, data: bytes
    ) -> Optional[bytes]:
        """The sealed plaintext iff ``data`` is the sealed record, verbatim.

        Consumes the entry on a match; returns ``None`` (and counts a
        miss) whenever the entry is absent or the bytes differ in any
        way, leaving the decision to the cryptographic path.  A
        mismatched entry is kept -- the unmodified original may still
        arrive after a tampered copy.
        """
        key = (key_id, epoch, direction, sequence)
        entry = self._entries.pop(key, None)
        if entry is None:
            self.misses += 1
            return None
        if entry[0] != data:
            self._entries[key] = entry
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]


class SecureChannel:
    """One endpoint of an established secure channel.

    Args:
        keys: The epoch's traffic keys (both directions; the endpoint
            picks its send/receive halves from ``role``).
        role: ``"initiator"`` or ``"responder"``.
        max_sequence: Highest sequence number this endpoint will seal or
            accept; sealing past it raises :class:`NonceExhaustedError`,
            receiving past it fails as ``nonce-exhausted``.
        replay_window: Receive-side anti-replay window width.
        ledger: Optional :class:`~repro.secure.ledger.NonceLedger` that
            witnesses every seal and accept (the chaos harness threads
            one global ledger through all sessions of a sweep).
        memo: Optional :class:`RecordMemo` shared with the in-process
            peer endpoint (see :class:`SecureLink`); ``None`` -- the
            default, and the only correct choice when the peer is a
            separate process -- always takes the full cryptographic
            path.
    """

    def __init__(
        self,
        keys: ChannelKeys,
        role: str,
        max_sequence: int = DEFAULT_MAX_SEQUENCE,
        replay_window: int = DEFAULT_REPLAY_WINDOW,
        ledger: Optional[NonceLedger] = None,
        memo: Optional[RecordMemo] = None,
    ):
        require(role in ("initiator", "responder"), f"unknown role {role!r}")
        require(max_sequence > 0, "max_sequence must be > 0")
        self.role = role
        self.max_sequence = max_sequence
        self.ledger = ledger
        self.memo = memo
        self._keys = keys
        self._epoch = keys.epoch
        self._send_direction = (
            DIRECTION_I2R if role == "initiator" else DIRECTION_R2I
        )
        self._recv_direction = (
            DIRECTION_R2I if role == "initiator" else DIRECTION_I2R
        )
        self._send_keys = keys.send_keys(role)
        self._recv_keys = keys.recv_keys(role)
        self._send_sequence = 0
        self._window_size = replay_window
        self._window = ReplayWindow(replay_window)
        self._previous: Optional[ChannelKeys] = None
        self._previous_recv_keys: Optional[DirectionKeys] = None
        self._previous_window: Optional[ReplayWindow] = None
        self._grace_opens_left = 0
        #: Records sealed by this endpoint.
        self.sealed = 0
        #: Records opened (verified and released) by this endpoint.
        self.opened = 0
        #: Failed opens by taxonomy slug (zero-filled, closed key set).
        self.open_failures: Dict[str, int] = {slug: 0 for slug in OPEN_FAILURES}

    @property
    def epoch(self) -> int:
        """The current send/receive epoch."""
        return self._epoch

    @property
    def keys(self) -> ChannelKeys:
        """The current epoch's traffic keys."""
        return self._keys

    @property
    def send_sequence(self) -> int:
        """The next sequence number this endpoint would seal with."""
        return self._send_sequence

    @property
    def sequence_remaining(self) -> int:
        """How many more records this endpoint may seal before exhaustion."""
        return max(0, self.max_sequence + 1 - self._send_sequence)

    @property
    def total_open_failures(self) -> int:
        """Failed opens across all taxonomy slugs."""
        return sum(self.open_failures.values())

    def _seal_wire(self, plaintext: bytes, sequence: int) -> bytes:
        """Seal one payload under ``sequence`` into its wire encoding."""
        send_keys = self._send_keys
        epoch = self._epoch
        direction = self._send_direction
        keystream = keystream_bytes(
            send_keys, epoch, direction, sequence, len(plaintext)
        )
        ciphertext = xor_bytes(plaintext, keystream)
        header = _HEADER.pack(
            RECORD_VERSION, epoch, direction, sequence, len(ciphertext)
        )
        body = header + ciphertext
        wire = body + send_keys.mac().tag(body)
        if self.memo is not None:
            self.memo.put(
                send_keys.key_id, epoch, direction, sequence, wire, plaintext
            )
        self.sealed += 1
        return wire

    def seal(self, plaintext: bytes, force_sequence: Optional[int] = None) -> bytes:
        """Seal one plaintext into wire bytes; advances the send counter.

        Raises :class:`NonceExhaustedError` once the counter bound is
        reached -- the caller (the rekey layer) must roll the epoch.

        Args:
            plaintext: Payload bytes to protect.
            force_sequence: **Test hook.**  Seal under a specific
                sequence number without touching the counter -- the
                deliberate-misuse tests use it to prove the nonce ledger
                catches a sender that repeats a counter.  Production
                paths never pass it.
        """
        if force_sequence is not None:
            sequence = force_sequence
        else:
            if self._send_sequence > self.max_sequence:
                raise NonceExhaustedError(
                    f"send counter exhausted at {self.max_sequence} "
                    f"(epoch {self.epoch}, role {self.role}); rekey required"
                )
            sequence = self._send_sequence
            self._send_sequence += 1
        if self.ledger is not None:
            self.ledger.record_seal(
                self._send_keys.key_id, self._send_direction, sequence
            )
        return self._seal_wire(bytes(plaintext), sequence)

    def seal_records(self, payloads: Sequence[bytes]) -> List[bytes]:
        """Seal a burst of payloads; wire bytes and end state are exactly
        those of sealing the burst one :meth:`seal` call at a time.

        The whole burst is witnessed in the ledger as one contiguous run
        and shares one round of attribute lookups.  Hitting the counter
        bound mid-burst raises :class:`NonceExhaustedError` with the
        already-sealed records on its ``sealed`` attribute (a sequential
        caller would hold them too -- the counter advanced for each).
        """
        payloads = [bytes(payload) for payload in payloads]
        start = self._send_sequence
        sealable = min(len(payloads), max(0, self.max_sequence + 1 - start))
        send_keys = self._send_keys
        direction = self._send_direction
        epoch = self._epoch
        if sealable and self.ledger is not None:
            self.ledger.record_seal_run(
                send_keys.key_id, direction, start, sealable
            )
        # Hoisted once per burst: the key's midstates, MAC tagger, header
        # packer and the constant label/epoch/direction keystream prefix.
        # The inner loop is keystream_bytes() with its per-record setup
        # amortized; the equivalence tests pin byte-identity of the two.
        inner, outer = send_keys.keystream_states()
        copy_inner = inner.copy
        copy_outer = outer.copy
        mac_tag = send_keys.mac().tag
        pack_header = _HEADER.pack
        counters = _COUNTERS
        head = STREAM_LABEL + epoch.to_bytes(4, "big") + bytes((direction,))
        memo = self.memo
        memo_put = None if memo is None else memo.put
        key_id = send_keys.key_id
        wires: List[bytes] = []
        append_wire = wires.append
        for offset in range(sealable):
            sequence = start + offset
            self._send_sequence = sequence + 1
            payload = payloads[offset]
            length = len(payload)
            if length:
                prefix = copy_inner()
                prefix.update(head + sequence.to_bytes(8, "big"))
                n_blocks = -(-length // _BLOCK_BYTES)
                if n_blocks > len(counters):
                    _grow_counters(n_blocks)
                copy_prefix = prefix.copy
                blocks = []
                append_block = blocks.append
                for counter in counters[:n_blocks]:
                    block = copy_prefix()
                    block.update(counter)
                    closing = copy_outer()
                    closing.update(block.digest())
                    append_block(closing.digest())
                stream = b"".join(blocks)
                if len(stream) != length:
                    stream = stream[:length]
                ciphertext = xor_bytes(payload, stream)
            else:
                ciphertext = b""
            body = (
                pack_header(RECORD_VERSION, epoch, direction, sequence, length)
                + ciphertext
            )
            wire = body + mac_tag(body)
            if memo_put is not None:
                memo_put(key_id, epoch, direction, sequence, wire, payload)
            append_wire(wire)
        self.sealed += sealable
        if sealable < len(payloads):
            raise NonceExhaustedError(
                f"send counter exhausted at {self.max_sequence} "
                f"(epoch {self.epoch}, role {self.role}); rekey required",
                sealed=wires,
            )
        return wires

    def _fail(self, slug: str, record: Optional[SecureRecord]) -> OpenOutcome:
        """Count and return one taxonomized open failure (no plaintext)."""
        self.open_failures[slug] += 1
        return OpenOutcome(ok=False, plaintext=None, failure=slug, record=record)

    def _route_epoch(self, epoch: int):
        """Route a record's epoch to keys and replay window, or a failure.

        Returns ``(recv_keys, window, is_previous, failure_slug)``.  The
        routing rule keeps the taxonomy honest: the in-grace previous
        epoch verifies under its own retained keys; an older (rolled-past)
        epoch is ``epoch-mismatch`` without consulting a MAC; an epoch
        *newer than anything issued* cannot name real keys, so it is
        checked under the current keys and can only fail as
        ``auth-failed`` -- a forged header field is an authentication
        failure, not a protocol state.
        """
        if epoch == self._epoch:
            return self._recv_keys, self._window, False, None
        if (
            self._previous is not None
            and epoch == self._previous.epoch
            and self._grace_opens_left > 0
        ):
            return self._previous_recv_keys, self._previous_window, True, None
        if epoch < self._epoch:
            return None, None, False, FAILURE_EPOCH
        return self._recv_keys, self._window, False, None

    def open(self, data: bytes) -> OpenOutcome:
        """Open one wire record; never raises, never leaks plaintext.

        The check order is fixed: structure, epoch routing, MAC, counter
        bound, replay window, and only then decryption.  Every rejection
        maps to exactly one slug of the closed taxonomy, and the replay
        window is only advanced by *authenticated* records, so a forger
        cannot burn window state.

        When a shared :class:`RecordMemo` holds this exact record (the
        one-process link topology), the MAC check and decryption resolve
        by byte equality with the sealed original -- same outcome, same
        state transitions, no recomputed keystream.  Any deviation falls
        through to the full path below.
        """
        memo = self.memo
        if memo is not None and len(data) >= RECORD_OVERHEAD:
            version, epoch, direction, sequence, ct_len = _HEADER.unpack_from(data)
            if (
                version == RECORD_VERSION
                and direction == self._recv_direction
                and epoch == self._epoch
                and len(data) == RECORD_OVERHEAD + ct_len
                and sequence <= self.max_sequence
                and not self._window.seen(sequence)
            ):
                plaintext = memo.match(
                    self._recv_keys.key_id, epoch, direction, sequence, data
                )
                if plaintext is not None:
                    self._window.mark(sequence)
                    if self.ledger is not None:
                        self.ledger.record_accept(
                            self._recv_keys.key_id, direction, sequence
                        )
                    self.opened += 1
                    return _fast_outcome(
                        plaintext,
                        _fast_record(
                            epoch,
                            direction,
                            sequence,
                            data[HEADER_BYTES : len(data) - TAG_BYTES],
                            data[len(data) - TAG_BYTES :],
                        ),
                    )
        try:
            record = parse_record(data)
        except RecordDamage:
            return self._fail(FAILURE_TRUNCATED, None)
        recv_keys, window, is_previous, failure = self._route_epoch(record.epoch)
        if failure is not None:
            return self._fail(failure, record)
        if record.direction != self._recv_direction or not verify_record(
            recv_keys, record
        ):
            # A reflected own-direction record carries the peer's MAC
            # under the *other* key; it is a forgery from this endpoint's
            # point of view and fails authentication like any other.
            return self._fail(FAILURE_AUTH, record)
        if record.sequence > self.max_sequence:
            return self._fail(FAILURE_EXHAUSTED, record)
        if window.seen(record.sequence):
            return self._fail(FAILURE_REPLAY, record)
        plaintext = keystream_bytes(
            recv_keys,
            record.epoch,
            record.direction,
            record.sequence,
            len(record.ciphertext),
        )
        plaintext = xor_bytes(record.ciphertext, plaintext)
        window.mark(record.sequence)
        if is_previous:
            self._grace_opens_left -= 1
            if self._grace_opens_left <= 0:
                self._previous = None
                self._previous_recv_keys = None
                self._previous_window = None
        if self.ledger is not None:
            self.ledger.record_accept(
                recv_keys.key_id, record.direction, record.sequence
            )
        self.opened += 1
        return OpenOutcome(ok=True, plaintext=plaintext, record=record)

    def open_records(
        self,
        blobs: Sequence[bytes],
        max_failures: Optional[int] = None,
    ) -> List[OpenOutcome]:
        """Open a burst of wire records, in order.

        Returns one :class:`OpenOutcome` per processed blob.  With
        ``max_failures`` set, processing stops *after* the outcome that
        brings the running failure count to the cap -- exactly where a
        sequential caller enforcing a decrypt budget would stop -- so
        the returned list may be shorter than ``blobs``.
        """
        open_one = self.open
        outcomes: List[OpenOutcome] = []
        append = outcomes.append
        failures = 0
        for blob in blobs:
            outcome = open_one(blob)
            append(outcome)
            if not outcome.ok:
                failures += 1
                if max_failures is not None and failures >= max_failures:
                    break
        return outcomes

    def rollover(self, new_keys: ChannelKeys, grace_opens: int = 0) -> None:
        """Install the next epoch's keys; optionally drain the old epoch.

        The send counter and replay window reset -- safe precisely
        because the new epoch's keys are unrelated.  With
        ``grace_opens > 0`` the outgoing epoch's *receive* state is
        retained so that many in-flight records may still drain; after
        the allowance (or a zero allowance) old-epoch records fail as
        ``epoch-mismatch``.
        """
        require(
            new_keys.epoch == self.epoch + 1,
            f"rollover must advance the epoch by 1 "
            f"(current {self.epoch}, offered {new_keys.epoch})",
        )
        require(grace_opens >= 0, "grace_opens must be >= 0")
        if grace_opens > 0:
            self._previous = self._keys
            self._previous_recv_keys = self._recv_keys
            self._previous_window = self._window
            self._grace_opens_left = grace_opens
        else:
            self._previous = None
            self._previous_recv_keys = None
            self._previous_window = None
            self._grace_opens_left = 0
        self._keys = new_keys
        self._epoch = new_keys.epoch
        self._send_keys = new_keys.send_keys(self.role)
        self._recv_keys = new_keys.recv_keys(self.role)
        self._send_sequence = 0
        self._window = ReplayWindow(self._window_size)


class SecureLink:
    """Both endpoints of one simulated secure channel.

    The reproduction holds both parties in one process (exactly as the
    session layer holds Alice and Bob), so a link is a pair of
    :class:`SecureChannel` endpoints over the same derived keys sharing
    one :class:`RecordMemo` (see the module docstring; ``share_records=
    False`` opts out and forces every open down the cryptographic path).

    Args:
        keys: One epoch's traffic keys.
        ledger: Optional shared nonce ledger (both endpoints register).
        max_sequence: Per-endpoint counter bound.
        replay_window: Receive-side window width for both endpoints.
        share_records: Whether the endpoints share a :class:`RecordMemo`.
    """

    def __init__(
        self,
        keys: ChannelKeys,
        ledger: Optional[NonceLedger] = None,
        max_sequence: int = DEFAULT_MAX_SEQUENCE,
        replay_window: int = DEFAULT_REPLAY_WINDOW,
        share_records: bool = True,
    ):
        self.memo = RecordMemo() if share_records else None
        self.initiator = SecureChannel(
            keys,
            "initiator",
            max_sequence=max_sequence,
            replay_window=replay_window,
            ledger=ledger,
            memo=self.memo,
        )
        self.responder = SecureChannel(
            keys,
            "responder",
            max_sequence=max_sequence,
            replay_window=replay_window,
            ledger=ledger,
            memo=self.memo,
        )

    @classmethod
    def from_result(
        cls,
        result,
        context: Optional[ChannelContext] = None,
        **kwargs,
    ) -> "SecureLink":
        """Build a link from a completed session result.

        Derives the epoch's keys from the result's confirmed final key
        and its session nonce; ``context`` overrides the default context
        (ids, fingerprint, epoch) when the caller binds more state.
        """
        if context is None:
            context = ChannelContext(session_nonce=result.session_nonce)
        keys = derive_channel_keys(master_secret_from_result(result), context)
        return cls(keys, **kwargs)

    def endpoint(self, role: str) -> SecureChannel:
        """The endpoint playing ``role``."""
        require(role in ("initiator", "responder"), f"unknown role {role!r}")
        return self.initiator if role == "initiator" else self.responder

    @property
    def epoch(self) -> int:
        """The link's current epoch (both endpoints agree by construction)."""
        return self.initiator.epoch

    def rollover(self, new_keys: ChannelKeys, grace_opens: int = 0) -> None:
        """Advance both endpoints to the next epoch together."""
        self.initiator.rollover(new_keys, grace_opens=grace_opens)
        self.responder.rollover(new_keys, grace_opens=grace_opens)
