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
session layer holds Alice and Bob.  Each endpoint verifies and
decrypts every record it opens, exactly as a peer in another process
must.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
    OPEN_FAILURES,
    RECORD_VERSION,
    RecordDamage,
    SecureRecord,
    _HEADER,
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
    """

    def __init__(
        self,
        keys: ChannelKeys,
        role: str,
        max_sequence: int = DEFAULT_MAX_SEQUENCE,
        replay_window: int = DEFAULT_REPLAY_WINDOW,
        ledger: Optional[NonceLedger] = None,
    ):
        require(role in ("initiator", "responder"), f"unknown role {role!r}")
        require(max_sequence > 0, "max_sequence must be > 0")
        self.role = role
        self.max_sequence = max_sequence
        self.ledger = ledger
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

    def seal(self, plaintext: bytes) -> bytes:
        """Seal one plaintext into wire bytes: a one-record burst.

        Raises :class:`NonceExhaustedError` (with ``sealed == []``) once
        the counter bound is reached -- the caller (the rekey layer) must
        roll the epoch.
        """
        return self.seal_records([plaintext])[0]

    def seal_records(self, payloads: Sequence[bytes]) -> List[bytes]:
        """Seal a burst of payloads; advances the send counter per record.

        The whole burst is witnessed in the ledger as one contiguous run
        and shares one round of attribute lookups.  A payload ``bytes()``
        cannot convert raises before any state changes.  Hitting the
        counter bound mid-burst raises :class:`NonceExhaustedError` with
        the already-sealed records on its ``sealed`` attribute (the
        counter advanced for each).
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
        # Hoisted once per burst: the MAC tagger and the header packer.
        mac_tag = send_keys.mac().tag
        pack_header = _HEADER.pack
        wires: List[bytes] = []
        append_wire = wires.append
        for offset in range(sealable):
            sequence = start + offset
            self._send_sequence = sequence + 1
            payload = payloads[offset]
            length = len(payload)
            keystream = keystream_bytes(
                send_keys, epoch, direction, sequence, length
            )
            body = (
                pack_header(RECORD_VERSION, epoch, direction, sequence, length)
                + xor_bytes(payload, keystream)
            )
            append_wire(body + mac_tag(body))
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
        """
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
    :class:`SecureChannel` endpoints over the same derived keys.

    Args:
        keys: One epoch's traffic keys.
        ledger: Optional shared nonce ledger (both endpoints register).
        max_sequence: Per-endpoint counter bound.
        replay_window: Receive-side window width for both endpoints.
    """

    def __init__(
        self,
        keys: ChannelKeys,
        ledger: Optional[NonceLedger] = None,
        max_sequence: int = DEFAULT_MAX_SEQUENCE,
        replay_window: int = DEFAULT_REPLAY_WINDOW,
    ):
        self.initiator = SecureChannel(
            keys,
            "initiator",
            max_sequence=max_sequence,
            replay_window=replay_window,
            ledger=ledger,
        )
        self.responder = SecureChannel(
            keys,
            "responder",
            max_sequence=max_sequence,
            replay_window=replay_window,
            ledger=ledger,
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
