"""Key lifecycle management: epochs, rekey triggers, structured closure.

A traffic key is a consumable.  :class:`RekeyPolicy` declares when one
epoch's keys are spent -- the send counter approaching exhaustion, or a
bounded budget of decrypt failures (a tampering adversary or a desynced
peer) -- and :class:`ManagedSecureLink` executes the lifecycle: each
trigger runs a fresh
:meth:`~repro.core.pipeline.VehicleKeyPipeline.establish_key` under the
same fault plan, retry/backoff policy and adversary the channel lives
with, derives the next epoch's keys with the epoch counter bumped in the
KDF context, and rolls both endpoints over with a bounded grace allowance
so in-flight old-epoch records drain.

The failure contract mirrors the rest of the library: a rekey that cannot
complete (establishment failed under faults, or the rekey budget is
spent) degrades to a **structured channel-closed outcome** -- a
:class:`ChannelCloseReport` with a slug from :data:`CLOSE_REASONS` --
never a silent key mismatch and never an exception out of the data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.secure.channel import DEFAULT_MAX_SEQUENCE, OpenOutcome, SecureLink
from repro.secure.kdf import (
    ChannelContext,
    derive_channel_keys,
    master_secret_from_result,
)
from repro.secure.ledger import NonceLedger
from repro.utils.validation import require

#: Rekey trigger slugs, in reporting order.
TRIGGER_EXHAUSTION = "counter-exhaustion"
TRIGGER_DECRYPT_BUDGET = "decrypt-budget"
REKEY_TRIGGERS = (TRIGGER_EXHAUSTION, TRIGGER_DECRYPT_BUDGET)

#: Closed taxonomy of structured channel closures.
CLOSE_REKEY_FAILED = "rekey-establish-failed"
CLOSE_REKEY_BUDGET = "rekey-attempts-exhausted"
CLOSE_BY_PEER = "closed-by-peer"
CLOSE_REASONS = (CLOSE_REKEY_FAILED, CLOSE_REKEY_BUDGET, CLOSE_BY_PEER)


@dataclass(frozen=True)
class RekeyPolicy:
    """When one epoch's keys are spent and how hard to try replacing them.

    Attributes:
        max_records_per_epoch: Seal-side trigger: an endpoint that has
            sealed this many records under one epoch rekeys before
            sealing the next (strictly before the channel's hard
            ``max_sequence`` bound, so honest traffic never hits
            :class:`~repro.secure.channel.NonceExhaustedError`).
        decrypt_failure_budget: Failed opens tolerated per epoch before a
            rekey is forced (a tampering adversary burns the budget, not
            the plaintext).
        grace_opens: In-flight old-epoch records each endpoint may still
            accept after a rollover before the old epoch is rejected as
            ``epoch-mismatch``.
        max_rekey_attempts: Probing attempts (``max_attempts``) granted
            to each rekey's ``establish_key`` run.
        max_rekeys: Completed rekeys allowed over the link's lifetime;
            the next trigger past the bound closes the channel with
            ``rekey-attempts-exhausted``.  ``None`` is unbounded.
    """

    max_records_per_epoch: int = 4096
    decrypt_failure_budget: int = 8
    grace_opens: int = 4
    max_rekey_attempts: int = 2
    max_rekeys: Optional[int] = None

    def __post_init__(self) -> None:
        require(self.max_records_per_epoch > 0, "max_records_per_epoch must be > 0")
        require(self.decrypt_failure_budget > 0, "decrypt_failure_budget must be > 0")
        require(self.grace_opens >= 0, "grace_opens must be >= 0")
        require(self.max_rekey_attempts >= 1, "max_rekey_attempts must be >= 1")
        if self.max_rekeys is not None:
            require(self.max_rekeys >= 0, "max_rekeys must be >= 0")


@dataclass(frozen=True)
class RekeyEvent:
    """One completed rekey.

    Attributes:
        epoch: The epoch the link rolled *into*.
        trigger: Which :data:`REKEY_TRIGGERS` slug forced it.
        attempts: Probing attempts the establishment consumed.
    """

    epoch: int
    trigger: str
    attempts: int


@dataclass(frozen=True)
class ChannelCloseReport:
    """Why a managed link closed (the structured, never-silent outcome).

    Attributes:
        reason: One of :data:`CLOSE_REASONS`.
        trigger: The rekey trigger that led here, when one did.
        epoch: The epoch the link was in when it closed.
        detail: Human-readable context (e.g. the establishment
            ``failure_reason`` of the failed rekey).
    """

    reason: str
    trigger: Optional[str]
    epoch: int
    detail: str = ""


class ManagedSecureLink:
    """A :class:`~repro.secure.channel.SecureLink` with a key lifecycle.

    Args:
        pipeline: The trained pipeline rekeys establish through.
        result: The completed (confirmed) session result the first
            epoch's keys derive from.
        episode: Episode label of that establishment; rekey episodes are
            labelled ``{episode}-rekey-{epoch}``.
        policy: The :class:`RekeyPolicy`.
        ledger: Optional global nonce ledger threaded through every epoch.
        fault_plan: Link faults rekey establishments run under.
        retry_policy: ARQ retry/backoff policy for rekey establishments
            (the PR-1 machinery; ``None`` is the reliable transport).
        adversary_plan: Active adversary attacking rekey establishments.
        n_rounds: Probing rounds per rekey establishment.

    Epoch 0's KDF context binds the result's session nonce and the
    pipeline's fingerprint.  Rekeys keep that channel identity and bump
    only the epoch counter -- the fresh master secret of each rekey
    establishment does the cryptographic separation, the counter keeps
    old-epoch records rejectable.  Each endpoint has the channel's
    default ``max_sequence`` and replay window.
    """

    def __init__(
        self,
        pipeline,
        result,
        episode: str,
        policy: Optional[RekeyPolicy] = None,
        ledger: Optional[NonceLedger] = None,
        fault_plan=None,
        retry_policy=None,
        adversary_plan=None,
        n_rounds: Optional[int] = None,
    ):
        self.pipeline = pipeline
        self.episode = episode
        self.policy = policy if policy is not None else RekeyPolicy()
        require(
            self.policy.max_records_per_epoch <= DEFAULT_MAX_SEQUENCE,
            "max_records_per_epoch must not exceed the channel max_sequence",
        )
        self.context = ChannelContext(
            session_nonce=result.session_nonce,
            pipeline_fingerprint=pipeline.fingerprint(),
        )
        self.ledger = ledger
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.adversary_plan = adversary_plan
        self.n_rounds = n_rounds
        self.link = SecureLink(
            derive_channel_keys(master_secret_from_result(result), self.context),
            ledger=ledger,
        )
        self.close_report: Optional[ChannelCloseReport] = None
        #: Completed rekeys, in order.
        self.rekey_events: List[RekeyEvent] = []
        self._epoch_decrypt_failures = 0

    # -- state -----------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the link has been closed (see :attr:`close_report`)."""
        return self.close_report is not None

    @property
    def epoch(self) -> int:
        """The link's current epoch."""
        return self.link.epoch

    @property
    def rekeys_completed(self) -> int:
        """Rekeys that completed over the link's lifetime."""
        return len(self.rekey_events)

    def close(self, reason: str = CLOSE_BY_PEER, trigger: Optional[str] = None,
              detail: str = "") -> ChannelCloseReport:
        """Close the link with a structured report (idempotent)."""
        require(reason in CLOSE_REASONS, f"unknown close reason {reason!r}")
        if self.close_report is None:
            self.close_report = ChannelCloseReport(
                reason=reason, trigger=trigger, epoch=self.epoch, detail=detail
            )
        return self.close_report

    # -- rekeying --------------------------------------------------------------
    def _rekey(self, trigger: str) -> bool:
        """Run one rekey; on failure the link closes structurally."""
        if (
            self.policy.max_rekeys is not None
            and self.rekeys_completed >= self.policy.max_rekeys
        ):
            self.close(
                CLOSE_REKEY_BUDGET,
                trigger,
                f"rekey budget of {self.policy.max_rekeys} already spent",
            )
            return False
        next_epoch = self.epoch + 1
        outcome = self.pipeline.establish_key(
            episode=f"{self.episode}-rekey-{next_epoch}",
            n_rounds=self.n_rounds,
            fault_plan=self.fault_plan,
            retry_policy=self.retry_policy,
            adversary_plan=self.adversary_plan,
            max_attempts=self.policy.max_rekey_attempts,
        )
        if not outcome.success:
            self.close(
                CLOSE_REKEY_FAILED,
                trigger,
                f"rekey establishment failed: {outcome.failure_reason}",
            )
            return False
        self.context = self.context.next_epoch()
        new_keys = derive_channel_keys(
            master_secret_from_result(outcome.session), self.context
        )
        self.link.rollover(new_keys, grace_opens=self.policy.grace_opens)
        self._epoch_decrypt_failures = 0
        self.rekey_events.append(
            RekeyEvent(epoch=next_epoch, trigger=trigger, attempts=outcome.attempts)
        )
        return True

    def _due_trigger(self, role: str) -> Optional[str]:
        """The rekey trigger due before ``role`` seals, if any."""
        endpoint = self.link.endpoint(role)
        if endpoint.send_sequence >= self.policy.max_records_per_epoch:
            return TRIGGER_EXHAUSTION
        return None

    # -- data path -------------------------------------------------------------
    def epoch_capacity(self, role: str) -> int:
        """Records ``role`` may seal before the records trigger forces a rekey."""
        endpoint = self.link.endpoint(role)
        return min(
            self.policy.max_records_per_epoch - endpoint.send_sequence,
            endpoint.sequence_remaining,
        )

    def seal(self, role: str, plaintext: bytes) -> Optional[bytes]:
        """Seal one payload as ``role``: a one-record :meth:`seal_records`.

        Returns the wire bytes, or ``None`` when the link is (or just
        became) closed -- in which case :attr:`close_report` says why.
        """
        wires = self.seal_records(role, [plaintext])
        return wires[0] if wires else None

    def seal_records(self, role: str, payloads: Sequence[bytes]) -> List[bytes]:
        """Seal a burst as ``role``; rekeys at every trigger boundary.

        Chunks the burst at the policy's per-epoch capacity, so the wire
        records and lifecycle events are exactly those of sealing the
        payloads one :meth:`seal` call at a time.  Never raises
        on the data path: the constructor bounds the per-epoch capacity
        by the channel's ``max_sequence``, so the hard counter bound is
        never reached.  Returns the records sealed before the link
        closed, if it did -- :attr:`close_report` then says why; a
        still-open link returns one record per payload.
        """
        wires: List[bytes] = []
        index = 0
        while index < len(payloads):
            if self.closed:
                break
            trigger = self._due_trigger(role)
            if trigger is not None:
                if not self._rekey(trigger):
                    break
                continue
            capacity = self.epoch_capacity(role)
            if capacity <= 0:
                # The policy trigger fires on the next loop turn.
                continue
            chunk = payloads[index : index + capacity]
            wires.extend(self.link.endpoint(role).seal_records(chunk))
            index += len(chunk)
        return wires

    def deliver(self, role: str, data: bytes) -> Optional[OpenOutcome]:
        """Open one wire record at ``role``: a one-record :meth:`deliver_records`.

        Returns the structured :class:`~repro.secure.channel.OpenOutcome`
        (``plaintext`` only on success), or ``None`` when the link is
        closed.
        """
        outcomes = self.deliver_records(role, [data])
        return outcomes[0] if outcomes else None

    def deliver_records(
        self, role: str, blobs: Sequence[bytes]
    ) -> List[OpenOutcome]:
        """Open a burst at ``role``'s endpoint, in order.

        Each failed open burns the epoch's decrypt-failure budget;
        exhausting it forces a rekey, and a failed rekey closes the link
        structurally.  The channel's batched open runs with the
        remaining budget as its stop cap, so the outcomes and any forced
        rekey land exactly where a sequential :meth:`deliver` loop would
        put them.  Returns the outcomes of the blobs processed before the
        link closed (if it did); a blob delivered after a mid-burst
        rekey is opened under the new epoch, as in the sequential case.
        """
        outcomes: List[OpenOutcome] = []
        index = 0
        while index < len(blobs):
            if self.closed:
                break
            remaining_budget = (
                self.policy.decrypt_failure_budget - self._epoch_decrypt_failures
            )
            chunk = self.link.endpoint(role).open_records(
                blobs[index:], max_failures=remaining_budget
            )
            outcomes.extend(chunk)
            index += len(chunk)
            failures = sum(1 for outcome in chunk if not outcome.ok)
            if failures:
                self._epoch_decrypt_failures += failures
                if (
                    self._epoch_decrypt_failures
                    >= self.policy.decrypt_failure_budget
                ):
                    self._rekey(TRIGGER_DECRYPT_BUDGET)
        return outcomes
