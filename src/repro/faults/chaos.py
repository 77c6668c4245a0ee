"""Chaos invariant harness: random faults x attacks vs. safety invariants.

Deterministic fault tests prove that one specific attack produces one
specific structured failure.  The chaos harness attacks the
*composition*, in three seeded sweeps over one core:

``library`` -- :func:`run_chaos`
    Random :class:`~repro.faults.plan.FaultPlan` x
    :class:`~repro.faults.adversary.AdversaryPlan` x
    :class:`~repro.faults.retry.RetryPolicy` combinations (including
    duty-cycled regional plans) through
    :meth:`~repro.core.pipeline.VehicleKeyPipeline.establish_key`.
    Sessions that establish a key continue into a secure-channel *data
    phase* (:mod:`repro.secure`) under a random
    :class:`~repro.secure.rekey.RekeyPolicy` while the adversary mounts
    payload attacks (ciphertext bit-flips, record replay, truncation,
    cross-session splicing).
``server`` -- :func:`run_server_chaos` (``repro chaos --server``)
    A real :class:`~repro.server.server.KeyEstablishmentServer` on a
    loopback port against a seeded mix of honest and misbehaving clients
    (mid-phase disconnects, slow-loris frames, corrupt and oversized
    frames, duplicate session ids, overload bursts).
``restart`` -- :func:`run_restart_chaos` (``repro chaos --restart``)
    The server forked into a child armed with seeded
    :mod:`~repro.server.crashpoints`, SIGKILLed mid-sweep at the armed
    site and restarted against the same write-ahead journal while the
    clients reconnect and resume; the journal itself is the witness.

The core is :data:`INVARIANTS`, the registry that maps every invariant
to the sweeps that check it; :class:`ChaosReport`, the one report type
all three sweeps return, whose :meth:`~ChaosReport.violate` refuses a
name its sweep does not check; and one function per shared check
(:func:`_check_outcome` on every establishment outcome,
:func:`_classify_clients` on every served client, :func:`_report_reuses`
on every nonce ledger).  The invariants, in registry order:

``silent-key-mismatch``
    ``success=True`` always means both parties hold the same confirmed
    key and the state machine did not abort.
``key-after-failed-verification``
    An aborted or confirmation-failed session never releases key bytes.
``uncaught-exception``
    Attacker-controlled input never raises out of ``establish_key`` or
    the data phase; the restart sweep also files a journaled violation
    that names no restart invariant here.
``retry-budget-exceeded``
    No probing round ever spends more retries than the policy allows.
``duty-cycle-violated``
    Under a regional plan, accumulated backoff time is never less than
    the band-mandated minimum for the retries actually spent.
``undetected-replay``
    A replayed (stale-nonce) syndrome that cannot have been dropped in
    flight always drives the session into an abort.
``no-decrypt-under-mismatched-keys``
    A record that this session's channel never sealed (spliced from
    another session, or mutated in flight) never opens successfully.
``no-nonce-reuse-ever``
    A global per-key nonce ledger witnesses every seal and accept across
    the whole sweep -- including rekeys -- and never sees a duplicate.
``no-plaintext-on-auth-failure``
    A failed open never releases plaintext, whatever the failure slug.
``rekey-preserves-continuity``
    Untouched records always round-trip, canaries sealed right after a
    rekey decrypt on the first try, and a channel that stops always
    carries a structured close report.
``session-leak-after-reap``
    After the final drain no session is still registered -- reaping and
    disconnect handling reclaim every record.
``tick-stall``
    An honest client that started establishment always receives its
    terminal frame; a wedged or hostile peer never stalls the tick loop
    for everyone else.
``shed-not-hang``
    Every client interaction ends in a structured verdict (result,
    taxonomized abort, or rejection carrying ``retry_after_s``) or a
    clean close -- never a client-side timeout.
``silent-degraded-session``
    Every served session that used the quantizer-fallback degraded mode
    is counted in server metrics; degradation is never silent.
``no-nonce-reuse-across-restart``
    No ``(key, direction, sequence)`` triple is ever sealed or accepted
    twice across a crash: journaled seal high-water marks never regress,
    resumed channels always advance their epoch, and neither the server
    child's ledger nor the parent-side client ledger witnesses a reuse.
``no-duplicate-result-delivery``
    One resumption token maps to one key, forever: every journaled
    result outcome for a token carries the same key digest, a delivered
    result is never later orphan-aborted, and re-resuming a delivered
    result re-answers the identical digest.
``no-orphan-session-after-recovery``
    Every session admitted before a crash holds a terminal outcome once
    recovery completes (``recovered-after-crash`` when the crash caught
    it mid-flight), and the final drain leaves no session registered.

Any violation is recorded with its seed and session index, so a failure
in CI reproduces locally with one command (``repro chaos --seed N``).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.scenario import ScenarioName, scenario_config
from repro.core.pipeline import PipelineConfig, VehicleKeyPipeline
from repro.core.statemachine import ABORT_RECOVERED
from repro.faults.adversary import AdversaryPlan, build_adversary
from repro.faults.plan import (
    FaultPlan,
    LossConfig,
    MessageFaultConfig,
    RegisterCorruptionConfig,
)
from repro.faults.retry import RetryPolicy
from repro.lora.regional import EU433, EU868, UNRESTRICTED
from repro.probing.features import FeatureConfig
from repro.secure import ManagedSecureLink, NonceLedger, RekeyPolicy
from repro.secure.rekey import CLOSE_REASONS
from repro.server.client import (
    ClientOutcome,
    DeviceClient,
    Endpoint,
    _run_secure_behavior,
    run_behavior,
)
from repro.server.crashpoints import CRASHPOINTS, SITES
from repro.server.journal import JOURNAL_FILENAME, replay_journal
from repro.server.registry import ModelRegistry
from repro.server.server import KeyEstablishmentServer, ServerConfig
from repro.utils.artifact import write_atomically
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_one_of, require_positive

#: Every invariant, in reporting order, mapped to the sweeps that check it.
INVARIANTS: Dict[str, Tuple[str, ...]] = {
    "silent-key-mismatch": ("library", "server", "restart"),
    "key-after-failed-verification": ("library", "server", "restart"),
    "uncaught-exception": ("library", "restart"),
    "retry-budget-exceeded": ("library",),
    "duty-cycle-violated": ("library",),
    "undetected-replay": ("library",),
    "no-decrypt-under-mismatched-keys": ("library",),
    "no-nonce-reuse-ever": ("library", "server"),
    "no-plaintext-on-auth-failure": ("library", "server"),
    "rekey-preserves-continuity": ("library", "server", "restart"),
    "session-leak-after-reap": ("server",),
    "tick-stall": ("server",),
    "shed-not-hang": ("server", "restart"),
    "silent-degraded-session": ("server",),
    "no-nonce-reuse-across-restart": ("restart",),
    "no-duplicate-result-delivery": ("restart",),
    "no-orphan-session-after-recovery": ("restart",),
}

#: The three sweeps, each a value of :attr:`ChaosReport.sweep`.
SWEEPS = ("library", "server", "restart")

#: Numerical slack for the duty-cycle time accounting.
_TIME_EPS = 1e-9


def random_fault_plan(rng: np.random.Generator) -> FaultPlan:
    """One seeded random fault plan (sometimes the null plan)."""
    if rng.random() < 0.25:
        return FaultPlan.none()
    loss = LossConfig(
        rate=float(rng.uniform(0.0, 0.35)),
        mean_burst=float(rng.uniform(1.0, 5.0)),
        snr_dependent=bool(rng.random() < 0.3),
    )
    register = RegisterCorruptionConfig(
        probability=float(rng.uniform(0.0, 0.15)) if rng.random() < 0.4 else 0.0,
        burst_symbols=int(rng.integers(1, 5)),
        magnitude_db=float(rng.uniform(5.0, 30.0)),
    )
    messages = MessageFaultConfig(
        drop_rate=float(rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else 0.0,
        duplicate_rate=float(rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else 0.0,
        reorder_rate=float(rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else 0.0,
    )
    return FaultPlan(loss=loss, register=register, messages=messages)


def random_adversary_plan(rng: np.random.Generator) -> AdversaryPlan:
    """One seeded random attack plan (sometimes no attacker at all)."""
    if rng.random() < 0.25:
        return AdversaryPlan.none()
    return AdversaryPlan(
        probe_replay_rate=float(rng.uniform(0.0, 0.2)) if rng.random() < 0.5 else 0.0,
        probe_injection_rate=(
            float(rng.uniform(0.0, 0.2)) if rng.random() < 0.5 else 0.0
        ),
        injection_rssi_dbm=float(rng.uniform(-90.0, -40.0)),
        jamming_rate=float(rng.uniform(0.0, 0.25)) if rng.random() < 0.5 else 0.0,
        jamming_mean_burst=float(rng.uniform(1.0, 4.0)),
        syndrome_tamper_rate=(
            float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        ),
        syndrome_replay_rate=(
            float(rng.uniform(0.0, 1.0)) if rng.random() < 0.4 else 0.0
        ),
        syndrome_spoof_rate=(
            float(rng.uniform(0.0, 1.0)) if rng.random() < 0.4 else 0.0
        ),
        confirmation_tamper=bool(rng.random() < 0.2),
        record_bitflip_rate=float(rng.uniform(0.0, 0.5)) if rng.random() < 0.5 else 0.0,
        record_replay_rate=float(rng.uniform(0.0, 0.5)) if rng.random() < 0.5 else 0.0,
        record_truncate_rate=(
            float(rng.uniform(0.0, 0.4)) if rng.random() < 0.4 else 0.0
        ),
        record_splice_rate=float(rng.uniform(0.0, 0.4)) if rng.random() < 0.4 else 0.0,
    )


def random_retry_policy(rng: np.random.Generator) -> RetryPolicy:
    """One seeded random ARQ policy, sometimes duty-cycle constrained."""
    regional = [None, UNRESTRICTED, EU433, EU868][int(rng.integers(0, 4))]
    return RetryPolicy(
        max_retries=int(rng.integers(0, 5)),
        timeout_s=float(rng.uniform(0.01, 0.1)),
        backoff_base_s=float(rng.uniform(0.01, 0.1)),
        backoff_factor=float(rng.uniform(1.0, 3.0)),
        max_backoff_s=float(rng.uniform(0.5, 3.0)),
        jitter_fraction=float(rng.uniform(0.0, 0.5)),
        regional_plan=regional,
    )


def random_rekey_policy(rng: np.random.Generator) -> RekeyPolicy:
    """One seeded random key-lifecycle policy for the data phase.

    Epoch limits are often tiny so sweeps actually exercise rekeying;
    ``max_rekeys`` is occasionally zero so the rekey-budget close path
    gets traffic too.
    """
    return RekeyPolicy(
        max_records_per_epoch=(
            int(rng.integers(3, 12)) if rng.random() < 0.6 else 4096
        ),
        decrypt_failure_budget=int(rng.integers(2, 7)),
        grace_opens=int(rng.integers(0, 5)),
        max_rekey_attempts=2,
        max_rekeys=int(rng.integers(0, 4)) if rng.random() < 0.3 else None,
    )


@dataclass(frozen=True)
class ChaosViolation:
    """One broken safety invariant.

    Attributes:
        invariant: Which invariant from :data:`INVARIANTS` was violated.
        session: Session index within the sweep (combine with the seed to
            reproduce).
        seed: The sweep seed the session derived from.
        detail: Human-readable description of what went wrong.
    """

    invariant: str
    session: int
    seed: int
    detail: str


@dataclass
class ChaosReport:
    """Aggregated verdict of one chaos sweep, whichever sweep ran.

    A counter the sweep does not measure keeps its zero default; the
    *Served* (both served sweeps), *Server* and *Restart* notes mark the
    counters only those sweeps fill.

    Attributes:
        sweep: The sweep that produced the report, one of
            :data:`SWEEPS`; it selects the invariants the report counts
            and accepts.
        n_sessions: Sessions (served sweeps: client interactions)
            executed.
        seed: Sweep seed; session or client ``i`` derives from
            ``(seed, i)``, and restart generation ``g``'s crash plan from
            ``(seed, 7, g)``.
        violations: Every broken invariant, in discovery order.
        successes: Sessions that established a confirmed key (served
            sweeps: result frames reporting one).
        aborts: Sessions whose final attempt ended in a structured abort
            (served sweeps: clients answered with a taxonomized abort
            frame).
        abort_reasons: Abort-slug histogram over final attempts.
        failure_reasons: ``failure_reason`` histogram over all sessions.
        attacked_sessions: Sessions that faced a non-null adversary plan.
        faulted_sessions: Sessions that faced a non-null fault plan.
        degraded_sessions: Sessions served in a degraded mode (the
            InferenceGuard's quantizer fallback; server sweep: per server
            metrics) -- a counted observation, so degradation under chaos
            is never silent.
        secured_sessions: Successful sessions that ran a secure-channel
            data phase (served sweeps: clients that completed one).
        records_delivered: Wire blobs (legitimate and attacked) delivered
            into channels across all data phases.
        payload_failures: Open-failure-slug histogram over the data
            phases (every slug from a closed taxonomy).
        rekeys_completed: Epoch rollovers completed across all channels.
        channels_closed: Channels that ended in a structured close.
        close_reasons: Close-reason histogram over closed channels.
        nonce_reuses: Duplicate (key, direction, sequence) events the
            sweep's nonce ledger witnessed (must be zero).
        behaviors: *Served.* How many clients ran each behavior.
        client_kinds: *Served.* Histogram of terminal client-outcome
            kinds.
        results: *Served.* Clients that received an establishment result
            frame.
        rejections: *Served.* Clients shed with a final structured
            rejection.
        metrics: *Served.* The server's metrics snapshot (restart: the
            final generation's journaled drain snapshot).
        drain_delivered: *Server.* Sessions whose verdict the final drain
            delivered.
        drain_aborted: *Server.* Unstarted sessions the drain aborted
            with ``server-draining``.
        leaked_sessions: *Server.* Sessions still registered after the
            drain (must be zero).
        restarts: *Restart.* Armed generations the sweep planned.
        kills: *Restart.* Server children actually SIGKILLed by a
            crashpoint.
        generations: *Restart.* Server generations that ran (kills + 1
            when every armed crashpoint fired).
        crash_plans: *Restart.* The seeded ``site -> countdown`` plan per
            generation (empty for unarmed generations).
        unexpected_exits: *Restart.* Child exit codes other than the
            crashpoint's SIGKILL or a clean drain (each is also a
            violation).
        resumed_results: *Restart.* Results delivered on a resumed
            connection.
        recovered_aborts: *Restart.* Clients answered
            ``recovered-after-crash``.
        resume_probes: *Restart.* Extra idempotency resumes after a
            delivered result (each must re-answer the identical key
            digest).
        journal_records: *Restart.* Records the final journal replayed
            to.
        recoveries: *Restart.* Recovery passes witnessed in the journal.
        orphans_recovered: *Restart.* Orphaned sessions recovery aborted.
    """

    sweep: str = "library"
    n_sessions: int = 0
    seed: int = 0
    violations: List[ChaosViolation] = field(default_factory=list)
    successes: int = 0
    aborts: int = 0
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    failure_reasons: Dict[str, int] = field(default_factory=dict)
    attacked_sessions: int = 0
    faulted_sessions: int = 0
    degraded_sessions: int = 0
    secured_sessions: int = 0
    records_delivered: int = 0
    payload_failures: Dict[str, int] = field(default_factory=dict)
    rekeys_completed: int = 0
    channels_closed: int = 0
    close_reasons: Dict[str, int] = field(default_factory=dict)
    nonce_reuses: int = 0
    behaviors: Dict[str, int] = field(default_factory=dict)
    client_kinds: Dict[str, int] = field(default_factory=dict)
    results: int = 0
    rejections: int = 0
    metrics: Dict[str, object] = field(default_factory=dict)
    drain_delivered: int = 0
    drain_aborted: int = 0
    leaked_sessions: int = 0
    restarts: int = 0
    kills: int = 0
    generations: int = 0
    crash_plans: List[Dict[str, int]] = field(default_factory=list)
    unexpected_exits: List[int] = field(default_factory=list)
    resumed_results: int = 0
    recovered_aborts: int = 0
    resume_probes: int = 0
    journal_records: int = 0
    recoveries: int = 0
    orphans_recovered: int = 0

    def __post_init__(self) -> None:
        require_one_of(self.sweep, SWEEPS, "sweep")

    @property
    def ok(self) -> bool:
        """Whether every invariant held across the whole sweep."""
        return not self.violations

    def violation_counts(self) -> Dict[str, int]:
        """Per-invariant violation counts over this sweep's invariants.

        Zero-filled from :data:`INVARIANTS` for :attr:`sweep` only, in
        registry order, so a report never lists an invariant its sweep
        cannot raise.
        """
        counts = {
            name: 0 for name, sweeps in INVARIANTS.items() if self.sweep in sweeps
        }
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def violate(self, invariant: str, session: int, detail: str) -> None:
        """Record one broken invariant, stamped with the sweep seed.

        Raises:
            ValueError: ``invariant`` is not registered for this sweep.
        """
        if self.sweep not in INVARIANTS.get(invariant, ()):
            raise ValueError(
                f"{invariant!r} is not an invariant of the {self.sweep} sweep"
            )
        self.violations.append(
            ChaosViolation(invariant, session, self.seed, detail)
        )


def _check_outcome(report: ChaosReport, outcome, session: int) -> None:
    """The key-release checks every sweep runs on every outcome.

    ``success=True`` must mean a matching confirmed key, and an aborted
    or confirmation-failed session must not release key bytes.
    """
    result = outcome.session
    if outcome.success and (
        not result.keys_match
        or result.abort is not None
        or result.confirmed is False
    ):
        report.violate(
            "silent-key-mismatch",
            session,
            "success=True without a matching confirmed key "
            f"(abort={result.abort}, confirmed={result.confirmed})",
        )
    if (result.abort is not None or result.confirmed is False) and (
        result.final_key_alice is not None or result.final_key_bob is not None
    ):
        report.violate(
            "key-after-failed-verification",
            session,
            f"abort={result.abort} confirmed={result.confirmed} "
            "but key material was released",
        )


def _check_invariants(
    report: ChaosReport,
    outcome,
    policy: RetryPolicy,
    fault_plan: FaultPlan,
    airtime_s: float,
    session: int,
) -> None:
    """Every establishment invariant one completed library session must hold."""
    _check_outcome(report, outcome, session)
    if (
        outcome.retry_budget_remaining is not None
        and outcome.retry_budget_remaining < 0
    ):
        report.violate(
            "retry-budget-exceeded",
            session,
            f"worst round spent {outcome.max_round_retries} retries, "
            f"policy allows {outcome.retry_limit_per_round}",
        )
    if policy.regional_plan is not None and outcome.total_retries > 0:
        floor = outcome.total_retries * policy.min_retry_delay_s(airtime_s)
        if outcome.total_backoff_s < floor - _TIME_EPS:
            report.violate(
                "duty-cycle-violated",
                session,
                f"{outcome.total_retries} retries backed off only "
                f"{outcome.total_backoff_s:.6f}s; regional floor is "
                f"{floor:.6f}s",
            )
    events = outcome.adversary_events or {}
    # A replayed syndrome can only vanish in flight if the message channel
    # drops packets; otherwise its stale nonce must have reached Alice and
    # aborted the session (possibly on an earlier, recovered attempt).
    replay_observable = fault_plan.messages.drop_rate == 0.0
    if (
        events.get("syndromes_replayed", 0) > 0
        and replay_observable
        and not outcome.aborted
        and outcome.aborted_attempts == 0
    ):
        report.violate(
            "undetected-replay",
            session,
            f"{events['syndromes_replayed']} stale-nonce syndromes were "
            "delivered but no attempt aborted",
        )


def _report_reuses(report: ChaosReport, invariant: str, reuses: Sequence) -> None:
    """File each ledger-witnessed nonce reuse as an ``invariant`` violation."""
    report.nonce_reuses += len(reuses)
    for reuse in reuses:
        report.violate(
            invariant,
            -1,
            f"duplicate {reuse.kind} of sequence {reuse.sequence} "
            f"({reuse.direction}) under key {reuse.key_id}",
        )


#: The two channel endpoints and who receives what each seals.
_ROLES = ("initiator", "responder")
_PEER = {"initiator": "responder", "responder": "initiator"}


def _payload_canary(
    link: ManagedSecureLink,
    legit: set,
    history: List[bytes],
    label: bytes,
    report: ChaosReport,
) -> Optional[str]:
    """Round-trip one canary in each direction; the failure detail or None.

    Sealing the canary may itself trigger (and complete) another rekey;
    that is fine -- the invariant is that whatever epoch the canary was
    sealed under, it opens first try.
    """
    for sender in _ROLES:
        plaintext = label + sender.encode()
        wire = link.seal(sender, plaintext)
        if wire is None:
            return None  # structured close; checked by the caller
        legit.add(wire)
        history.append(wire)
        result = link.deliver(_PEER[sender], wire)
        if result is None:
            return None
        report.records_delivered += 1
        if not result.ok or result.plaintext != plaintext:
            return (
                f"post-rekey canary from {sender} failed "
                f"(failure={result.failure!r})"
            )
    return None


def _run_payload_phase(
    pipeline: VehicleKeyPipeline,
    outcome,
    rng: np.random.Generator,
    fault_plan: FaultPlan,
    retry_policy: RetryPolicy,
    adversary_plan: AdversaryPlan,
    ledger: NonceLedger,
    foreign_pool: List[bytes],
    session_index: int,
    report: ChaosReport,
) -> None:
    """Drive one successful session's secure-channel data phase.

    Both endpoints exchange AEAD records under a random
    :class:`RekeyPolicy` while the session's adversary mounts payload
    attacks; every delivery is checked against the payload invariants.
    ``foreign_pool`` supplies records sealed by *earlier* sessions for
    cross-session splicing, and receives one of this session's records
    for later sessions to splice.
    """
    seed = report.seed
    policy = random_rekey_policy(rng)
    link = ManagedSecureLink(
        pipeline,
        outcome.session,
        f"chaos-{seed}-{session_index}",
        policy=policy,
        ledger=ledger,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        adversary_plan=adversary_plan,
    )
    adversary = None
    if adversary_plan.attacks_payload:
        payload_seed = int(rng.integers(0, 2**63 - 1))
        adversary = build_adversary(
            adversary_plan, SeedSequenceFactory(payload_seed)
        )

    legit: set = set()
    history: List[bytes] = []
    rekeys_seen = 0
    n_messages = int(rng.integers(6, 18))
    for message_index in range(n_messages):
        if link.closed:
            break
        sender = _ROLES[int(rng.integers(0, 2))]
        plaintext = f"chaos-{seed}-{session_index}-m{message_index}".encode()
        wire = link.seal(sender, plaintext)
        if wire is None:
            break
        legit.add(wire)
        deliveries = [wire]
        if adversary is not None:
            foreign = foreign_pool[-1] if foreign_pool else None
            deliveries = adversary.attack_record(wire, history, foreign)
        history.append(wire)
        for blob in deliveries:
            result = link.deliver(_PEER[sender], blob)
            if result is None:
                break
            report.records_delivered += 1
            if result.ok:
                if blob not in legit:
                    report.violate(
                        "no-decrypt-under-mismatched-keys",
                        session_index,
                        "a record this channel never sealed opened "
                        f"successfully (message {message_index})",
                    )
                elif blob == wire and result.plaintext != plaintext:
                    report.violate(
                        "rekey-preserves-continuity",
                        session_index,
                        f"legitimate record {message_index} decrypted to "
                        "the wrong plaintext",
                    )
            else:
                report.payload_failures[result.failure] = (
                    report.payload_failures.get(result.failure, 0) + 1
                )
                if result.plaintext is not None:
                    report.violate(
                        "no-plaintext-on-auth-failure",
                        session_index,
                        f"open failed with {result.failure!r} but "
                        "released plaintext",
                    )
                if blob is wire:
                    report.violate(
                        "rekey-preserves-continuity",
                        session_index,
                        f"untouched record {message_index} failed to open "
                        f"({result.failure!r}) at epoch {link.epoch}",
                    )
        if link.rekeys_completed > rekeys_seen and not link.closed:
            rekeys_seen = link.rekeys_completed
            detail = _payload_canary(
                link,
                legit,
                history,
                f"canary-{seed}-{session_index}-".encode(),
                report,
            )
            if detail is not None:
                report.violate("rekey-preserves-continuity", session_index, detail)

    # Batched burst: push the same payload invariants through the batched
    # data plane (``seal_records``/``deliver_records``).  The burst is
    # sized to the epoch's remaining seal capacity so no records-trigger
    # rekey can fire mid-burst (a zero-grace policy would otherwise
    # legitimately expire the pre-rekey records in flight); rekey
    # crossings are the sequential loop's and the canary's job.
    if not link.closed:
        desired = int(rng.integers(3, 7))
        for sender in _ROLES:
            if link.closed:
                break
            endpoint = link.link.endpoint(sender)
            capacity = min(
                policy.max_records_per_epoch - endpoint.send_sequence,
                endpoint.sequence_remaining,
            )
            if capacity < 1:
                continue
            payloads = [
                f"chaos-{seed}-{session_index}-burst-{sender}-{i}".encode()
                for i in range(min(desired, int(capacity)))
            ]
            wires = link.seal_records(sender, payloads)
            legit.update(wires)
            history.extend(wires)
            results = link.deliver_records(_PEER[sender], wires)
            report.records_delivered += len(results)
            for index, result in enumerate(results):
                if result.ok:
                    if result.plaintext != payloads[index]:
                        report.violate(
                            "rekey-preserves-continuity",
                            session_index,
                            f"batched record {index} from {sender} decrypted "
                            "to the wrong plaintext",
                        )
                    continue
                report.payload_failures[result.failure] = (
                    report.payload_failures.get(result.failure, 0) + 1
                )
                if result.plaintext is not None:
                    report.violate(
                        "no-plaintext-on-auth-failure",
                        session_index,
                        f"batched open failed with {result.failure!r} but "
                        "released plaintext",
                    )
                report.violate(
                    "rekey-preserves-continuity",
                    session_index,
                    f"untouched batched record {index} from {sender} failed "
                    f"to open ({result.failure!r}) at epoch {link.epoch}",
                )
            if len(results) < len(wires) and not link.closed:
                report.violate(
                    "rekey-preserves-continuity",
                    session_index,
                    f"batched delivery from {sender} stopped at "
                    f"{len(results)}/{len(wires)} without closing the link",
                )

    report.rekeys_completed += link.rekeys_completed
    if link.closed:
        report.channels_closed += 1
        close = link.close_report
        if close is None or close.reason not in CLOSE_REASONS:
            report.violate(
                "rekey-preserves-continuity",
                session_index,
                "channel stopped without a structured close report",
            )
        else:
            report.close_reasons[close.reason] = (
                report.close_reasons.get(close.reason, 0) + 1
            )
    if history:
        foreign_pool.append(history[0])
        del foreign_pool[:-4]


def run_chaos(
    pipeline: VehicleKeyPipeline,
    n_sessions: int,
    seed: int = 0,
    n_rounds: Optional[int] = None,
    max_attempts: int = 2,
    data_phase: bool = True,
) -> ChaosReport:
    """Sweep seeded random fault/attack combinations through the pipeline.

    Args:
        pipeline: A trained pipeline; every session probes a fresh
            ``chaos-{seed}-{i}`` episode (an independent channel and
            trajectory realization of the pipeline's scenario).
        n_sessions: Random combinations to run.
        seed: Sweep seed; combination ``i`` derives from ``(seed, i)``, so
            any single session reproduces in isolation.
        n_rounds: Probing rounds per session (default: the pipeline's
            ``session_rounds``).
        max_attempts: Probing bursts allowed per session, letting abort
            recovery (desync re-sync) exercise its re-probe path.
        data_phase: Continue successful sessions into the secure-channel
            data phase and check the payload invariants.

    Returns:
        The :class:`ChaosReport`; ``report.ok`` is the harness verdict.
    """
    require_positive(n_sessions, "n_sessions")
    airtime_s = pipeline.config.phy.airtime_s
    report = ChaosReport(n_sessions=n_sessions, seed=seed)
    ledger = NonceLedger()
    foreign_pool: List[bytes] = []
    for index in range(n_sessions):
        rng = np.random.default_rng([seed, index])
        fault_plan = random_fault_plan(rng)
        adversary_plan = random_adversary_plan(rng)
        policy = random_retry_policy(rng)
        if not adversary_plan.is_null:
            report.attacked_sessions += 1
        if not fault_plan.is_null:
            report.faulted_sessions += 1
        try:
            outcome = pipeline.establish_key(
                episode=f"chaos-{seed}-{index}",
                n_rounds=n_rounds,
                fault_plan=fault_plan,
                retry_policy=policy,
                adversary_plan=adversary_plan,
                max_attempts=max_attempts,
            )
        except Exception as error:  # noqa: BLE001 - the invariant IS "never raises"
            report.violate(
                "uncaught-exception", index, f"{type(error).__name__}: {error}"
            )
            continue
        if outcome.success:
            report.successes += 1
        if outcome.degraded_mode is not None:
            report.degraded_sessions += 1
        if outcome.aborted:
            report.aborts += 1
            reason = outcome.abort_reason
            report.abort_reasons[reason] = report.abort_reasons.get(reason, 0) + 1
        if outcome.failure_reason is not None:
            report.failure_reasons[outcome.failure_reason] = (
                report.failure_reasons.get(outcome.failure_reason, 0) + 1
            )
        _check_invariants(report, outcome, policy, fault_plan, airtime_s, index)
        if data_phase and outcome.success:
            report.secured_sessions += 1
            try:
                _run_payload_phase(
                    pipeline,
                    outcome,
                    rng,
                    fault_plan,
                    policy,
                    adversary_plan,
                    ledger,
                    foreign_pool,
                    index,
                    report,
                )
            except Exception as error:  # noqa: BLE001 - same contract as above
                report.violate(
                    "uncaught-exception",
                    index,
                    f"data phase: {type(error).__name__}: {error}",
                )
    _report_reuses(report, "no-nonce-reuse-ever", ledger.reuses)
    return report


#: Seeded behavior mix the server sweep draws from (weights sum to 1).
_BEHAVIOR_WEIGHTS = (
    ("normal", 0.27),
    ("ping-then-normal", 0.10),
    ("secure-echo", 0.10),
    ("secure-tamper", 0.05),
    ("normal-retry", 0.03),
    ("disconnect-after-hello", 0.08),
    ("disconnect-after-start", 0.08),
    ("slow-loris", 0.07),
    ("corrupt-frame", 0.07),
    ("oversized-frame", 0.05),
    ("unknown-frame", 0.05),
    ("silent", 0.05),
)

#: Probability a client claims the previous client's session id.
_DUPLICATE_ID_RATE = 0.05


def _draw_behavior(
    rng: np.random.Generator, mix: Sequence[Tuple[str, float]]
) -> str:
    """One seeded draw from a ``(behavior, weight)`` mix."""
    names = [name for name, _ in mix]
    weights = np.array([weight for _, weight in mix])
    return str(rng.choice(names, p=weights / weights.sum()))


def random_client_behavior(rng: np.random.Generator) -> str:
    """One seeded draw from the server sweep's behavior mix."""
    return _draw_behavior(rng, _BEHAVIOR_WEIGHTS)


#: Client behaviors that must always reach a structured verdict.
_HONEST_BEHAVIORS = (
    "normal",
    "normal-retry",
    "ping-then-normal",
    "secure-echo",
    "secure-tamper",
    "secure-data",
)


def _classify_clients(
    report: ChaosReport, outcomes: Sequence[ClientOutcome]
) -> None:
    """Tally served client outcomes and check the client-side invariants.

    Client ``i`` is session ``i`` of the report.  A
    ``payload-invariant:<name>`` detail is filed under ``<name>`` when
    the sweep checks it, else as ``shed-not-hang``; a rejection must
    carry a ``retry_after_s`` hint.  An honest client must end in a
    structured verdict: a miss is a ``tick-stall`` in the server sweep
    and ``shed-not-hang`` in the restart sweep, whose honest clients
    reconnect across crashes until a verdict arrives.  A misbehaving
    client may end in a clean close, and in a transport error only in
    the restart sweep, where a crash can cut its connection.
    """
    restart = report.sweep == "restart"
    for index, outcome in enumerate(outcomes):
        report.behaviors[outcome.behavior] = (
            report.behaviors.get(outcome.behavior, 0) + 1
        )
        report.client_kinds[outcome.kind] = (
            report.client_kinds.get(outcome.kind, 0) + 1
        )
        frame = outcome.frame or {}
        if outcome.detail.startswith("payload-invariant:"):
            name = outcome.detail.split(":", 1)[1]
            report.violate(
                name if report.sweep in INVARIANTS.get(name, ()) else "shed-not-hang",
                index,
                f"{outcome.behavior!r} client's payload check failed "
                f"({outcome.detail})",
            )
            continue
        if outcome.kind == "result":
            report.results += 1
            if frame.get("success"):
                report.successes += 1
                if outcome.behavior.startswith("secure-"):
                    report.secured_sessions += 1
            if frame.get("resumed"):
                report.resumed_results += 1
        elif outcome.kind == "abort":
            report.aborts += 1
            if frame.get("reason") == ABORT_RECOVERED:
                report.recovered_aborts += 1
        elif outcome.kind == "rejected":
            report.rejections += 1
            if "retry_after_s" not in frame:
                report.violate(
                    "shed-not-hang",
                    index,
                    f"{outcome.behavior!r} client was rejected without a "
                    "retry_after_s hint",
                )
        else:
            honest = outcome.behavior in _HONEST_BEHAVIORS
            if honest or (outcome.kind == "error" and not restart):
                report.violate(
                    "tick-stall" if honest and not restart else "shed-not-hang",
                    index,
                    f"{outcome.behavior!r} client ended with "
                    f"kind={outcome.kind!r} "
                    f"({outcome.detail or 'no terminal frame'})",
                )


def chaos_server_config(n_clients: int) -> ServerConfig:
    """Server knobs tuned so a sweep exercises every robustness path.

    Budgets are tight enough that silent and slow-loris peers are reaped
    within the sweep, and the ingress queue is small enough that a burst
    of honest clients actually triggers load shedding.
    """
    return ServerConfig(
        port=0,
        hello_timeout_s=1.0,
        idle_timeout_s=1.5,
        session_deadline_s=90.0,
        tick_interval_s=0.02,
        max_batch=16,
        queue_limit=max(8, min(16, n_clients)),
        max_sessions=max(64, 2 * n_clients),
        retry_after_s=0.5,
        reap_interval_s=0.25,
    )


def _check_drain(report: ChaosReport, still_active: int, degraded_seen: int) -> None:
    """The server sweep's post-drain checks.

    ``report.leaked_sessions`` and ``report.degraded_sessions`` hold the
    drain's leak count and the server metrics' degraded count;
    ``still_active`` is the server's registered-session count after the
    drain and ``degraded_seen`` the degraded outcomes the sweep's own
    observer counted.
    """
    if report.leaked_sessions > 0 or still_active > 0:
        report.violate(
            "session-leak-after-reap",
            -1,
            f"{max(report.leaked_sessions, still_active)} "
            "sessions still registered after the final drain",
        )
    if report.degraded_sessions != degraded_seen:
        report.violate(
            "silent-degraded-session",
            -1,
            f"observer saw {degraded_seen} degraded sessions "
            f"but server metrics counted {report.degraded_sessions}",
        )


async def _run_server_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int,
    n_rounds: Optional[int],
    config: Optional[ServerConfig],
) -> ChaosReport:
    """The async body of :func:`run_server_chaos`."""
    report = ChaosReport(sweep="server", n_sessions=n_clients, seed=seed)
    observed = {"index": 0, "degraded": 0}

    def on_outcome(session, outcome) -> None:
        """Re-check the key-release invariants on every served outcome."""
        index = observed["index"]
        observed["index"] = index + 1
        if outcome.degraded_mode is not None:
            observed["degraded"] += 1
        _check_outcome(report, outcome, index)

    ledger = NonceLedger()
    server = KeyEstablishmentServer(
        ModelRegistry(pipeline),
        config if config is not None else chaos_server_config(n_clients),
        on_outcome=on_outcome,
        nonce_ledger=ledger,
    )
    await server.start()
    endpoint = Endpoint(port=server.bound_port)

    async def one_client(index: int) -> ClientOutcome:
        """Client ``index``'s seeded behavior draw and execution."""
        rng = np.random.default_rng([seed, index])
        await asyncio.sleep(float(rng.uniform(0.0, 0.5)))
        behavior = random_client_behavior(rng)
        if index > 0 and rng.random() < _DUPLICATE_ID_RATE:
            session_id = f"dev-{seed}-{index - 1}"
        else:
            session_id = f"dev-{seed}-{index}"
        return await run_behavior(
            endpoint,
            behavior,
            session_id,
            episode=f"serve-chaos-{seed}-{index}",
            rounds=n_rounds,
            timeout_s=60.0,
        )

    try:
        outcomes = await asyncio.gather(
            *(one_client(index) for index in range(n_clients))
        )
    finally:
        drain = await server.drain()

    report.drain_delivered = drain.delivered
    report.drain_aborted = drain.aborted_draining
    report.leaked_sessions = drain.leaked
    report.metrics = server.metrics.snapshot()
    report.degraded_sessions = server.metrics.degraded_sessions
    _classify_clients(report, outcomes)
    _check_drain(report, server.active_sessions, observed["degraded"])
    _report_reuses(report, "no-nonce-reuse-ever", ledger.reuses)
    return report


def run_server_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int = 0,
    n_rounds: Optional[int] = None,
    config: Optional[ServerConfig] = None,
) -> ChaosReport:
    """Chaos-sweep the *served* path with misbehaving concurrent clients.

    Stands up a real :class:`KeyEstablishmentServer` on a loopback port,
    launches ``n_clients`` concurrent clients whose behaviors (honest,
    disconnecting, slow-loris, corrupt/oversized frames, duplicate ids,
    silent) derive from ``(seed, index)``, then drains the server and
    checks every invariant :data:`INVARIANTS` registers for the
    ``"server"`` sweep.

    Args:
        pipeline: A trained pipeline to serve (e.g.
            :func:`build_chaos_pipeline`'s).
        n_clients: Concurrent client interactions to run.
        seed: Sweep seed; any single client reproduces from
            ``(seed, index)``.
        n_rounds: Probing rounds clients request (``None``: the server
            default, i.e. the pipeline's ``session_rounds``).
        config: Server knobs; defaults to :func:`chaos_server_config`.

    Returns:
        The ``"server"`` :class:`ChaosReport`; ``report.ok`` is the
        verdict.
    """
    require_positive(n_clients, "n_clients")
    return asyncio.run(
        _run_server_chaos(pipeline, n_clients, seed, n_rounds, config)
    )


def build_chaos_pipeline(
    scenario: ScenarioName = ScenarioName.V2I_URBAN,
    seed: int = 11,
) -> VehicleKeyPipeline:
    """A small trained pipeline sized for chaos sweeps.

    The harness measures protocol safety, not model quality, so the
    pipeline uses the test-sized tiny architecture trained just enough
    that fault-free sessions reach reconciliation and succeed: a sweep
    then exercises every protocol phase (blocks, MACs, confirmation),
    not just early exhaustion.  Training takes ~10 s and a 96-round
    session well under a second, making hundreds of sessions per CI
    smoke run affordable.
    """
    config = PipelineConfig(
        scenario=scenario_config(scenario),
        feature_config=FeatureConfig(window_fraction=0.10, values_per_packet=2),
        seq_len=16,
        hidden_units=16,
        key_bits=32,
        code_dim=24,
        decoder_units=64,
        rounds_per_episode=48,
        session_rounds=96,
        final_key_bits=64,
        alice_confidence_margin=0.12,
        bob_guard_fraction=0.30,
    )
    pipeline = VehicleKeyPipeline(config, seed=seed)
    pipeline.train(n_episodes=100, epochs=60, reconciler_epochs=15)
    return pipeline


# -- kill/restart sweep -------------------------------------------------------

#: Seeded behavior mix of the restart sweep: mostly honest sessions that
#: span crashes, plus walk-away clients that leave orphans behind.
_RESTART_BEHAVIOR_WEIGHTS = (
    ("normal", 0.45),
    ("secure-data", 0.30),
    ("disconnect-after-start", 0.125),
    ("disconnect-after-hello", 0.125),
)

#: Probability a client that received a result re-resumes its token to
#: actively verify idempotent redelivery.
_RESUME_PROBE_RATE = 0.30

#: Most reconnect/resume attempts one client spends chasing a verdict.
_RESUME_ATTEMPTS = 12


def restart_chaos_config(n_clients: int, journal_dir: str) -> ServerConfig:
    """The server sweep's tuned knobs plus crash-durability journaling.

    ``batch`` fsync (small batches) is deliberate: it leaves a window of
    admission and nonce high-water records that a SIGKILL can eat, which
    is exactly the lag recovery must compensate for.  Idle/hello budgets
    are widened past the restart latency so detached sessions survive
    the resumption window.
    """
    return replace(
        chaos_server_config(n_clients),
        journal_dir=str(journal_dir),
        journal_fsync="batch",
        journal_batch_records=8,
        hello_timeout_s=2.0,
        idle_timeout_s=4.0,
    )


def _write_port_file(path: str, port: int) -> None:
    """Publish the child's bound port atomically (write-temp-then-rename)."""
    write_atomically(path, lambda handle: handle.write(str(port).encode("utf-8")))


async def _restart_server_child_main(
    pipeline: VehicleKeyPipeline, config: ServerConfig, port_path: str
) -> int:
    """Async body of the forked server child: serve until SIGTERM, drain.

    The journal doubles as the child's witness channel: key-release
    breaches on served outcomes and ledger-witnessed nonce reuses are
    filed on a child-side ``"restart"`` report and appended as
    ``violation`` records, so the parent can machine-check them after
    the child is long dead.
    """
    ledger = NonceLedger()
    server = KeyEstablishmentServer(
        ModelRegistry(pipeline), config, nonce_ledger=ledger
    )
    witness = ChaosReport(sweep="restart")

    def journal_witnessed() -> None:
        for violation in witness.violations:
            server.journal_append(
                {
                    "t": "violation",
                    "invariant": violation.invariant,
                    "detail": violation.detail,
                },
                critical=True,
            )
        witness.violations.clear()

    def on_outcome(session, outcome) -> None:
        _check_outcome(witness, outcome, -1)
        journal_witnessed()

    def on_reuse(reuse) -> None:
        _report_reuses(witness, "no-nonce-reuse-across-restart", [reuse])
        journal_witnessed()

    server.on_outcome = on_outcome
    ledger.on_reuse = on_reuse
    report = await server.serve_forever(
        on_ready=lambda: _write_port_file(port_path, int(server.bound_port))
    )
    return 0 if report.leaked == 0 else 3


def _restart_server_child(
    pipeline: VehicleKeyPipeline,
    config: ServerConfig,
    port_path: str,
    crash_plan: Dict[str, int],
) -> None:  # pragma: no cover - runs in a forked child
    """Forked child entry: arm the crash plan, serve, die or drain."""
    CRASHPOINTS.reset()
    CRASHPOINTS.arm_plan(crash_plan)
    raise SystemExit(
        asyncio.run(_restart_server_child_main(pipeline, config, port_path))
    )


class _ServerCluster:
    """Parent-side spawn/respawn handle over the forked server child.

    Generations ``0 .. restarts-1`` run with a seeded crashpoint armed
    (derived from ``(seed, 7, generation)``); later generations run
    unarmed so the sweep always ends with a clean recovery and drain.
    """

    def __init__(
        self,
        pipeline: VehicleKeyPipeline,
        config: ServerConfig,
        journal_dir: str,
        seed: int,
        n_clients: int,
        restarts: int,
    ) -> None:
        self.pipeline = pipeline
        self.config = config
        self.port_path = Path(journal_dir) / "server.port"
        self.seed = seed
        self.n_clients = n_clients
        self.restarts = restarts
        self.generation = 0
        self.kills = 0
        self.unexpected_exits: List[int] = []
        self.crash_plans: List[Dict[str, int]] = []
        self.process = None
        self._ctx = multiprocessing.get_context("fork")

    def crash_plan(self, generation: int) -> Dict[str, int]:
        """The seeded ``site -> countdown`` plan for one generation."""
        if generation >= self.restarts:
            return {}
        rng = np.random.default_rng([self.seed, 7, generation])
        site = str(rng.choice(np.array(SITES)))
        spans = {
            "admit": (1, max(3, self.n_clients // 2)),
            "tick": (1, 24),
            "deliver": (1, max(3, self.n_clients // 2)),
            "seal": (2, max(6, 2 * self.n_clients)),
        }
        low, high = spans[site]
        return {site: int(rng.integers(low, high + 1))}

    def spawn(self) -> None:
        """Fork the next server generation against the same journal."""
        try:
            os.unlink(self.port_path)
        except FileNotFoundError:
            pass
        plan = self.crash_plan(self.generation)
        self.crash_plans.append(plan)
        self.process = self._ctx.Process(
            target=_restart_server_child,
            args=(self.pipeline, self.config, str(self.port_path), plan),
            daemon=True,
        )
        self.process.start()

    async def port(self, timeout_s: float = 120.0) -> int:
        """Await the *current* generation's published port."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while asyncio.get_running_loop().time() < deadline:
            try:
                text = self.port_path.read_text(encoding="utf-8").strip()
                if text:
                    return int(text)
            except (FileNotFoundError, ValueError):
                pass
            await asyncio.sleep(0.02)
        raise asyncio.TimeoutError("server port file never appeared")

    async def monitor(self, stop: asyncio.Event) -> None:
        """Respawn the child whenever a crashpoint SIGKILLs it."""
        while not stop.is_set():
            process = self.process
            if process is not None and not process.is_alive():
                code = process.exitcode
                if code == -signal.SIGKILL:
                    self.kills += 1
                else:
                    self.unexpected_exits.append(int(code or 0))
                if self.generation >= self.restarts + 3:
                    return  # runaway backstop; clients will time out
                self.generation += 1
                self.spawn()
            await asyncio.sleep(0.02)

    async def finish(self, timeout_s: float = 60.0) -> Optional[int]:
        """SIGTERM the live child (graceful drain) and reap its exit."""
        process = self.process
        if process is None:
            return None
        if process.is_alive():
            process.terminate()
        deadline = asyncio.get_running_loop().time() + timeout_s
        while process.is_alive() and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.05)
        if process.is_alive():  # pragma: no cover - drain wedged
            process.kill()
        process.join(timeout=5.0)
        return process.exitcode


async def _restart_client(
    cluster: _ServerCluster,
    index: int,
    seed: int,
    n_rounds: Optional[int],
    ledger: NonceLedger,
    report: ChaosReport,
) -> ClientOutcome:
    """One client's establish / reconnect / resume loop across crashes.

    ``secure-data`` clients run the served ``secure-echo`` data phase on
    every (re)connect, registering each seal and accept on the sweep-wide
    parent ``ledger``, and check that every result frame's channel epoch
    strictly advances -- the client-side halves of
    ``no-nonce-reuse-across-restart``.
    """
    rng = np.random.default_rng([seed, index])
    await asyncio.sleep(float(rng.uniform(0.0, 1.0)))
    behavior = _draw_behavior(rng, _RESTART_BEHAVIOR_WEIGHTS)
    session_id = f"dev-{seed}-{index}"
    episode = f"restart-chaos-{seed}-{index}"
    if behavior in ("disconnect-after-hello", "disconnect-after-start"):
        # Walk-away clients: their abandoned admissions are exactly the
        # orphans recovery must abort; any outcome is legal for them.
        try:
            endpoint = Endpoint(port=await cluster.port())
        except asyncio.TimeoutError:
            return ClientOutcome(session_id, behavior, "error",
                                 detail="server endpoint never appeared")
        return await run_behavior(
            endpoint, behavior, session_id,
            episode=episode, rounds=n_rounds, timeout_s=60.0,
        )
    token = ""
    last_epoch = -1
    outcome = ClientOutcome(session_id, behavior, "error", detail="never ran")
    for attempt in range(_RESUME_ATTEMPTS):
        try:
            endpoint = Endpoint(port=await cluster.port())
        except asyncio.TimeoutError:
            outcome = ClientOutcome(
                session_id, behavior, "error",
                detail="server endpoint never reappeared", resume_token=token,
            )
            break
        client = DeviceClient(
            endpoint,
            session_id,
            episode=episode,
            rounds=n_rounds,
            timeout_s=60.0,
            max_admission_retries=4,
            backoff_cap_s=1.0,
            retry_seed=int(rng.integers(0, 2**31)),
            resume=token or None,
            resume_token=token,
        )
        if behavior == "secure-data":
            outcome = await _run_secure_behavior(
                client, behavior, session_id, ledger=ledger
            )
            frame = outcome.frame or {}
            if frame.get("success") and frame.get("channel") is not None:
                epoch = int(frame["channel"].get("epoch", 0))
                if epoch <= last_epoch:
                    report.violate(
                        "no-nonce-reuse-across-restart",
                        index,
                        f"resumed channel re-issued epoch {epoch} "
                        f"(this client already held epoch {last_epoch})",
                    )
                last_epoch = max(last_epoch, epoch)
        else:
            # A client holding a token resumes under its drawn behavior,
            # so the honest-client check still covers it.
            outcome = await client.establish(behavior=behavior)
        token = outcome.resume_token or token
        if outcome.kind in ("result", "abort"):
            break
        if outcome.kind == "rejected":
            reason = str((outcome.frame or {}).get("reason") or "")
            if reason == "unknown-resumption-token":
                # The admit record died un-fsynced with the crash; the
                # contract is a fresh session, never a duplicate key.
                token = ""
            elif reason not in ("duplicate-session", "server-overloaded"):
                break  # final structured rejection
        await asyncio.sleep(0.1 * (attempt + 1) + float(rng.uniform(0.0, 0.3)))
    if (
        outcome.kind == "result"
        and token
        and float(rng.random()) < _RESUME_PROBE_RATE
    ):
        # Actively verify idempotent redelivery: re-resuming a delivered
        # result must re-answer the identical key digest, never a second
        # key and never an abort (results are journaled before delivery).
        report.resume_probes += 1
        try:
            probe = DeviceClient(
                Endpoint(port=await cluster.port()),
                session_id,
                timeout_s=60.0,
                max_admission_retries=6,
                backoff_cap_s=1.0,
                retry_seed=int(rng.integers(0, 2**31)),
            )
            again = await probe.resume_session(token)
        except asyncio.TimeoutError:
            again = ClientOutcome(session_id, "resume", "error")
        first = (outcome.frame or {}).get("key_digest")
        if again.kind == "result":
            second = (again.frame or {}).get("key_digest")
            if second != first:
                report.violate(
                    "no-duplicate-result-delivery",
                    index,
                    f"re-resume answered key digest {second!r} "
                    f"after the first delivery answered {first!r}",
                )
        elif again.kind == "abort" or (
            again.kind == "rejected"
            and (again.frame or {}).get("reason") == "unknown-resumption-token"
        ):
            report.violate(
                "no-duplicate-result-delivery",
                index,
                f"re-resume of a delivered result answered "
                f"{again.kind!r} ({(again.frame or {}).get('reason')!r})",
            )
    return outcome


def _verify_restart_journal(report: ChaosReport, records: List[dict]) -> None:
    """Machine-check the restart invariants from the journal alone.

    Files violations on the ``"restart"`` ``report`` and fills its
    ``recoveries``, ``orphans_recovered`` and ``metrics`` (the last drain
    record's snapshot).  The checks are purely structural, so a torn or
    lying server cannot pass by construction: high-water marks must
    never regress, channel epochs must strictly advance per token, every
    admission preceding a recovery marker must precede a terminal
    outcome, one token must never map to two key digests, and the final
    generation must have drained.  A ``violation`` record the child
    journaled is filed under its invariant only when that name is a
    restart invariant; a missing or foreign name is filed as
    ``uncaught-exception``, raw name in the detail.
    """
    admitted: Dict[str, int] = {}
    outcomes: Dict[str, List[tuple]] = {}
    nonce_high: Dict[tuple, int] = {}
    epochs: Dict[str, int] = {}
    drains = 0
    for pos, record in enumerate(records):
        kind = record.get("t")
        token = str(record.get("token", ""))
        if kind == "admit":
            admitted.setdefault(token, pos)
        elif kind == "outcome":
            frame = record.get("frame") or {}
            outcomes.setdefault(token, []).append(
                (
                    pos,
                    str(record.get("kind", "")),
                    frame.get("key_digest"),
                    str(record.get("reason", "")),
                )
            )
        elif kind == "channel":
            epoch = int(record.get("epoch", 0))
            last = epochs.get(token, -1)
            if epoch <= last:
                report.violate(
                    "no-nonce-reuse-across-restart",
                    -1,
                    f"token {token[:8]}... re-journaled channel "
                    f"epoch {epoch} after already reaching {last}",
                )
            epochs[token] = max(last, epoch)
        elif kind == "nonce":
            key = (str(record.get("key", "")), int(record.get("dir", 0)))
            high = int(record.get("high", 0))
            if high <= nonce_high.get(key, -1):
                report.violate(
                    "no-nonce-reuse-across-restart",
                    -1,
                    f"seal high-water for key {key[0][:16]}... "
                    f"dir {key[1]} regressed to {high} from "
                    f"{nonce_high[key]}",
                )
            nonce_high[key] = max(nonce_high.get(key, -1), high)
        elif kind == "recovery":
            report.recoveries += 1
            report.orphans_recovered += int(record.get("orphans", 0))
            for admit_token, admit_pos in admitted.items():
                if admit_pos < pos and not any(
                    outcome_pos < pos
                    for outcome_pos, *_ in outcomes.get(admit_token, [])
                ):
                    report.violate(
                        "no-orphan-session-after-recovery",
                        -1,
                        f"recovery left admitted token "
                        f"{admit_token[:8]}... without a terminal outcome",
                    )
        elif kind == "violation":
            name = record.get("invariant")
            detail = f"server child witnessed: {record.get('detail', '')}"
            if isinstance(name, str) and "restart" in INVARIANTS.get(name, ()):
                report.violate(name, -1, detail)
            else:
                report.violate(
                    "uncaught-exception",
                    -1,
                    f"{detail} (journaled invariant {name!r} is not a "
                    "restart invariant)",
                )
        elif kind == "drain":
            drains += 1
            report.metrics = record.get("metrics") or {}
            if int(record.get("leaked", 0)) > 0:
                report.violate(
                    "no-orphan-session-after-recovery",
                    -1,
                    f"drain left {record.get('leaked')} "
                    "session(s) registered",
                )
            if int(record.get("ledger_reuses", 0)) > 0:
                report.violate(
                    "no-nonce-reuse-across-restart",
                    -1,
                    f"server ledger witnessed "
                    f"{record.get('ledger_reuses')} nonce reuse(s)",
                )
    for token, entries in outcomes.items():
        digests = {
            digest for _, okind, digest, _ in entries if okind == "result" and digest
        }
        if len(digests) > 1:
            report.violate(
                "no-duplicate-result-delivery",
                -1,
                f"token {token[:8]}... holds result outcomes under "
                f"{len(digests)} distinct key digests",
            )
        result_positions = [p for p, okind, _, _ in entries if okind == "result"]
        if result_positions and any(
            okind == "abort" and reason == ABORT_RECOVERED
            and pos > min(result_positions)
            for pos, okind, _, reason in entries
        ):
            report.violate(
                "no-duplicate-result-delivery",
                -1,
                f"token {token[:8]}... was orphan-aborted after "
                "its result was already journaled",
            )
    if drains == 0:
        report.violate(
            "no-orphan-session-after-recovery",
            -1,
            "no drain record reached the journal -- the final "
            "generation never drained gracefully",
        )


async def _run_restart_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int,
    n_rounds: Optional[int],
    journal_dir: str,
    restarts: int,
    config: Optional[ServerConfig],
) -> ChaosReport:
    """The async body of :func:`run_restart_chaos`."""
    report = ChaosReport(
        sweep="restart", n_sessions=n_clients, seed=seed, restarts=restarts
    )
    if config is None:
        config = restart_chaos_config(n_clients, journal_dir)
    cluster = _ServerCluster(pipeline, config, journal_dir, seed, n_clients, restarts)
    cluster.spawn()
    stop = asyncio.Event()
    monitor = asyncio.create_task(cluster.monitor(stop))
    ledger = NonceLedger()
    try:
        outcomes = await asyncio.gather(
            *(
                _restart_client(cluster, index, seed, n_rounds, ledger, report)
                for index in range(n_clients)
            )
        )
    finally:
        stop.set()
        await monitor
        exit_code = await cluster.finish()
        if exit_code == -signal.SIGKILL:
            # An armed crashpoint fired during the drain itself: run one
            # final unarmed generation so recovery and a graceful drain
            # complete against the same journal before verification.
            cluster.kills += 1
            cluster.generation = max(cluster.generation + 1, restarts)
            cluster.spawn()
            await cluster.port()
            exit_code = await cluster.finish()
    report.kills = cluster.kills
    report.generations = cluster.generation + 1
    report.crash_plans = cluster.crash_plans
    report.unexpected_exits = list(cluster.unexpected_exits)
    if exit_code not in (0, None):
        report.unexpected_exits.append(int(exit_code))
    for code in report.unexpected_exits:
        report.violate(
            "no-orphan-session-after-recovery",
            -1,
            f"server child exited with unexpected code {code} "
            "(crashpoints only ever SIGKILL; a drain exits 0)",
        )
    _classify_clients(report, outcomes)
    _report_reuses(report, "no-nonce-reuse-across-restart", ledger.reuses)
    replay = replay_journal(Path(journal_dir) / JOURNAL_FILENAME)
    report.journal_records = len(replay.records)
    if not replay.clean:
        report.violate(
            "no-orphan-session-after-recovery",
            -1,
            f"journal tail still torn after the final drain ({replay.torn})",
        )
    _verify_restart_journal(report, replay.records)
    return report


def run_restart_chaos(
    pipeline: VehicleKeyPipeline,
    n_clients: int,
    seed: int = 0,
    n_rounds: Optional[int] = None,
    journal_dir: Optional[str] = None,
    restarts: int = 2,
    config: Optional[ServerConfig] = None,
) -> ChaosReport:
    """Kill/restart-sweep the served path against its durability contract.

    Forks a real :class:`KeyEstablishmentServer` into a child process
    whose :mod:`~repro.server.crashpoints` are armed from
    ``(seed, 7, generation)``, launches ``n_clients`` seeded clients
    (honest establishments, encrypted data phases, walk-away orphans),
    lets the armed crashpoint SIGKILL the child mid-sweep, restarts a
    fresh server generation against the same write-ahead journal while
    clients reconnect with their resumption tokens, and finally drains
    gracefully and machine-checks every invariant :data:`INVARIANTS`
    registers for the ``"restart"`` sweep from the journal, the
    parent-side client nonce ledger, and active idempotency probes.

    Args:
        pipeline: A trained pipeline to serve (e.g.
            :func:`build_chaos_pipeline`'s).
        n_clients: Concurrent client interactions to run.
        seed: Sweep seed; one seed reproduces clients, behaviors, crash
            plans and restart timing.
        n_rounds: Probing rounds clients request (``None``: the server
            default).
        journal_dir: Journal directory shared by every server
            generation; a fresh temporary directory when ``None``.
        restarts: Armed generations (SIGKILLs) to plan; later
            generations run unarmed so the sweep always ends clean.
        config: Server knobs; defaults to :func:`restart_chaos_config`.

    Returns:
        The ``"restart"`` :class:`ChaosReport`; ``report.ok`` is the
        verdict.
    """
    require_positive(n_clients, "n_clients")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="vk-restart-chaos-")
    return asyncio.run(
        _run_restart_chaos(
            pipeline, n_clients, seed, n_rounds, str(journal_dir), restarts, config
        )
    )
