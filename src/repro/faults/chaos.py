"""Chaos invariant harness: random faults x attacks vs. safety invariants.

Deterministic fault tests prove that one specific attack produces one
specific structured failure.  The chaos harness attacks the
*composition*, in three seeded sweeps over one core.  This module holds
the core and the library sweep; the two served sweeps, ``server`` and
``restart``, live in :mod:`repro.faults.chaos_served`, and nothing here
imports :mod:`repro.server`.

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

The core is :data:`INVARIANTS`, the registry that maps every invariant
to the sweeps that check it; :class:`ChaosReport`, the one report type
all three sweeps return, whose :meth:`~ChaosReport.violate` refuses a
name its sweep does not check; and one function per shared check
(:func:`_check_outcome` on every establishment outcome,
:func:`_report_reuses` on every nonce ledger).  The invariants, in
registry order:

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

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.scenario import ScenarioName, scenario_config
from repro.core.pipeline import PipelineConfig, VehicleKeyPipeline
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
from repro.secure import ManagedSecureLink, NonceLedger, OpenOutcome, RekeyPolicy
from repro.secure.rekey import CLOSE_REASONS
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


def _check_delivery(
    report: ChaosReport,
    session: int,
    link: ManagedSecureLink,
    legit: set,
    blob: bytes,
    result: OpenOutcome,
    expected: Optional[bytes],
    record: str,
) -> None:
    """The payload invariants on one delivered record.

    A record that opened must be one this channel sealed and, when it
    arrived untouched (``expected`` is then its plaintext), decrypt to
    ``expected``.  A failed open is counted under its slug, releases no
    plaintext and is never an untouched record.  ``record`` names the
    record in violation details.
    """
    report.records_delivered += 1
    if result.ok:
        if blob not in legit:
            report.violate(
                "no-decrypt-under-mismatched-keys",
                session,
                "a record this channel never sealed opened successfully "
                f"({record})",
            )
        elif expected is not None and result.plaintext != expected:
            report.violate(
                "rekey-preserves-continuity",
                session,
                f"{record} decrypted to the wrong plaintext",
            )
        return
    report.payload_failures[result.failure] = (
        report.payload_failures.get(result.failure, 0) + 1
    )
    if result.plaintext is not None:
        report.violate(
            "no-plaintext-on-auth-failure",
            session,
            f"open of {record} failed with {result.failure!r} but released "
            "plaintext",
        )
    if expected is not None:
        report.violate(
            "rekey-preserves-continuity",
            session,
            f"untouched {record} failed to open ({result.failure!r}) at "
            f"epoch {link.epoch}",
        )


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
    check = partial(_check_delivery, report, session_index, link, legit)
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
            expected = plaintext if blob is wire else None
            check(blob, result, expected, f"message {message_index}")
        if link.rekeys_completed > rekeys_seen and not link.closed:
            # One canary each way, sealed right after the rekey: whatever
            # epoch sealing it rolls into, it opens first try.
            rekeys_seen = link.rekeys_completed
            for role in _ROLES:
                canary = f"canary-{seed}-{session_index}-{role}".encode()
                sealed = link.seal(role, canary)
                if sealed is None:
                    break
                legit.add(sealed)
                history.append(sealed)
                result = link.deliver(_PEER[role], sealed)
                if result is None:
                    break
                check(sealed, result, canary, f"post-rekey canary from {role}")

    # Burst: one ``seal_records`` and one ``deliver_records`` call per
    # direction.  The burst fits the epoch's remaining seal capacity, so
    # no records-trigger rekey fires mid-burst (a zero-grace policy
    # would legitimately expire the pre-rekey records in flight); rekey
    # crossings are the sequential loop's and the canary's job.
    if not link.closed:
        desired = int(rng.integers(3, 7))
        for sender in _ROLES:
            if link.closed:
                break
            capacity = link.epoch_capacity(sender)
            if capacity < 1:
                continue
            payloads = [
                f"chaos-{seed}-{session_index}-burst-{sender}-{i}".encode()
                for i in range(min(desired, capacity))
            ]
            wires = link.seal_records(sender, payloads)
            legit.update(wires)
            history.extend(wires)
            results = link.deliver_records(_PEER[sender], wires)
            for index, result in enumerate(results):
                record = f"batched record {index} from {sender}"
                check(wires[index], result, payloads[index], record)
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
