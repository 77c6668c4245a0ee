"""Counters the key-establishment server exposes for health monitoring.

Every robustness behaviour the server promises -- shedding instead of
hanging, reaping instead of leaking, degrading instead of silently
failing -- increments a counter here, so the chaos harness (and an
operator's health endpoint) can verify the behaviour actually happened.
In particular ``degraded_sessions`` makes the InferenceGuard's
quantizer-fallback mode a *counted* observation: a session that served a
key in degraded mode is never silent in server metrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict


@dataclass
class ServerMetrics:
    """Monotonic counters over one server's lifetime.

    Attributes:
        accepted: Sessions admitted past the hello handshake.
        rejected_overload: Sessions shed with a structured retry-after
            because the ingress queue (or session table) was full.
        rejected_draining: Sessions refused because the server was
            draining.
        rejected_duplicate: Sessions refused because a live session
            already owned the claimed session id.
        completed: Sessions that received a key-establishment outcome.
        succeeded: Completed sessions whose outcome was a confirmed key.
        failed: Completed sessions whose outcome carried a failure.
        degraded_sessions: Completed sessions served in a degraded mode
            (InferenceGuard quantizer fallback); counted so degradation
            is never silent.
        aborted: Sessions ended by a server-side abort, by reason slug.
        reaped_idle: Sessions aborted by the idle reaper.
        reaped_deadline: Sessions aborted by the end-to-end deadline.
        disconnects: Peers that dropped the transport mid-session.
        malformed_frames: Frames rejected by the framing layer.
        ticks: Batch ticks executed.
        tick_sessions_max: Largest number of sessions coalesced into one
            tick.
        batch_fallbacks: Ticks whose batched run failed and fell back to
            supervised per-session execution (failure isolation).
        model_reloads: Successful hot-reloads of the model registry.
        model_reload_failures: Rejected (corrupt/mismatched) reloads that
            rolled back to the serving generation.
        channels_opened: Secure data-phase channels established after a
            successful key exchange.
        secure_records: AEAD records received on data-phase channels.
        secure_batches: Data-phase drain passes executed; every burst of
            consecutive already-arrived ``secure`` frames (even a burst
            of one) is opened and echoed through the channel's batched
            APIs as one pass.
        secure_batch_records_max: Largest number of records any single
            drain pass coalesced -- > 1 proves the batched path actually
            engaged under load.
        secure_echoed: Records that opened successfully and were echoed
            back under the server's send keys.
        secure_open_failures: Failed record opens, by failure slug from
            the channel's closed taxonomy.
        channels_closed: Data-phase channels the server closed with a
            structured ``channel-closed`` frame (decrypt budget
            exhausted, send nonce space exhausted), by reason.
        recoveries: Journal recovery passes this server performed at
            startup (0 on a fresh journal, 1 after surviving a crash).
        recovered_orphans: Sessions found non-terminal in the journal at
            recovery and aborted with ``recovered-after-crash``.
        resumed_sessions: Reconnecting clients whose resumption token
            was honoured (live re-attach or idempotent redelivery of a
            journaled outcome).
        journal_records: Records appended to the write-ahead journal
            over this server's lifetime.
    """

    accepted: int = 0
    rejected_overload: int = 0
    rejected_draining: int = 0
    rejected_duplicate: int = 0
    completed: int = 0
    succeeded: int = 0
    failed: int = 0
    degraded_sessions: int = 0
    aborted: Dict[str, int] = field(default_factory=dict)
    reaped_idle: int = 0
    reaped_deadline: int = 0
    disconnects: int = 0
    malformed_frames: int = 0
    ticks: int = 0
    tick_sessions_max: int = 0
    batch_fallbacks: int = 0
    model_reloads: int = 0
    model_reload_failures: int = 0
    channels_opened: int = 0
    secure_records: int = 0
    secure_batches: int = 0
    secure_batch_records_max: int = 0
    secure_echoed: int = 0
    secure_open_failures: Dict[str, int] = field(default_factory=dict)
    channels_closed: Dict[str, int] = field(default_factory=dict)
    recoveries: int = 0
    recovered_orphans: int = 0
    resumed_sessions: int = 0
    journal_records: int = 0

    def record_abort(self, reason: str) -> None:
        """Count one server-side session abort by its taxonomy slug."""
        self.aborted[reason] = self.aborted.get(reason, 0) + 1

    def record_open_failure(self, failure: str) -> None:
        """Count one failed data-phase record open by its failure slug."""
        self.secure_open_failures[failure] = (
            self.secure_open_failures.get(failure, 0) + 1
        )

    def record_channel_close(self, reason: str) -> None:
        """Count one structured data-phase channel close by its reason."""
        self.channels_closed[reason] = self.channels_closed.get(reason, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy for the ``status`` frame / logs.

        Keys follow the field order; the per-slug dicts are copies.
        """
        return asdict(self)
