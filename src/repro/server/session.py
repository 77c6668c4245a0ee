"""Per-device session state for the key-establishment server.

Each connected device owns one :class:`DeviceSession`: its liveness
budgets (end-to-end deadline and idle timeout) and its result future,
the session's one verdict.  The future resolves exactly once, to the
tick's :class:`~repro.core.pipeline.KeyEstablishmentOutcome` (whose
session already walked the authenticated state machine in
:meth:`~repro.core.session.KeyAgreementSession.exchange`) or to a
server-side :class:`~repro.core.statemachine.SessionAbort`; whichever
comes first wins.  The session is the unit of failure isolation:
everything that can go wrong with one device -- stalls, disconnects,
poisoned frames, batch-side errors -- terminates *this* record with a
taxonomized abort and never another session's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import KeyEstablishmentOutcome
from repro.core.statemachine import SessionAbort, SessionState
from repro.secure import SecureChannel


@dataclass
class DeviceSession:
    """One device's server-side session record.

    Attributes:
        session_id: The device-chosen id (unique among live sessions).
        episode: Episode label the session's probing burst uses.
        rounds: Probing rounds requested (``None``: the server default).
        created_s: Monotonic admission time.
        last_activity_s: Monotonic time of the last frame from the peer.
        deadline_s: Absolute monotonic end-to-end deadline.
        idle_timeout_s: Budget between peer frames before reaping.
        started: Whether the peer requested establishment (``start``).
        wants_data: Whether the hello frame requested an encrypted data
            phase after establishment (``"data": true``).
        channel: The server-side (responder) secure channel, built once
            a successful outcome is delivered to a ``wants_data`` peer.
        resume_token: Resumption token minted at admission when the
            server journals (empty otherwise).  The client presents it
            on reconnect; the journal keys all durable records by it.
        detached: The transport dropped but the session is being kept
            for a resumption window instead of being aborted (journaled
            servers only).
        verdict_frame: The result frame of a completed session, built
            once when the tick settles it; it is journaled as the outcome
            and sent (with any channel description added) as the verdict.
        outcome_journaled: The terminal outcome record reached the
            journal (guards against double-journaling on re-attach).
    """

    session_id: str
    episode: str
    rounds: Optional[int] = None
    created_s: float = field(default_factory=time.monotonic)
    last_activity_s: float = field(default_factory=time.monotonic)
    deadline_s: float = 0.0
    idle_timeout_s: float = 30.0
    started: bool = False
    wants_data: bool = False
    channel: Optional[SecureChannel] = None
    resume_token: str = ""
    detached: bool = False
    verdict_frame: Optional[dict] = None
    outcome_journaled: bool = False

    def __post_init__(self) -> None:
        self._result: asyncio.Future = asyncio.get_running_loop().create_future()

    @property
    def result(self) -> asyncio.Future:
        """Resolves to the session's terminal verdict.

        The value is the :class:`KeyEstablishmentOutcome` on completion
        or the :class:`SessionAbort` record on a server-side abort; the
        future is never resolved with an exception, so awaiting it
        cannot raise attacker-controlled errors into the handler.
        """
        return self._result

    def touch(self) -> None:
        """Record peer activity (resets the idle budget)."""
        self.last_activity_s = time.monotonic()

    def idle_expired(self, now: Optional[float] = None) -> bool:
        """Whether the peer has been quiet past its idle budget."""
        now = time.monotonic() if now is None else now
        return now - self.last_activity_s > self.idle_timeout_s

    def deadline_expired(self, now: Optional[float] = None) -> bool:
        """Whether the session overran its end-to-end deadline."""
        now = time.monotonic() if now is None else now
        return self.deadline_s > 0.0 and now > self.deadline_s

    @property
    def terminal(self) -> bool:
        """Whether the session has its verdict (see :attr:`result`)."""
        return self._result.done()

    def abort(self, reason: str, detail: str) -> bool:
        """End the session with a server-side abort.

        ``reason`` is a slug from
        :data:`~repro.core.statemachine.ABORT_REASONS`.  The record's
        ``state`` is ``init``: a server-side abort only wins before the
        tick delivered an outcome.  Returns whether this abort became the
        verdict; a session that already has one keeps it.
        """
        if self._result.done():
            return False
        self._result.set_result(
            SessionAbort(reason=reason, detail=detail, state=SessionState.INIT.value)
        )
        return True

    def complete(self, outcome: KeyEstablishmentOutcome) -> bool:
        """Deliver a tick's outcome; returns whether it became the verdict.

        A session that aborted server-side first (reaped, disconnected)
        keeps its abort; the late outcome is dropped -- it carried no key
        to the peer.
        """
        if self._result.done():
            return False
        self._result.set_result(outcome)
        return True
