"""Per-device session state for the key-establishment server.

Each connected device owns one :class:`DeviceSession`: its authenticated
state machine (the same :class:`~repro.core.statemachine.SessionStateMachine`
the library path uses, driven through the never-raising
:meth:`~repro.core.statemachine.SessionStateMachine.on_event`), its
liveness budgets (end-to-end deadline and idle timeout), and the future
its connection handler awaits for the batch tick's outcome.  The session
is the unit of failure isolation: everything that can go wrong with one
device -- stalls, disconnects, poisoned frames, batch-side errors --
terminates *this* record with a taxonomized abort and never another
session's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import KeyEstablishmentOutcome
from repro.core.statemachine import (
    SessionAbort,
    SessionEvent,
    SessionStateMachine,
)
from repro.secure import SecureChannel


@dataclass
class DeviceSession:
    """One device's server-side session record.

    Attributes:
        session_id: The device-chosen id (unique among live sessions).
        episode: Episode label the session's probing burst uses.
        rounds: Probing rounds requested (``None``: the server default).
        machine: The authenticated session state machine; all server
            events go through its never-raising ``on_event`` driver.
        created_s: Monotonic admission time.
        last_activity_s: Monotonic time of the last frame from the peer.
        deadline_s: Absolute monotonic end-to-end deadline.
        idle_timeout_s: Budget between peer frames before reaping.
        outcome: The establishment outcome once a tick produced one.
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
        verdict_frame: The terminal frame as sent, cached for idempotent
            redelivery on re-attach (the channel object is *not* in it).
        outcome_journaled: The terminal outcome record reached the
            journal (guards against double-journaling on re-attach).
    """

    session_id: str
    episode: str
    rounds: Optional[int] = None
    machine: SessionStateMachine = field(default_factory=SessionStateMachine)
    created_s: float = field(default_factory=time.monotonic)
    last_activity_s: float = field(default_factory=time.monotonic)
    deadline_s: float = 0.0
    idle_timeout_s: float = 30.0
    outcome: Optional[KeyEstablishmentOutcome] = None
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
        """Whether the state machine reached COMPLETE or ABORTED."""
        return self.machine.terminal

    @property
    def abort_record(self) -> Optional[SessionAbort]:
        """The abort that ended this session, if any."""
        return self.machine.abort_record

    def abort(self, event: SessionEvent, detail: str = "") -> Optional[SessionAbort]:
        """Drive an abort event through the machine and resolve the future.

        Idempotent and never raises: a session that is already terminal
        keeps its first verdict, and the result future is only resolved
        once.
        """
        record = self.machine.on_event(event, detail)
        if record is not None and not self._result.done():
            self._result.set_result(record)
        return record

    def complete(self, outcome: KeyEstablishmentOutcome) -> None:
        """Deliver a tick's outcome and mirror it onto the state machine.

        The server-side machine walks the same phases the in-process
        session walked, so ``final_state``/abort taxonomy agree between
        the library path and the served path.  A session that aborted
        server-side first (reaped, disconnected) keeps its abort; the
        late outcome is dropped -- it carried no key to the peer.
        """
        if self.machine.terminal:
            return
        self.outcome = outcome
        result = outcome.session
        self.machine.on_event(SessionEvent.START)
        if result.abort is not None:
            # Replay the in-session abort onto the server machine.
            self.machine.abort(result.abort.reason, result.abort.detail)
        elif result.n_blocks == 0:
            self.machine.on_event(SessionEvent.NO_BLOCKS)
        else:
            self.machine.on_event(SessionEvent.BLOCKS_READY)
            if result.verified_blocks and result.final_key_alice is not None:
                self.machine.on_event(SessionEvent.SYNDROMES_VERIFIED)
                self.machine.on_event(SessionEvent.CONFIRM_OK)
            else:
                self.machine.on_event(SessionEvent.RECONCILE_EXHAUSTED)
        if not self._result.done():
            self._result.set_result(outcome)
