"""Explicit authenticated state machine for the key-agreement session.

The session layer used to track its progress implicitly (local variables
inside ``KeyAgreementSession.run``); under an *active* adversary that is
not enough -- a replayed syndrome or a failed key-confirmation must drive
the whole session into a terminal, machine-readable abort state rather
than leaking a partially-derived key.  This module provides that skeleton:

- :class:`SessionState` -- the five phases plus the two terminal states;
- :class:`SessionStateMachine` -- transition validation (an illegal
  transition is a programming error and raises immediately);
- :class:`SessionAbort` -- the structured record of *why* a session
  aborted, carried on :class:`~repro.core.session.SessionResult` and
  surfaced as ``KeyEstablishmentOutcome.failure_reason``.

The machine runs once per session, inside
:meth:`~repro.core.session.KeyAgreementSession.exchange`, for library and
served sessions alike; the session server keeps no machine of its own
(see :class:`~repro.server.session.DeviceSession`).

The abort taxonomy (every slug an attacker-triggered abort can carry).
Message-level reasons (the original four):

========================= ====================================================
``replay-detected``       A message carried a stale session nonce.
``malformed-message``     Structurally invalid message (bad block index,
                          empty nonce, unknown block).
``mac-verification-failed`` Every received syndrome failed its MAC -- the
                          exchange was tampered with wholesale.
``confirmation-failed``   The final key-confirmation hash exchange did not
                          verify; no key is released.
========================= ====================================================

Server-level reasons (the session server's liveness/transport taxonomy;
a misbehaving, slow or disconnecting peer must end in one of these, never
in an exception):

========================= ====================================================
``deadline-exceeded``     The session overran its end-to-end deadline.
``idle-timeout``          The peer went quiet past the idle budget and was
                          reaped.
``client-disconnected``   The transport dropped mid-session.
``malformed-frame``       A wire frame was truncated, oversized or not
                          decodable.
``server-overloaded``     The ingress queue was full; the session was shed
                          with a structured retry-after.
``server-draining``       The server is draining (SIGTERM); no new work is
                          admitted.
``internal-error``        A server-side failure was isolated to this
                          session instead of poisoning its batch tick.
``secure-channel-failed`` The post-establishment secure data phase was
                          misused (a secure record before establishment
                          completed, or with no channel negotiated).
``recovered-after-crash`` The server crashed while this session was live;
                          recovery replayed the journal and aborted the
                          orphan (the client resumes with its token and
                          receives this structured outcome, never a
                          recomputed key).
========================= ====================================================

A second connection claiming a live session (its session id, or its
resumption token while attached) is not aborted: admission rejects it
with a ``duplicate-session`` rejection and the live session carries on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.exceptions import ProtocolError

#: Abort reason slugs (the complete taxonomy; see the module docstring).
ABORT_REPLAY = "replay-detected"
ABORT_MALFORMED = "malformed-message"
ABORT_MAC = "mac-verification-failed"
ABORT_CONFIRMATION = "confirmation-failed"

#: Server-level abort slugs (liveness, transport and load management).
ABORT_DEADLINE = "deadline-exceeded"
ABORT_IDLE = "idle-timeout"
ABORT_DISCONNECT = "client-disconnected"
ABORT_FRAME = "malformed-frame"
ABORT_OVERLOAD = "server-overloaded"
ABORT_DRAINING = "server-draining"
ABORT_INTERNAL = "internal-error"
ABORT_SECURE = "secure-channel-failed"
ABORT_RECOVERED = "recovered-after-crash"

#: All valid abort reasons, for validation and reporting.
ABORT_REASONS = (
    ABORT_REPLAY,
    ABORT_MALFORMED,
    ABORT_MAC,
    ABORT_CONFIRMATION,
    ABORT_DEADLINE,
    ABORT_IDLE,
    ABORT_DISCONNECT,
    ABORT_FRAME,
    ABORT_OVERLOAD,
    ABORT_DRAINING,
    ABORT_INTERNAL,
    ABORT_SECURE,
    ABORT_RECOVERED,
)


class SessionState(Enum):
    """Phases of one authenticated key-agreement session."""

    #: Session constructed, nothing exchanged yet.
    INIT = "init"
    #: Windowing, bit extraction and consensus masking.
    EXTRACTING = "extracting"
    #: Syndrome exchange and MAC verification.
    RECONCILING = "reconciling"
    #: Key-confirmation hash exchange over the amplified key.
    CONFIRMING = "confirming"
    #: Terminal: both parties hold the confirmed key (or cleanly hold none).
    COMPLETE = "complete"
    #: Terminal: the session was aborted; no key material is released.
    ABORTED = "aborted"


#: Legal transitions.  EXTRACTING may complete directly (a trace too short
#: to yield a block skips reconciliation), and every non-terminal state may
#: abort.
_TRANSITIONS: Dict[SessionState, Set[SessionState]] = {
    SessionState.INIT: {SessionState.EXTRACTING, SessionState.ABORTED},
    SessionState.EXTRACTING: {
        SessionState.RECONCILING,
        SessionState.COMPLETE,
        SessionState.ABORTED,
    },
    SessionState.RECONCILING: {
        SessionState.CONFIRMING,
        SessionState.COMPLETE,
        SessionState.ABORTED,
    },
    SessionState.CONFIRMING: {SessionState.COMPLETE, SessionState.ABORTED},
    SessionState.COMPLETE: set(),
    SessionState.ABORTED: set(),
}


@dataclass(frozen=True)
class SessionAbort:
    """Why (and where) a session was aborted.

    Attributes:
        reason: One of :data:`ABORT_REASONS` -- the machine-readable slug
            mirrored into ``KeyEstablishmentOutcome.failure_reason``.
        detail: Human-readable description of the triggering event.
        state: Name of the :class:`SessionState` the session was in when
            the abort fired.
    """

    reason: str
    detail: str
    state: str

    def __post_init__(self) -> None:
        if self.reason not in ABORT_REASONS:
            raise ProtocolError(
                f"unknown abort reason {self.reason!r}; valid: {ABORT_REASONS}"
            )


class SessionStateMachine:
    """Tracks and validates one session's progression.

    The machine protects against *programming* errors (an illegal
    transition raises :class:`~repro.exceptions.ProtocolError`
    immediately), while :meth:`abort` records *protocol* failures as
    structured :class:`SessionAbort` data -- attacker-controlled input
    must never raise out of the session, only abort it.
    """

    def __init__(self) -> None:
        self.state = SessionState.INIT
        #: Every state visited, in order (diagnostics / tests).
        self.history: List[SessionState] = [SessionState.INIT]
        self.abort_record: Optional[SessionAbort] = None

    def advance(self, new_state: SessionState) -> None:
        """Move to ``new_state``; raises on an illegal transition."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ProtocolError(
                f"illegal session transition {self.state.value} -> "
                f"{new_state.value}"
            )
        self.state = new_state
        self.history.append(new_state)

    def abort(self, reason: str, detail: str) -> SessionAbort:
        """Abort the session from its current state; returns the record.

        Idempotent: a second abort keeps the first record (the first
        detected violation is the one reported).
        """
        if self.abort_record is not None:
            return self.abort_record
        record = SessionAbort(reason=reason, detail=detail, state=self.state.value)
        self.advance(SessionState.ABORTED)
        self.abort_record = record
        return record

    @property
    def terminal(self) -> bool:
        """Whether the session has reached COMPLETE or ABORTED."""
        return not _TRANSITIONS[self.state]

    @property
    def aborted(self) -> bool:
        """Whether the session ended in the ABORTED state."""
        return self.state is SessionState.ABORTED
