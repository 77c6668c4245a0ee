"""Unit tests for the authenticated session state machine."""

import pytest

from repro.core.statemachine import (
    ABORT_MAC,
    ABORT_REASONS,
    ABORT_REPLAY,
    SessionAbort,
    SessionState,
    SessionStateMachine,
)
from repro.exceptions import ProtocolError


class TestTransitions:
    def test_happy_path(self):
        machine = SessionStateMachine()
        for state in (
            SessionState.EXTRACTING,
            SessionState.RECONCILING,
            SessionState.CONFIRMING,
            SessionState.COMPLETE,
        ):
            machine.advance(state)
        assert machine.terminal
        assert not machine.aborted
        assert machine.history[0] is SessionState.INIT
        assert machine.history[-1] is SessionState.COMPLETE

    def test_extracting_may_complete_directly(self):
        machine = SessionStateMachine()
        machine.advance(SessionState.EXTRACTING)
        machine.advance(SessionState.COMPLETE)
        assert machine.terminal

    def test_illegal_transition_raises(self):
        machine = SessionStateMachine()
        with pytest.raises(ProtocolError, match="illegal session transition"):
            machine.advance(SessionState.CONFIRMING)

    def test_terminal_states_are_final(self):
        machine = SessionStateMachine()
        machine.advance(SessionState.EXTRACTING)
        machine.advance(SessionState.COMPLETE)
        with pytest.raises(ProtocolError):
            machine.advance(SessionState.ABORTED)


class TestAbort:
    def test_abort_from_any_nonterminal_state(self):
        for prefix in ([], [SessionState.EXTRACTING],
                       [SessionState.EXTRACTING, SessionState.RECONCILING]):
            machine = SessionStateMachine()
            for state in prefix:
                machine.advance(state)
            record = machine.abort(ABORT_REPLAY, "stale nonce")
            assert machine.aborted and machine.terminal
            assert record.reason == ABORT_REPLAY
            assert record.state == (prefix[-1].value if prefix else "init")

    def test_abort_is_idempotent_first_wins(self):
        machine = SessionStateMachine()
        machine.advance(SessionState.EXTRACTING)
        first = machine.abort(ABORT_REPLAY, "first")
        second = machine.abort(ABORT_MAC, "second")
        assert second is first
        assert machine.abort_record.reason == ABORT_REPLAY
        assert machine.abort_record.detail == "first"

    def test_unknown_abort_reason_rejected(self):
        with pytest.raises(ProtocolError, match="unknown abort reason"):
            SessionAbort(reason="not-a-reason", detail="x", state="init")

    def test_taxonomy_is_closed(self):
        # 4 protocol slugs from the original machine, the 7 server-path
        # slugs (liveness, transport, load, supervisor), the secure
        # data-phase slug and the crash-recovery slug;
        # tests/test_server_sessions.py::TestOneVerdict aborts a live
        # server session with each of the nine slugs the server uses.
        assert len(ABORT_REASONS) == 13
        assert len(set(ABORT_REASONS)) == 13
        for reason in ABORT_REASONS:
            SessionAbort(reason=reason, detail="d", state="reconciling")
