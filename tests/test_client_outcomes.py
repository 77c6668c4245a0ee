"""``DeviceClient`` outcomes against a scripted peer (no training).

The peer is a loopback asyncio server that plays a script: for each
frame type it reads, it answers with the scripted frames or, for a type
the script does not name, closes the connection.  One table pins, per
case, the outcome the client reports -- behavior, kind, terminal frame
type, retries, resumption token -- and the frame types the peer read on
each connection, so every way the admission-to-verdict handshake can
end is fixed without a trained pipeline or a real server.
"""

import asyncio

import pytest

from repro.server import DeviceClient, Endpoint, run_behavior
from repro.server.framing import FrameError, FrameReader, write_frame

SESSION_ID = "dev-scripted"
TOKEN = "feedface" * 4
TIMEOUT_S = 5.0

WELCOME = {
    "type": "welcome",
    "session_id": SESSION_ID,
    "idle_timeout_s": 5.0,
    "deadline_s": 30.0,
    "resume_token": TOKEN,
}
RESUMED = {
    "type": "welcome",
    "session_id": SESSION_ID,
    "resumed": True,
    "resume_token": TOKEN,
    "idle_timeout_s": 5.0,
    "deadline_s": 30.0,
}
RESULT = {"type": "result", "session_id": SESSION_ID, "success": False}
ABORT = {
    "type": "abort",
    "session_id": SESSION_ID,
    "reason": "malformed-frame",
    "detail": "scripted",
}
PONG = {"type": "pong"}


def rejected(reason: str) -> dict:
    return {
        "type": "rejected",
        "reason": reason,
        "detail": "scripted",
        "retry_after_s": 0.01,
    }


class ScriptedPeer:
    """Plays one ``{frame type: answers}`` script per accepted connection.

    A frame the peer cannot decode is logged under its
    :class:`FrameError` reason and answered like a frame of that type.
    Connections past the end of the script are closed at once.
    """

    def __init__(self, script):
        self.script = list(script)
        self.reads = []
        self.handlers = []

    async def handle(self, reader, writer):
        self.handlers.append(asyncio.current_task())
        index = len(self.reads)
        answers = self.script[index] if index < len(self.script) else {}
        read = []
        self.reads.append(read)
        frames = FrameReader(reader)
        try:
            while True:
                try:
                    frame = await frames.read()
                except FrameError as error:
                    kind = error.reason
                else:
                    if frame is None:
                        break
                    kind = frame.get("type")
                read.append(kind)
                if kind not in answers:
                    break
                for answer in answers[kind]:
                    await write_frame(writer, answer)
        except (OSError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass


def client(endpoint, retries):
    return DeviceClient(
        endpoint,
        SESSION_ID,
        timeout_s=TIMEOUT_S,
        max_admission_retries=retries,
        retry_seed=0,
    )


def establish(behavior="normal", retries=0):
    return lambda endpoint: client(endpoint, retries).establish(behavior)


def resume(retries=0):
    return lambda endpoint: client(endpoint, retries).resume_session(TOKEN)


def behave(behavior):
    return lambda endpoint: run_behavior(
        endpoint, behavior, SESSION_ID, timeout_s=TIMEOUT_S
    )


#: ``(id, call, script, (behavior, kind, frame type, retries, token), reads)``
CASES = [
    # -- establish --------------------------------------------------------
    (
        "establish-result",
        establish(),
        [{"hello": [WELCOME], "start": [RESULT]}],
        ("normal", "result", "result", 0, TOKEN),
        [["hello", "start"]],
    ),
    (
        "establish-abort",
        establish(),
        [{"hello": [WELCOME], "start": [ABORT]}],
        ("normal", "abort", "abort", 0, TOKEN),
        [["hello", "start"]],
    ),
    (
        "establish-close-at-hello",
        establish(),
        [{}],
        ("normal", "closed", None, 0, ""),
        [["hello"]],
    ),
    (
        "establish-close-after-start",
        establish(),
        [{"hello": [WELCOME]}],
        ("normal", "disconnected", None, 0, TOKEN),
        [["hello", "start"]],
    ),
    (
        "establish-two-rejections-then-result",
        behave("normal-retry"),
        [
            {"hello": [rejected("server-overloaded")]},
            {"hello": [rejected("server-overloaded")]},
            {"hello": [WELCOME], "start": [RESULT]},
        ],
        ("normal-retry", "result", "result", 2, TOKEN),
        [["hello"], ["hello"], ["hello", "start"]],
    ),
    (
        "establish-rejections-past-the-budget",
        establish("normal-retry", retries=1),
        [
            {"hello": [rejected("server-overloaded")]},
            {"hello": [rejected("server-draining")]},
        ],
        ("normal-retry", "rejected", "rejected", 1, ""),
        [["hello"], ["hello"]],
    ),
    # -- resume_session ---------------------------------------------------
    (
        "resume-result",
        resume(),
        [{"hello": [RESUMED, dict(RESULT, resumed=True)]}],
        ("resume", "result", "result", 0, TOKEN),
        [["hello"]],
    ),
    (
        "resume-close-at-hello",
        resume(),
        [{}],
        ("resume", "disconnected", None, 0, TOKEN),
        [["hello"]],
    ),
    (
        "resume-duplicate-session-is-retried",
        resume(retries=1),
        [
            {"hello": [rejected("duplicate-session")]},
            {"hello": [RESUMED, dict(RESULT, resumed=True)]},
        ],
        ("resume", "result", "result", 1, TOKEN),
        [["hello"], ["hello"]],
    ),
    (
        "resume-unknown-token-is-final",
        resume(retries=3),
        [
            {"hello": [rejected("unknown-resumption-token")]},
            {"hello": [RESUMED, dict(RESULT, resumed=True)]},
        ],
        ("resume", "rejected", "rejected", 0, TOKEN),
        [["hello"]],
    ),
    # -- run_behavior -----------------------------------------------------
    (
        "ping-then-normal",
        behave("ping-then-normal"),
        [{"hello": [WELCOME], "ping": [PONG], "start": [RESULT]}],
        ("ping-then-normal", "result", "result", 0, ""),
        [["hello", "ping", "start"]],
    ),
    (
        "disconnect-after-start",
        behave("disconnect-after-start"),
        [{"hello": [WELCOME], "start": []}],
        ("disconnect-after-start", "closed", None, 0, ""),
        [["hello", "start"]],
    ),
    (
        "unknown-frame",
        behave("unknown-frame"),
        [{"hello": [WELCOME], "flood": [ABORT]}],
        ("unknown-frame", "abort", "abort", 0, ""),
        [["hello", "flood"]],
    ),
    (
        "corrupt-frame",
        behave("corrupt-frame"),
        [{"hello": [WELCOME], "frame-corrupt": [ABORT]}],
        ("corrupt-frame", "abort", "abort", 0, ""),
        [["hello", "frame-corrupt"]],
    ),
    (
        "abuser-rejected-at-hello",
        behave("oversized-frame"),
        [{"hello": [rejected("server-overloaded")]}],
        ("oversized-frame", "rejected", "rejected", 0, ""),
        [["hello"]],
    ),
    (
        "secure-rejected-at-hello",
        behave("secure-echo"),
        [{"hello": [rejected("server-overloaded")]}],
        ("secure-echo", "rejected", "rejected", 0, ""),
        [["hello"]],
    ),
    (
        "secure-unkeyed-result",
        behave("secure-echo"),
        [{"hello": [WELCOME], "start": [RESULT]}],
        ("secure-echo", "result", "result", 0, TOKEN),
        [["hello", "start"]],
    ),
    (
        "secure-close-after-start",
        behave("secure-tamper"),
        [{"hello": [WELCOME]}],
        ("secure-tamper", "disconnected", None, 0, TOKEN),
        [["hello", "start"]],
    ),
]


def play(call, script):
    """Run ``call(endpoint)`` against a peer playing ``script``."""

    async def body():
        peer = ScriptedPeer(script)
        server = await asyncio.start_server(peer.handle, "127.0.0.1", 0)
        endpoint = Endpoint(port=server.sockets[0].getsockname()[1])
        try:
            outcome = await call(endpoint)
        finally:
            server.close()
            await server.wait_closed()
        await asyncio.wait_for(asyncio.gather(*peer.handlers), timeout=TIMEOUT_S)
        return outcome, peer.reads

    return asyncio.run(body())


@pytest.mark.parametrize(
    "call, script, expected, reads",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_outcome_against_scripted_peer(call, script, expected, reads):
    outcome, peer_reads = play(call, script)
    frame_type = None if outcome.frame is None else outcome.frame.get("type")
    got = (
        outcome.behavior,
        outcome.kind,
        frame_type,
        outcome.retries,
        outcome.resume_token,
    )
    assert got == expected, outcome
    assert peer_reads == reads
    assert outcome.session_id == SESSION_ID
