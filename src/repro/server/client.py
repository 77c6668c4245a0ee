"""Device-side client for the key-establishment server.

:class:`DeviceClient` implements the honest protocol -- hello, start,
await the result frame -- and doubles as the chaos harness's attack
driver: :func:`run_behavior` executes one of a closed set of
*behaviors*, most of which deliberately violate the protocol
(disconnect mid-phase, slow-loris a frame, send garbage bytes, claim an
oversized frame) so the harness can verify the server sheds, reaps or
aborts them without hanging or leaking.  Every behavior resolves to a
:class:`ClientOutcome` -- including the misbehaving ones, whose
"outcome" is whatever structured verdict (or clean close) the server
answered with.

Two behavior families exercise the post-establishment machinery: the
``secure-*`` behaviors negotiate an encrypted data phase and round-trip
AEAD records (``secure-tamper`` additionally proves a flipped bit is
answered with ``secure-error`` and never plaintext), and
``normal-retry`` honors structured shedding -- on a rejection carrying
``retry_after_s`` it disconnects, backs off with capped seeded jitter,
and reconnects.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.secure import (
    ChannelContext,
    NonceLedger,
    SecureChannel,
    derive_channel_keys,
)
from repro.server.framing import FrameReader, encode_frame, write_frame

#: The closed set of client behaviors the chaos harness draws from.
BEHAVIORS = (
    "normal",
    "normal-retry",
    "ping-then-normal",
    "secure-echo",
    "secure-tamper",
    "disconnect-after-hello",
    "disconnect-after-start",
    "slow-loris",
    "corrupt-frame",
    "oversized-frame",
    "unknown-frame",
    "silent",
)


@dataclass
class ClientOutcome:
    """What one client interaction ended with.

    Attributes:
        session_id: The session id the client claimed.
        behavior: The behavior slug that was executed.
        kind: ``"result"`` (establishment outcome delivered),
            ``"abort"`` (taxonomized server abort), ``"rejected"``
            (structured admission rejection), ``"closed"`` (server
            closed without a terminal frame -- legal only for behaviors
            that disconnect first), ``"disconnected"`` (the transport
            dropped mid-session against a journaling server -- the
            outcome carries the resumption token, so the caller can
            distinguish "reconnect and resume" from a rejection or
            abort), or ``"error"`` (transport error on the client side
            with no resumption path).
        frame: The terminal server frame, when one arrived.
        detail: Free-text context (transport error strings; for secure
            behaviors, ``payload-invariant:<name>`` when the client-side
            payload check failed).
        retries: Admission retries spent before this outcome.
        resume_token: The resumption token the server minted at
            admission (empty on non-journaling servers); populated on
            every kind, but load-bearing on ``"disconnected"``.
    """

    session_id: str
    behavior: str
    kind: str
    frame: Optional[dict] = None
    detail: str = ""
    retries: int = 0
    resume_token: str = ""

    @property
    def structured(self) -> bool:
        """Whether the server answered with a structured verdict."""
        return self.kind in ("result", "abort", "rejected")


@dataclass
class Endpoint:
    """Where the server listens: TCP host/port or a unix socket path."""

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: Optional[str] = None

    async def connect(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Open one stream connection to the endpoint."""
        if self.unix_path is not None:
            return await asyncio.open_unix_connection(self.unix_path)
        return await asyncio.open_connection(self.host, self.port)


@dataclass
class DeviceClient:
    """One honest (or deliberately misbehaving) device.

    Attributes:
        endpoint: Where to connect.
        session_id: Session id to claim in the hello frame.
        episode: Episode label for the probing burst.
        rounds: Probing rounds to request (``None``: server default).
        timeout_s: Client-side budget for each await on the server.
        data: Request an encrypted data phase in the hello frame.
        max_admission_retries: Reconnect attempts the client spends
            honoring structured rejections before giving up.
        backoff_cap_s: Hard ceiling on any single reconnect backoff.
        retry_seed: Seed of the backoff-jitter stream, so retry timing
            is reproducible.
        resume: A resumption token to present in the hello frame (the
            :meth:`resume_session` driver sets it).
        resume_token: The token the server minted for this session in
            its welcome frame (empty on non-journaling servers).
    """

    endpoint: Endpoint
    session_id: str
    episode: Optional[str] = None
    rounds: Optional[int] = None
    timeout_s: float = 60.0
    data: bool = False
    max_admission_retries: int = 0
    backoff_cap_s: float = 2.0
    retry_seed: Optional[int] = None
    resume: Optional[str] = None
    resume_token: str = ""
    _frames: Optional[FrameReader] = field(default=None, repr=False)
    _writer: Optional[asyncio.StreamWriter] = field(default=None, repr=False)

    async def connect(self) -> None:
        """Open the transport."""
        reader, self._writer = await self.endpoint.connect()
        self._frames = FrameReader(reader)

    async def close(self) -> None:
        """Close the transport (idempotent, swallows transport errors)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, ConnectionError):
                pass
            self._writer = None

    async def send(self, payload: dict) -> None:
        """Send one protocol frame."""
        await write_frame(self._writer, payload)

    async def recv(self) -> Optional[dict]:
        """Receive one frame (``None`` on clean server close).

        A frame already in the buffer is returned without waiting;
        ``timeout_s`` bounds only a real wait on the server.
        """
        frame = self._frames.buffered()
        if frame is not None:
            return frame
        return await asyncio.wait_for(self._frames.read(), timeout=self.timeout_s)

    async def hello(self) -> Optional[dict]:
        """Run the admission handshake; returns the server's answer.

        A welcome frame's ``resume_token`` (journaling servers) is
        captured onto :attr:`resume_token` for later reconnects.
        """
        frame = {"type": "hello", "session_id": self.session_id}
        if self.episode is not None:
            frame["episode"] = self.episode
        if self.rounds is not None:
            frame["rounds"] = self.rounds
        if self.data:
            frame["data"] = True
        if self.resume:
            frame["resume"] = self.resume
        await self.send(frame)
        answer = await self.recv()
        if answer is not None and answer.get("type") == "welcome":
            token = str(answer.get("resume_token") or "")
            if token:
                self.resume_token = token
        return answer

    async def establish(self, behavior: str = "normal") -> ClientOutcome:
        """Honest full exchange: hello, start, await the verdict.

        A structured admission rejection is honored, not fought: while
        ``max_admission_retries`` allows, the client disconnects, backs
        off for the server's ``retry_after_s`` hint (scaled per attempt,
        jittered by the seeded stream, capped at ``backoff_cap_s``) and
        reconnects.  The retries actually spent are reported on the
        outcome.
        """
        jitter = random.Random(self.retry_seed)
        attempt = 0
        while True:
            try:
                await self.connect()
                answer = await self.hello()
                if answer is None:
                    return ClientOutcome(
                        self.session_id, behavior, "closed", retries=attempt
                    )
                if answer.get("type") == "rejected":
                    if attempt >= self.max_admission_retries:
                        return ClientOutcome(
                            self.session_id,
                            behavior,
                            "rejected",
                            answer,
                            retries=attempt,
                        )
                    hint = float(answer.get("retry_after_s") or 0.1)
                    delay = min(
                        hint * (2.0**attempt) * (1.0 + 0.25 * jitter.random()),
                        self.backoff_cap_s,
                    )
                    attempt += 1
                    await self.close()
                    await asyncio.sleep(delay)
                    continue
                await self.send({"type": "start"})
                verdict = await self.recv()
                if verdict is None:
                    # Against a journaling server a mid-session close is
                    # not an undifferentiated failure: the caller gets a
                    # structured ``disconnected`` outcome carrying the
                    # resumption token and can reconnect with it.
                    kind = "disconnected" if self.resume_token else "closed"
                    return ClientOutcome(
                        self.session_id,
                        behavior,
                        kind,
                        retries=attempt,
                        resume_token=self.resume_token,
                    )
                kind = "result" if verdict.get("type") == "result" else "abort"
                return ClientOutcome(
                    self.session_id,
                    behavior,
                    kind,
                    verdict,
                    retries=attempt,
                    resume_token=self.resume_token,
                )
            except (OSError, asyncio.TimeoutError, ConnectionError) as error:
                outcome = _transport_outcome(self, behavior, error)
                outcome.retries = attempt
                return outcome
            finally:
                await self.close()

    async def resume_session(self, token: str) -> ClientOutcome:
        """Reconnect presenting a resumption token; await the verdict.

        Implements the client half of the resumption protocol: connect,
        hello with ``resume``, and read the terminal frame the server
        either re-delivers from its journal or delivers live once the
        pending tick settles.  A ``duplicate-session`` rejection (the
        server has not yet noticed the old transport died) is backed off
        with the same capped seeded jitter as admission retries and
        retried while ``max_admission_retries`` allows; any other
        rejection (notably ``unknown-resumption-token``) is final -- the
        caller establishes a fresh session instead.
        """
        self.resume = token
        self.resume_token = token
        jitter = random.Random(self.retry_seed)
        attempt = 0
        behavior = "resume"
        while True:
            try:
                await self.connect()
                answer = await self.hello()
                if answer is None:
                    return ClientOutcome(
                        self.session_id,
                        behavior,
                        "disconnected",
                        retries=attempt,
                        resume_token=token,
                    )
                if answer.get("type") == "rejected":
                    if (
                        answer.get("reason") == "duplicate-session"
                        and attempt < self.max_admission_retries
                    ):
                        hint = float(answer.get("retry_after_s") or 0.1)
                        delay = min(
                            hint
                            * (2.0**attempt)
                            * (1.0 + 0.25 * jitter.random()),
                            self.backoff_cap_s,
                        )
                        attempt += 1
                        await self.close()
                        await asyncio.sleep(delay)
                        continue
                    return ClientOutcome(
                        self.session_id,
                        behavior,
                        "rejected",
                        answer,
                        retries=attempt,
                        resume_token=token,
                    )
                verdict = await self.recv()
                if verdict is None:
                    return ClientOutcome(
                        self.session_id,
                        behavior,
                        "disconnected",
                        retries=attempt,
                        resume_token=token,
                    )
                kind = "result" if verdict.get("type") == "result" else "abort"
                return ClientOutcome(
                    self.session_id,
                    behavior,
                    kind,
                    verdict,
                    retries=attempt,
                    resume_token=token,
                )
            except (OSError, asyncio.TimeoutError, ConnectionError) as error:
                return ClientOutcome(
                    self.session_id,
                    behavior,
                    "disconnected",
                    detail=str(error),
                    retries=attempt,
                    resume_token=token,
                )
            finally:
                await self.close()


def channel_from_frame(
    channel_frame: dict,
    role: str = "initiator",
    ledger: Optional[NonceLedger] = None,
) -> SecureChannel:
    """Build one end of the data-phase channel from a result frame.

    The server's result frame carries a ``channel`` object (see
    ``KeyEstablishmentServer._open_channel``) with the device-side
    secret and the public KDF context; deriving from it here yields
    keys that match the server's responder channel bit for bit.  A
    resumed session's frame carries a bumped ``epoch``, so the rebuilt
    channel shares no keys with any pre-crash traffic.  Passing a
    ``ledger`` registers every nonce this end seals/accepts on it (the
    restart chaos sweep threads one through all its clients).
    """
    context = ChannelContext(
        session_nonce=bytes.fromhex(str(channel_frame["nonce"])),
        initiator_id=str(channel_frame.get("initiator_id", "alice")),
        responder_id=str(channel_frame.get("responder_id", "bob")),
        pipeline_fingerprint=str(channel_frame.get("fingerprint", "")),
        epoch=int(channel_frame.get("epoch", 0)),
    )
    keys = derive_channel_keys(
        bytes.fromhex(str(channel_frame["device_key"])), context
    )
    return SecureChannel(
        keys,
        role=role,
        max_sequence=int(channel_frame.get("max_records", 2**20)),
        replay_window=int(channel_frame.get("replay_window", 64)),
        ledger=ledger,
    )


def _retry_seed(session_id: str) -> int:
    """A per-session deterministic seed for the backoff-jitter stream."""
    return int.from_bytes(hashlib.sha256(session_id.encode()).digest()[:4], "big")


def _closed_kind(client: DeviceClient) -> str:
    """``disconnected`` when a resumption token is held, else ``closed``."""
    return "disconnected" if client.resume_token else "closed"


def _transport_outcome(
    client: DeviceClient, behavior: str, error: Exception
) -> ClientOutcome:
    """The outcome of a client-side transport error.

    ``disconnected`` (carrying the resumption token) when the client
    holds one, else ``error``.
    """
    return ClientOutcome(
        client.session_id,
        behavior,
        "disconnected" if client.resume_token else "error",
        detail=str(error),
        resume_token=client.resume_token,
    )


async def fetch_status(
    endpoint: Endpoint,
    session_id: str = "status-probe",
    timeout_s: float = 10.0,
) -> Optional[dict]:
    """Scrape a live server's metrics over the wire (``status`` frame).

    Returns the status frame -- ``{"type": "status", "metrics": {...}}``
    with the full :meth:`~repro.server.metrics.ServerMetrics.snapshot`
    counters dict -- or ``None`` when the server refused admission or
    the transport failed; never raises.
    """
    client = DeviceClient(endpoint, session_id, timeout_s=timeout_s)
    try:
        await client.connect()
        answer = await client.hello()
        if answer is None or answer.get("type") != "welcome":
            return None
        await client.send({"type": "status"})
        reply = await client.recv()
        if reply is None or reply.get("type") != "status":
            return None
        await client.send({"type": "bye"})
        return reply
    except (OSError, asyncio.TimeoutError, ConnectionError):
        return None
    finally:
        await client.close()


async def _run_secure_behavior(
    client: DeviceClient,
    behavior: str,
    session_id: str,
    ledger: Optional[NonceLedger] = None,
) -> ClientOutcome:
    """Establish with a data phase, then echo (and maybe tamper).

    ``secure-echo`` round-trips three records and verifies each echo
    decrypts to the sent plaintext; ``secure-tamper`` additionally sends
    a bit-flipped record and demands a ``secure-error`` answer that
    releases no plaintext.  A client holding a resumption token in
    :attr:`DeviceClient.resume` re-attaches to its session instead of
    sending ``start``, and ``ledger`` (see :func:`channel_from_frame`)
    witnesses every nonce the client's channel seals and accepts.  A
    payload-invariant breach is reported as kind ``"error"`` with a
    ``payload-invariant:<name>`` detail so the chaos harness can
    attribute it.  Never raises.
    """
    client.data = True
    try:
        await client.connect()
        answer = await client.hello()
        if answer is None:
            return ClientOutcome(
                session_id, behavior, _closed_kind(client),
                resume_token=client.resume_token,
            )
        if answer.get("type") == "rejected":
            return ClientOutcome(
                session_id, behavior, "rejected", answer,
                resume_token=client.resume_token,
            )
        if not client.resume:
            await client.send({"type": "start"})
        verdict = await client.recv()
        if verdict is None:
            return ClientOutcome(
                session_id,
                behavior,
                _closed_kind(client),
                resume_token=client.resume_token,
            )
        if verdict.get("type") != "result":
            return ClientOutcome(
                session_id, behavior, "abort", verdict,
                resume_token=client.resume_token,
            )
        channel_frame = verdict.get("channel")
        if not verdict.get("success") or channel_frame is None:
            # Establishment failed; there is no channel to exercise.
            return ClientOutcome(
                session_id, behavior, "result", verdict,
                resume_token=client.resume_token,
            )
        channel = channel_from_frame(channel_frame, ledger=ledger)
        payloads = [f"{session_id}-echo-{index}".encode() for index in range(3)]
        # Pipelined: the burst is sealed as one batch and all records go
        # out back-to-back, so the server can drain them in one batched
        # pass; echoes come back in record order.
        for record in channel.seal_records(payloads):
            await client.send({"type": "secure", "record": record.hex()})
        for plaintext in payloads:
            reply = await client.recv()
            if reply is None:
                return ClientOutcome(
                    session_id,
                    behavior,
                    _closed_kind(client),
                    verdict,
                    resume_token=client.resume_token,
                )
            if reply.get("type") != "secure":
                return ClientOutcome(
                    session_id,
                    behavior,
                    "error",
                    reply,
                    detail="payload-invariant:rekey-preserves-continuity",
                    resume_token=client.resume_token,
                )
            opened = channel.open(bytes.fromhex(str(reply.get("record", ""))))
            if not opened.ok or opened.plaintext != plaintext:
                return ClientOutcome(
                    session_id,
                    behavior,
                    "error",
                    reply,
                    detail="payload-invariant:rekey-preserves-continuity",
                    resume_token=client.resume_token,
                )
        if behavior == "secure-tamper":
            record = bytearray(channel.seal(session_id.encode()))
            record[-1] ^= 0x01  # flip one tag bit: must fail authentication
            await client.send({"type": "secure", "record": bytes(record).hex()})
            reply = await client.recv()
            if reply is None:
                return ClientOutcome(
                    session_id,
                    behavior,
                    _closed_kind(client),
                    verdict,
                    resume_token=client.resume_token,
                )
            if reply.get("type") != "secure-error" or "record" in reply:
                return ClientOutcome(
                    session_id,
                    behavior,
                    "error",
                    reply,
                    detail="payload-invariant:no-plaintext-on-auth-failure",
                )
            if reply.get("failure") != "auth-failed":
                return ClientOutcome(
                    session_id,
                    behavior,
                    "error",
                    reply,
                    detail="payload-invariant:no-plaintext-on-auth-failure",
                )
        await client.send({"type": "bye"})
        return ClientOutcome(
            session_id, behavior, "result", verdict,
            resume_token=client.resume_token,
        )
    except (OSError, asyncio.TimeoutError, ConnectionError) as error:
        return _transport_outcome(client, behavior, error)
    finally:
        await client.close()


async def run_behavior(
    endpoint: Endpoint,
    behavior: str,
    session_id: str,
    episode: Optional[str] = None,
    rounds: Optional[int] = None,
    timeout_s: float = 60.0,
) -> ClientOutcome:
    """Execute one behavior against the server; never raises.

    Honest behaviors await a terminal frame.  Misbehaving behaviors do
    their damage and then read whatever the server answers (a
    taxonomized abort, or a clean close once the server reaped the
    session); a transport error on the client side is itself a legal
    outcome (kind ``"error"``) -- the invariants are checked on the
    *server's* metrics, not the attacker's experience.
    """
    client = DeviceClient(
        endpoint, session_id, episode=episode, rounds=rounds, timeout_s=timeout_s
    )
    if behavior == "normal":
        return await client.establish()
    if behavior == "normal-retry":
        client.max_admission_retries = 2
        client.retry_seed = _retry_seed(session_id)
        return await client.establish(behavior="normal-retry")
    if behavior in ("secure-echo", "secure-tamper"):
        return await _run_secure_behavior(client, behavior, session_id)
    try:
        await client.connect()
        if behavior == "ping-then-normal":
            answer = await client.hello()
            if answer is None or answer.get("type") == "rejected":
                return ClientOutcome(
                    session_id,
                    behavior,
                    "rejected" if answer else "closed",
                    answer,
                )
            await client.send({"type": "ping"})
            pong = await client.recv()
            if pong is None or pong.get("type") != "pong":
                return ClientOutcome(session_id, behavior, "closed", pong)
            await client.send({"type": "start"})
            verdict = await client.recv()
            if verdict is None:
                return ClientOutcome(session_id, behavior, "closed")
            kind = "result" if verdict.get("type") == "result" else "abort"
            return ClientOutcome(session_id, behavior, kind, verdict)
        if behavior == "disconnect-after-hello":
            await client.hello()
            return ClientOutcome(session_id, behavior, "closed")
        if behavior == "disconnect-after-start":
            answer = await client.hello()
            if answer is not None and answer.get("type") == "rejected":
                return ClientOutcome(session_id, behavior, "rejected", answer)
            await client.send({"type": "start"})
            return ClientOutcome(session_id, behavior, "closed")
        if behavior == "slow-loris":
            # A frame header promising bytes that trickle, then stop.
            answer = await client.hello()
            if answer is not None and answer.get("type") == "rejected":
                return ClientOutcome(session_id, behavior, "rejected", answer)
            partial = encode_frame({"type": "start"})[:-3]
            client._writer.write(partial)
            await client._writer.drain()
            verdict = await client.recv()  # the reaper's abort, or a close
            if verdict is None:
                return ClientOutcome(session_id, behavior, "closed")
            return ClientOutcome(session_id, behavior, "abort", verdict)
        if behavior == "corrupt-frame":
            answer = await client.hello()
            if answer is not None and answer.get("type") == "rejected":
                return ClientOutcome(session_id, behavior, "rejected", answer)
            body = b"\x00\xffnot-json\xfe"
            client._writer.write(len(body).to_bytes(4, "big") + body)
            await client._writer.drain()
            verdict = await client.recv()
            if verdict is None:
                return ClientOutcome(session_id, behavior, "closed")
            return ClientOutcome(session_id, behavior, "abort", verdict)
        if behavior == "oversized-frame":
            answer = await client.hello()
            if answer is not None and answer.get("type") == "rejected":
                return ClientOutcome(session_id, behavior, "rejected", answer)
            client._writer.write((2**31).to_bytes(4, "big"))
            await client._writer.drain()
            verdict = await client.recv()
            if verdict is None:
                return ClientOutcome(session_id, behavior, "closed")
            return ClientOutcome(session_id, behavior, "abort", verdict)
        if behavior == "unknown-frame":
            answer = await client.hello()
            if answer is not None and answer.get("type") == "rejected":
                return ClientOutcome(session_id, behavior, "rejected", answer)
            await client.send({"type": "flood", "junk": "x" * 128})
            verdict = await client.recv()
            if verdict is None:
                return ClientOutcome(session_id, behavior, "closed")
            return ClientOutcome(session_id, behavior, "abort", verdict)
        if behavior == "silent":
            # Connect and never even say hello; the hello timeout closes us.
            verdict = await client.recv()
            return ClientOutcome(session_id, behavior, "closed", verdict)
        raise ValueError(f"unknown behavior {behavior!r}")
    except (OSError, asyncio.TimeoutError, ConnectionError) as error:
        return _transport_outcome(client, behavior, error)
    finally:
        await client.close()
