"""Fault-tolerant asyncio key-establishment session server.

Accepts concurrent device sessions over the framed transport
(:mod:`repro.server.framing`), drives each through the authenticated
state machine (:mod:`repro.core.statemachine`), and coalesces ready
sessions into :class:`~repro.core.batch.BatchedSessionRunner` ticks so
the batched-inference fast path is amortized across whatever arrives
together.

The robustness contract, in order of importance:

- **Never hang, never raise.**  Misbehaving peers -- slow-loris frames,
  corrupt payloads, mid-phase disconnects, duplicate ids -- end in a
  taxonomized :class:`~repro.core.statemachine.SessionAbort`, reported
  on the wire when the peer is still there to hear it.
- **Backpressure with structured shedding.**  The ingress queue is
  bounded; a session that cannot be admitted receives a ``rejected``
  frame carrying ``retry_after_s`` and a clean close, never an
  unanswered socket.
- **Failure isolation.**  One poisoned session cannot take down its
  batch tick: a failed batched run falls back to supervised per-session
  execution, and a session that still fails aborts alone with
  ``internal-error``.
- **Liveness.**  A reaper task enforces per-session idle budgets and
  end-to-end deadlines, so wedged peers are reclaimed (no session leak)
  and the tick loop never waits on a client.
- **Graceful drain.**  On SIGTERM (or :meth:`KeyEstablishmentServer.drain`)
  in-flight sessions complete and deliver their results; unstarted
  sessions abort with ``server-draining`` and a retry-after; nothing is
  silently dropped.
- **Verified hot-reload.**  Between ticks the
  :class:`~repro.server.registry.ModelRegistry` may swap in a new model
  generation; corrupt artifacts roll back atomically and are counted.
- **Encrypted data phase.**  A peer whose hello carries ``"data": true``
  continues past a successful result frame into an AEAD-record echo
  phase (:mod:`repro.secure`): every record it sends is opened under the
  established key and the plaintext echoed back sealed under the
  server's send direction.  Failed opens answer a structured
  ``secure-error`` carrying the channel's closed failure taxonomy, a
  channel that exhausts its decrypt budget or send-nonce space ends with
  a ``channel-closed`` frame -- plaintext is never released, nonces are
  never reused, and nothing a peer sends to the channel can raise.
"""

from __future__ import annotations

import asyncio
import hashlib
import secrets
import signal
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.batch import BatchedSessionRunner
from repro.core.pipeline import KeyEstablishmentOutcome
from repro.core.statemachine import ABORT_RECOVERED, SessionEvent
from repro.server.framing import FrameError, FrameReader, write_frames
from repro.secure import (
    ChannelContext,
    NonceExhaustedError,
    NonceLedger,
    SecureChannel,
    derive_channel_keys,
    master_secret_from_result,
)
from repro.secure.channel import DEFAULT_REPLAY_WINDOW
from repro.server.crashpoints import CRASHPOINTS
from repro.server.journal import RecoveredSession, RecoveryState, SessionJournal
from repro.server.metrics import ServerMetrics
from repro.server.registry import ModelRegistry
from repro.server.session import DeviceSession
from repro.utils.validation import require_positive

#: Budget for writing one frame, or one data-phase burst of replies, to a
#: peer (a wedged receive buffer counts as a disconnect, not a stall).
SEND_TIMEOUT_S = 5.0

#: Default budget for a graceful drain.
DRAIN_TIMEOUT_S = 30.0

#: Most probing rounds a hello may ask for: 8x the default
#: ``PipelineConfig.session_rounds`` (512), the largest round count any
#: caller in the package asks for.
MAX_HELLO_ROUNDS = 4096


@dataclass(frozen=True)
class ServerConfig:
    """Liveness, backpressure and batching knobs of the session server.

    Attributes:
        host: TCP bind host (ignored when ``unix_path`` is set).
        port: TCP bind port (0 picks a free port; see ``bound_port``).
        unix_path: Bind to a unix socket instead of TCP when set.
        hello_timeout_s: Budget for the peer's first (``hello``) frame.
        idle_timeout_s: Budget between peer frames before the reaper
            aborts the session with ``idle-timeout``.
        session_deadline_s: End-to-end budget per session before the
            reaper aborts it with ``deadline-exceeded``.
        tick_interval_s: Coalescing window: how long a tick waits for
            more ready sessions after the first arrival.
        max_batch: Most sessions one tick may coalesce.
        shards: Fork workers each batch tick splits its sessions across
            (1 = in-process).  Outcomes are bit-identical for any value
            (see :class:`~repro.core.batch.BatchedSessionRunner`); raise
            it to scale ``repro serve`` past one core.
        queue_limit: Bounded ingress queue; a full queue sheds new
            sessions with ``server-overloaded`` + retry-after.
        max_sessions: Most live sessions the server admits at once.
        retry_after_s: The retry hint carried by shed/draining rejections.
        reap_interval_s: Period of the idle/deadline reaper sweep.
        secure_decrypt_budget: Failed record opens one data-phase channel
            tolerates before the server answers ``channel-closed``
            (``decrypt-budget-exceeded``) and ends the session.
        secure_max_records: Send-nonce space per data-phase channel;
            exhausting it closes the channel with a structured
            ``nonce-exhausted`` reason rather than ever reusing a nonce.
        secure_batch_max: Most already-arrived ``secure`` frames one
            data-phase burst coalesces into a single batched open/echo
            round and one write; the cap keeps one flooding peer from
            starving the event loop between writes.
        journal_dir: Directory of the crash-durability write-ahead
            journal (:mod:`repro.server.journal`).  ``None`` (the
            default) serves purely in memory with the pre-journal
            behaviour: no tokens, no detach-on-disconnect, no recovery.
        journal_fsync: Journal fsync policy: ``"always"``, ``"batch"``
            or ``"off"``; critical records (outcomes, deliveries,
            channel context) are fsync'd immediately in both non-off
            modes.
        journal_batch_records: In ``"batch"`` mode, fsync after this
            many unsynced non-critical appends.
    """

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: Optional[str] = None
    hello_timeout_s: float = 5.0
    idle_timeout_s: float = 30.0
    session_deadline_s: float = 120.0
    tick_interval_s: float = 0.05
    max_batch: int = 32
    shards: int = 1
    queue_limit: int = 64
    max_sessions: int = 1024
    retry_after_s: float = 1.0
    reap_interval_s: float = 0.5
    secure_decrypt_budget: int = 8
    secure_max_records: int = 2**20
    secure_batch_max: int = 64
    journal_dir: Optional[str] = None
    journal_fsync: str = "batch"
    journal_batch_records: int = 16

    def __post_init__(self) -> None:
        require_positive(self.max_batch, "max_batch")
        require_positive(self.shards, "shards")
        require_positive(self.queue_limit, "queue_limit")
        require_positive(self.max_sessions, "max_sessions")
        require_positive(self.secure_decrypt_budget, "secure_decrypt_budget")
        require_positive(self.secure_max_records, "secure_max_records")
        require_positive(self.secure_batch_max, "secure_batch_max")
        require_positive(self.journal_batch_records, "journal_batch_records")


@dataclass
class DrainReport:
    """What a graceful drain delivered and reclaimed.

    Attributes:
        delivered: Started sessions whose outcome was delivered (or was
            already terminal) during the drain.
        aborted_draining: Unstarted sessions aborted with
            ``server-draining`` (they may retry later).
        leaked: Sessions still registered after the drain -- the chaos
            harness asserts this is zero.
    """

    delivered: int = 0
    aborted_draining: int = 0
    leaked: int = 0


class KeyEstablishmentServer:
    """The asyncio session server around one :class:`ModelRegistry`.

    Args:
        registry: The model registry whose serving pipeline executes the
            coalesced session batches (hot-reload checks run between
            ticks).
        config: Liveness/backpressure/batching knobs.
        on_outcome: Optional observer called with every
            ``(DeviceSession, KeyEstablishmentOutcome)`` a tick produces;
            the chaos harness uses it to check the library-path safety
            invariants on the served path.
        nonce_ledger: Optional global nonce ledger shared by every
            data-phase channel the server opens; the chaos harness
            passes one to prove no ``(key, direction, sequence)`` triple
            is ever sealed or accepted twice across the whole sweep.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServerConfig] = None,
        on_outcome: Optional[
            Callable[[DeviceSession, KeyEstablishmentOutcome], None]
        ] = None,
        nonce_ledger: Optional[NonceLedger] = None,
    ):
        self.registry = registry
        self.config = config if config is not None else ServerConfig()
        self.metrics = ServerMetrics()
        self.on_outcome = on_outcome
        self.nonce_ledger = nonce_ledger
        if self.config.journal_dir is not None and self.nonce_ledger is None:
            # A journaling server always witnesses its own nonces: the
            # ledger's high-water marks are what recovery restores.
            self.nonce_ledger = NonceLedger()
        self.sessions: Dict[str, DeviceSession] = {}
        self.journal: Optional[SessionJournal] = None
        self._recovery = RecoveryState()
        self._live_tokens: Dict[str, DeviceSession] = {}
        self._pending: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._reaper_task: Optional[asyncio.Task] = None
        self._draining = False
        self._stopping = False
        self._closed = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------
    def journal_append(self, record: dict, critical: bool = False) -> None:
        """Append one record to the journal, if one is configured, and
        fold it into the resumable state recovery would rebuild."""
        if self.journal is None:
            return
        self.journal.append(record, critical=critical)
        self._recovery.apply(record)
        self.metrics.journal_records = self.journal.records_written

    def _recover_from_journal(self) -> None:
        """Open the journal; replay, truncate and restore on a restart.

        Orphans -- sessions the journal admitted but never saw a
        terminal outcome for -- are aborted *into the journal* with
        ``recovered-after-crash``, so a client resuming one receives a
        structured terminal outcome rather than silence, and the
        ``no-orphan-session-after-recovery`` invariant can be checked
        from the journal alone.  Nonce high-water marks are restored as
        ledger floors; channel context records keep their journaled
        epoch, and every resumption derives fresh keys at epoch + 1 --
        so even where a ``batch``-mode fsync lost the newest high-water
        record, the uncertain sequences sit under keys the resumed
        channel no longer uses.
        """
        self.journal = SessionJournal(
            self.config.journal_dir,
            fsync=self.config.journal_fsync,
            batch_records=self.config.journal_batch_records,
        )
        replay = self.journal.recover()
        for record in replay.records:
            self._recovery.apply(record)
        for key, high in self._recovery.nonce_floors.items():
            self.nonce_ledger.restore_floor(key[0], key[1], high)
        orphans = self._recovery.orphans()
        for token in orphans:
            self.journal_append(
                {
                    "t": "outcome",
                    "token": token,
                    "sid": self._recovery.admitted[token],
                    "kind": "abort",
                    "reason": ABORT_RECOVERED,
                    "detail": "server crashed while this session was live",
                },
                critical=True,
            )
            self.metrics.record_abort(ABORT_RECOVERED)
        self.metrics.recovered_orphans = len(orphans)
        if replay.records:
            self.metrics.recoveries = 1
            self.journal_append(
                {
                    "t": "recovery",
                    "replayed": len(replay.records),
                    "orphans": len(orphans),
                    "torn": replay.torn,
                },
                critical=True,
            )
        self.nonce_ledger.on_seal_advance = self._journal_nonce_floor
        self.metrics.journal_records = self.journal.records_written

    def _journal_nonce_floor(self, key_id: str, direction: int, high: int) -> None:
        """Ledger durability hook: persist a seal high-water advance."""
        self.journal_append(
            {"t": "nonce", "key": key_id, "dir": direction, "high": high}
        )

    async def start(self) -> None:
        """Bind the listening socket and start the tick/reaper tasks.

        When a journal directory is configured, recovery runs first:
        the journal's torn tail is truncated, orphaned sessions are
        aborted with ``recovered-after-crash``, and nonce floors are
        restored -- all before the first connection can be accepted.
        """
        if self.config.journal_dir is not None:
            self._recover_from_journal()
        self._pending = asyncio.Queue(maxsize=self.config.queue_limit)
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
        self._tick_task = asyncio.create_task(self._tick_loop())
        self._reaper_task = asyncio.create_task(self._reaper_loop())

    @property
    def bound_port(self) -> Optional[int]:
        """The TCP port actually bound (``None`` on a unix socket)."""
        if self._server is None or self.config.unix_path is not None:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """Whether the server is refusing new work."""
        return self._draining

    @property
    def closed(self) -> bool:
        """Whether the server has fully shut down (post-drain)."""
        return self._closed.is_set()

    @property
    def active_sessions(self) -> int:
        """Live (registered, not yet closed) sessions."""
        return len(self.sessions)

    def health(self) -> Dict[str, object]:
        """A JSON-serializable liveness/metrics snapshot."""
        return {
            "active_sessions": self.active_sessions,
            "queue_depth": 0 if self._pending is None else self._pending.qsize(),
            "draining": self._draining,
            "model_generation": self.registry.generation,
            "metrics": self.metrics.snapshot(),
        }

    async def drain(self, timeout: Optional[float] = None) -> DrainReport:
        """Gracefully drain: finish in-flight work, refuse new work, stop.

        Started sessions run to completion and their results are
        delivered; sessions that never started abort with
        ``server-draining`` (a structured signal to retry elsewhere or
        later).  Returns a :class:`DrainReport`; ``leaked`` is the
        number of sessions still registered when the budget ran out and
        must be zero on a healthy drain.
        """
        timeout = DRAIN_TIMEOUT_S if timeout is None else timeout
        self._draining = True
        report = DrainReport()
        # Unstarted sessions cannot make progress once draining: abort
        # them now so their handlers answer and release the connection.
        for session in list(self.sessions.values()):
            if not session.started and not session.terminal:
                self._abort_session(
                    session, SessionEvent.DRAINING, "server is draining"
                )
                report.aborted_draining += 1
        # Detached sessions have no handler to unregister them; end the
        # resumption window now (the journaled outcome stays resumable
        # on the next generation of the server).
        for session in list(self.sessions.values()):
            if session.detached:
                if not session.terminal:
                    self._abort_session(
                        session, SessionEvent.DRAINING, "server is draining"
                    )
                    report.aborted_draining += 1
                self._unregister(session)
        pending_results = [
            session.result
            for session in self.sessions.values()
            if not session.result.done()
        ]
        if pending_results:
            await asyncio.wait(pending_results, timeout=timeout)
        report.delivered = sum(
            1
            for session in self.sessions.values()
            if session.outcome is not None or session.terminal
        )
        # Give handlers one reap interval to flush frames and unregister.
        deadline = asyncio.get_running_loop().time() + max(
            1.0, self.config.reap_interval_s
        )
        while self.sessions and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        report.leaked = len(self.sessions)
        self.journal_append(
            {
                "t": "drain",
                "delivered": report.delivered,
                "aborted_draining": report.aborted_draining,
                "leaked": report.leaked,
                "ledger_reuses": (
                    0 if self.nonce_ledger is None else len(self.nonce_ledger.reuses)
                ),
                "metrics": self.metrics.snapshot(),
            },
            critical=True,
        )
        await self._shutdown()
        return report

    async def _shutdown(self) -> None:
        """Stop the loops and close the listener (drain's final step)."""
        self._stopping = True
        if self._tick_task is not None:
            await self._tick_task
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.journal is not None:
            self.journal.close()
        self._closed.set()

    async def stop(self) -> None:
        """Hard-stop without draining (a cooperative crash, for tests).

        Nothing is flushed or delivered: the loops are cancelled, the
        listener closes, and the journal descriptor is *abandoned*
        (closed without a final fsync) -- the closest an in-process test
        can get to SIGKILL while sharing the event loop.  What recovery
        restores afterwards is exactly what the durability contract
        promised, nothing more.
        """
        self._stopping = True
        for task in (self._tick_task, self._reaper_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._tick_task = None
        self._reaper_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.journal is not None:
            self.journal.abandon()
        self._closed.set()

    async def serve_forever(self) -> DrainReport:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        return await self.drain()

    # -- admission + per-connection protocol ---------------------------------
    async def _reject(
        self, writer: asyncio.StreamWriter, reason: str, detail: str
    ) -> None:
        """Send a structured rejection (with retry-after) and close."""
        try:
            await self._send(
                writer,
                {
                    "type": "rejected",
                    "reason": reason,
                    "detail": detail,
                    "retry_after_s": self.config.retry_after_s,
                },
            )
        except (OSError, asyncio.TimeoutError):
            pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, *frames: dict) -> None:
        """Write frames in one write; ``SEND_TIMEOUT_S`` bounds the drain."""
        await asyncio.wait_for(write_frames(writer, frames), timeout=SEND_TIMEOUT_S)

    def _welcome(self, session_id: str, token: str = "", resumed: bool = False) -> dict:
        """The welcome frame.  A resumed welcome carries ``resumed`` and
        its token before the budgets; an admission's token goes last."""
        frame: Dict[str, object] = {"type": "welcome", "session_id": session_id}
        if resumed:
            frame.update(resumed=True, resume_token=token)
        frame["idle_timeout_s"] = self.config.idle_timeout_s
        frame["deadline_s"] = self.config.session_deadline_s
        if token and not resumed:
            frame["resume_token"] = token
        return frame

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One device connection, hello through result/abort/close.

        Every exit path unregisters the session and closes the
        transport; nothing a peer sends can raise out of this handler.
        """
        session: Optional[DeviceSession] = None
        frames = FrameReader(reader)
        try:
            session = await self._admit(frames, writer)
            if session is not None:
                await self._serve_session(session, frames, writer)
        except (OSError, asyncio.TimeoutError, ConnectionError):
            if session is not None:
                self._peer_gone(session, "transport error")
        finally:
            if session is not None and not session.detached:
                self._unregister(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    def _peer_gone(self, session: DeviceSession, detail: str) -> None:
        """The peer's transport dropped before the session's verdict.

        A token holder (journaling server) is detached and kept for a
        resumption window -- the client reconnects with its token and is
        re-attached; anyone else is aborted.
        """
        if session.terminal:
            return
        self.metrics.disconnects += 1
        if session.resume_token:
            session.detached = True
        else:
            self._abort_session(session, SessionEvent.PEER_DISCONNECTED, detail)

    def _unregister(self, session: DeviceSession) -> None:
        """Drop a session from the live tables.

        Its journaled verdict and channel context stay resumable: the
        journal fold already holds them, so a client that disconnected
        can resume against the same process as after a restart.
        """
        self.sessions.pop(session.session_id, None)
        if session.resume_token:
            self._live_tokens.pop(session.resume_token, None)

    async def _admit(
        self, frames: FrameReader, writer: asyncio.StreamWriter
    ) -> Optional[DeviceSession]:
        """Run the hello handshake; returns the admitted session or None."""
        try:
            hello = await asyncio.wait_for(
                frames.read(), timeout=self.config.hello_timeout_s
            )
        except asyncio.TimeoutError:
            return None  # silent peer; nothing to reject
        except FrameError:
            self.metrics.malformed_frames += 1
            return None
        if hello is None or hello.get("type") != "hello":
            self.metrics.malformed_frames += 1
            return None
        session_id = str(hello.get("session_id", ""))
        if not session_id:
            self.metrics.malformed_frames += 1
            return None
        rounds = hello.get("rounds")
        # Only a JSON integer in 1..MAX_HELLO_ROUNDS is a round count
        # (``bool`` is not).
        if rounds is not None and (
            type(rounds) is not int or not 1 <= rounds <= MAX_HELLO_ROUNDS
        ):
            self.metrics.malformed_frames += 1
            return None
        resume = str(hello.get("resume") or "")
        if resume:
            # Resumption is answered even while draining: it only ever
            # re-delivers an existing verdict, never admits new work.  A
            # server without a journal mints no tokens, so it answers
            # every one as unknown.
            return await self._resume(resume, frames, writer)
        if self._draining:
            self.metrics.rejected_draining += 1
            await self._reject(writer, "server-draining", "server is draining")
            return None
        if (
            len(self.sessions) >= self.config.max_sessions
            or self._pending.qsize() >= self.config.queue_limit
        ):
            self.metrics.rejected_overload += 1
            await self._reject(
                writer, "server-overloaded", "session table or ingress queue full"
            )
            return None
        if session_id in self.sessions:
            self.metrics.rejected_duplicate += 1
            await self._reject(
                writer,
                "duplicate-session",
                f"session id {session_id!r} is already live",
            )
            return None
        session = DeviceSession(
            session_id=session_id,
            episode=str(hello.get("episode") or f"serve-{session_id}"),
            rounds=rounds,
            idle_timeout_s=self.config.idle_timeout_s,
            wants_data=bool(hello.get("data", False)),
        )
        session.deadline_s = session.created_s + self.config.session_deadline_s
        self.sessions[session_id] = session
        self.metrics.accepted += 1
        if self.journal is not None:
            session.resume_token = secrets.token_hex(16)
            self._live_tokens[session.resume_token] = session
            self.journal_append(
                {
                    "t": "admit",
                    "token": session.resume_token,
                    "sid": session_id,
                    "episode": session.episode,
                    "rounds": session.rounds,
                    "data": session.wants_data,
                }
            )
            CRASHPOINTS.hit("admit")
        await self._send(writer, self._welcome(session_id, session.resume_token))
        return session

    async def _resume(
        self,
        token: str,
        frames: FrameReader,
        writer: asyncio.StreamWriter,
    ) -> Optional[DeviceSession]:
        """Answer a reconnecting client presenting a resumption token.

        Three cases, none of which ever recomputes or duplicates a key:

        - the token names a *detached* live session: re-attach this
          connection to it (the pending verdict is delivered when the
          tick settles it, exactly once);
        - the token names a journaled terminal verdict: re-deliver it
          idempotently (a fresh data-phase channel is derived at the
          journaled epoch + 1, so pre-crash records cannot verify);
        - the token is unknown (never journaled, or its admit record
          was lost to a crash before the batched fsync): a structured
          rejection tells the client to establish a fresh session.
        """
        live = self._live_tokens.get(token)
        if live is not None:
            if not live.detached:
                self.metrics.rejected_duplicate += 1
                await self._reject(
                    writer,
                    "duplicate-session",
                    "resumption token is attached to a live connection",
                )
                return None
            live.detached = False
            live.touch()
            self.metrics.resumed_sessions += 1
            if not live.started and not live.terminal:
                # The disconnect may have eaten the peer's ``start``
                # frame; a resumed client only awaits its verdict, so
                # queue the session for the batch tick now.
                live.started = True
                try:
                    self._pending.put_nowait(live)
                except asyncio.QueueFull:
                    self.metrics.rejected_overload += 1
                    self._abort_session(
                        live, SessionEvent.OVERLOADED, "ingress queue full"
                    )
            await self._send(
                writer, self._welcome(live.session_id, token, resumed=True)
            )
            return live
        recovered = self._recovery.resumable.get(token)
        if recovered is None or (
            recovered.kind == "result" and recovered.frame is None
        ):
            await self._reject(
                writer,
                "unknown-resumption-token",
                "no journaled session matches this resumption token",
            )
            return None
        self.metrics.resumed_sessions += 1
        await self._redeliver(token, recovered, frames, writer)
        return None

    async def _redeliver(
        self,
        token: str,
        recovered: RecoveredSession,
        frames: FrameReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Idempotently re-deliver a journaled terminal verdict.

        The result/abort frame is byte-for-byte the journaled one (same
        ``key_digest``) -- only the ``channel`` description is fresh,
        re-derived at the last journaled epoch + 1 and journaled again,
        so repeated crashes keep bumping the epoch and no pre-crash
        ``(epoch, direction, sequence)`` tuple ever verifies again.  The
        channel record folds the bumped epoch into ``recovered``.
        """
        await self._send(
            writer, self._welcome(recovered.session_id, token, resumed=True)
        )
        if recovered.kind == "abort":
            frame = {
                "type": "abort",
                "session_id": recovered.session_id,
                "reason": recovered.reason,
                "detail": recovered.detail,
                "resumed": True,
            }
            await self._send(writer, frame)
            self.journal_append({"t": "deliver", "token": token}, critical=True)
            return
        frame = dict(recovered.frame)
        frame["resumed"] = True
        session = DeviceSession(
            session_id=recovered.session_id,
            episode=f"resume-{recovered.session_id}",
            idle_timeout_s=self.config.idle_timeout_s,
            resume_token=token,
        )
        if recovered.channel is not None and frame.get("success"):
            frame["channel"] = self._reopen_channel(session, recovered.channel)
        await self._send(writer, frame)
        self.journal_append({"t": "deliver", "token": token}, critical=True)
        if session.channel is not None:
            read_task = asyncio.create_task(frames.read())
            await self._data_phase(session, frames, writer, read_task)

    async def _serve_session(
        self,
        session: DeviceSession,
        frames: FrameReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Drive one admitted session until a terminal frame is sent.

        The handler watches the peer's frames and the session's result
        future *concurrently*: a reaped or tick-completed session is
        answered even while the peer is quiet, and a peer disconnect is
        noticed even while the session waits in the ingress queue.
        """
        read_task = asyncio.create_task(frames.read())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {read_task, session.result},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if session.result in done:
                    await self._send_verdict(session, writer)
                    if session.channel is not None:
                        await self._data_phase(session, frames, writer, read_task)
                    return
                frame_or_error = read_task
                try:
                    frame = frame_or_error.result()
                except FrameError as error:
                    self.metrics.malformed_frames += 1
                    self._abort_session(
                        session, SessionEvent.FRAME_CORRUPT, str(error)
                    )
                    await self._send_verdict(session, writer)
                    return
                if frame is None:  # peer closed the stream
                    self._peer_gone(session, "peer closed mid-session")
                    return
                session.touch()
                read_task = asyncio.create_task(frames.read())
                await self._handle_frame(session, writer, frame)
                if frame.get("type") == "bye":
                    return
        finally:
            read_task.cancel()

    async def _handle_frame(
        self, session: DeviceSession, writer: asyncio.StreamWriter, frame: dict
    ) -> None:
        """Dispatch one in-session frame from the peer."""
        kind = frame.get("type")
        if kind == "start":
            if session.started or session.terminal:
                return  # idempotent: a duplicate start is absorbed
            session.started = True
            try:
                self._pending.put_nowait(session)
            except asyncio.QueueFull:
                self.metrics.rejected_overload += 1
                self._abort_session(
                    session, SessionEvent.OVERLOADED, "ingress queue full"
                )
        elif kind == "ping":
            await self._send(writer, {"type": "pong"})
        elif kind == "health":
            await self._send(writer, {"type": "health", **self.health()})
        elif kind == "status":
            await self._send(
                writer,
                {
                    "type": "status",
                    "session_id": session.session_id,
                    "metrics": self.metrics.snapshot(),
                },
            )
        elif kind == "bye":
            return
        elif kind == "secure":
            # A record arrived before any channel exists: the peer is
            # trying to use a key that was never established.
            self.metrics.malformed_frames += 1
            self._abort_session(
                session,
                SessionEvent.SECURE_FAILURE,
                "secure record before establishment completed",
            )
        else:
            self.metrics.malformed_frames += 1
            self._abort_session(
                session,
                SessionEvent.MALFORMED,
                f"unknown frame type {kind!r}",
            )

    async def _send_verdict(
        self, session: DeviceSession, writer: asyncio.StreamWriter
    ) -> None:
        """Send the terminal result/abort frame for a resolved session."""
        verdict = session.result.result()
        if isinstance(verdict, KeyEstablishmentOutcome):
            if session.verdict_frame is not None:
                frame = dict(session.verdict_frame)  # journaled by _settle
            else:
                frame = self._result_frame(session, verdict)
            if verdict.success and session.wants_data:
                journaled = self._recovery.resumable.get(session.resume_token)
                if journaled is not None and journaled.channel is not None:
                    # Re-attach after the channel was already opened:
                    # never re-derive the same epoch.
                    frame["channel"] = self._reopen_channel(
                        session, journaled.channel
                    )
                else:
                    frame["channel"] = self._open_channel(session, verdict)
        else:  # SessionAbort record
            frame = {
                "type": "abort",
                "session_id": session.session_id,
                "reason": verdict.reason,
                "detail": verdict.detail,
            }
            if verdict.reason in ("server-overloaded", "server-draining"):
                frame["retry_after_s"] = self.config.retry_after_s
        CRASHPOINTS.hit("deliver")
        try:
            await self._send(writer, frame)
            if session.resume_token:
                self.journal_append(
                    {"t": "deliver", "token": session.resume_token}, critical=True
                )
        except (OSError, asyncio.TimeoutError, ConnectionError):
            self.metrics.disconnects += 1

    @staticmethod
    def _result_frame(
        session: DeviceSession, outcome: KeyEstablishmentOutcome
    ) -> dict:
        """The wire form of one establishment outcome.

        The key itself never crosses this channel -- the device derives
        it from the probing exchange; the server sends a digest so both
        ends can cross-check which key they hold.
        """
        digest = None
        if outcome.final_key is not None:
            digest = hashlib.sha256(outcome.final_key).hexdigest()[:32]
        return {
            "type": "result",
            "session_id": session.session_id,
            "success": outcome.success,
            "failure_reason": outcome.failure_reason,
            "degraded_mode": outcome.degraded_mode,
            "ood_windows": outcome.ood_windows,
            "agreed_bits": outcome.session.agreed_bits,
            "key_generation_rate_bps": outcome.key_generation_rate_bps,
            "key_digest": digest,
            "final_state": session.machine.state.value,
        }

    # -- encrypted data phase ------------------------------------------------
    def _open_channel(
        self, session: DeviceSession, outcome: KeyEstablishmentOutcome
    ) -> dict:
        """Build the responder channel; returns its wire description.

        ``device_key`` hands the device its side of the reconciled
        secret in the clear -- a *simulation affordance*: on real
        hardware the device derives exactly these bytes from the probing
        exchange and nothing crosses the wire, but here the simulated
        device is a separate process with no access to the pipeline's
        internal session state.  Everything else in the frame (nonce,
        ids, fingerprint, epoch) is the public context both ends bind
        into the KDF.
        """
        result = outcome.session
        return self._build_channel(
            session,
            master=master_secret_from_result(result),
            nonce=result.session_nonce,
            fingerprint=self.registry.pipeline.fingerprint(),
            epoch=0,
        )

    def _reopen_channel(self, session: DeviceSession, journaled: dict) -> dict:
        """Re-derive a journaled channel context at its epoch + 1.

        Never the journaled epoch itself: no earlier record can verify
        on the reopened channel, and no nonce is ever sealed twice under
        the same keys.
        """
        return self._build_channel(
            session,
            master=bytes.fromhex(journaled["master"]),
            nonce=bytes.fromhex(journaled["nonce"]),
            fingerprint=str(journaled["fingerprint"]),
            epoch=int(journaled["epoch"]) + 1,
        )

    def _build_channel(
        self,
        session: DeviceSession,
        master: bytes,
        nonce: bytes,
        fingerprint: str,
        epoch: int,
    ) -> dict:
        """Derive one epoch's responder channel and journal its context.

        The journal record carries everything a restarted server needs
        to re-derive the *next* epoch's keys for a resuming client --
        including the master secret itself (see ``docs/SECURITY.md``:
        the journal holds key material and must be protected like one).
        """
        context = ChannelContext(
            session_nonce=nonce,
            initiator_id=session.session_id,
            responder_id="server",
            pipeline_fingerprint=fingerprint,
            epoch=epoch,
        )
        session.channel = SecureChannel(
            derive_channel_keys(master, context),
            role="responder",
            max_sequence=self.config.secure_max_records,
            ledger=self.nonce_ledger,
        )
        self.metrics.channels_opened += 1
        frame = {
            "device_key": master.hex(),
            "nonce": nonce.hex(),
            "initiator_id": session.session_id,
            "responder_id": "server",
            "fingerprint": fingerprint,
            "epoch": epoch,
            "max_records": self.config.secure_max_records,
            "replay_window": DEFAULT_REPLAY_WINDOW,
        }
        if session.resume_token:
            self.journal_append(
                {
                    "t": "channel",
                    "token": session.resume_token,
                    "sid": session.session_id,
                    "master": master.hex(),
                    "nonce": nonce.hex(),
                    "fingerprint": fingerprint,
                    "epoch": epoch,
                    "max_records": self.config.secure_max_records,
                    "replay_window": DEFAULT_REPLAY_WINDOW,
                },
                critical=True,
            )
        return frame

    async def _send_channel_closed(
        self, session: DeviceSession, writer: asyncio.StreamWriter, reason: str
    ) -> None:
        """Answer a structured ``channel-closed`` frame (counted)."""
        self.metrics.record_channel_close(reason)
        try:
            await self._send(
                writer,
                {
                    "type": "channel-closed",
                    "session_id": session.session_id,
                    "reason": reason,
                },
            )
        except (OSError, asyncio.TimeoutError, ConnectionError):
            self.metrics.disconnects += 1

    async def _data_phase(
        self,
        session: DeviceSession,
        frames: FrameReader,
        writer: asyncio.StreamWriter,
        read_task: "asyncio.Task",
    ) -> None:
        """Serve one peer's encrypted echo phase until bye/close/budget.

        Every well-formed record is opened under the session's channel:
        successes are echoed back sealed under the server's send keys,
        failures answer a ``secure-error`` carrying the failure slug and
        count toward the decrypt budget.  The phase ends with a
        structured ``channel-closed`` frame when the budget or the send
        nonce space is exhausted -- never a silent close, never a reused
        nonce, never released plaintext.

        ``read_task`` is the connection's pending read; the phase awaits
        it before touching the frame buffer.  The phase then works in
        bursts: after one ``secure`` frame, every consecutive ``secure``
        frame already parsed from the buffer (up to ``secure_batch_max``)
        joins the burst, with no task or wait per frame.  The burst goes
        through :meth:`SecureChannel.open_records` and
        :meth:`SecureChannel.seal_records` -- the channel's MAC keys and
        keystream midstates are looked up once per burst -- and its
        replies leave in one write whose drain ``SEND_TIMEOUT_S`` bounds.
        Replies keep per-record order, and the budget and
        nonce-exhaustion semantics are exactly the one-record-at-a-time
        ones: ``open_records`` stops at the budget-crossing record, a
        mid-burst ``NonceExhaustedError`` carries the echoes sealed
        before the bound, and ``channel-closed`` follows the replies
        before it.  A non-``secure`` frame that ends a burst is handled
        after the burst's replies.
        """
        channel = session.channel
        config = self.config
        failures = 0
        try:
            frame = await asyncio.wait_for(read_task, timeout=config.idle_timeout_s)
        except asyncio.TimeoutError:
            return
        except FrameError:
            self.metrics.malformed_frames += 1
            return
        while frame is not None:  # None: the peer closed after its verdict
            session.touch()
            kind = frame.get("type")
            held: Optional[dict] = None
            if kind == "bye":
                return
            if kind == "ping":
                await self._send(writer, {"type": "pong"})
            elif kind != "secure":
                self.metrics.malformed_frames += 1
                await self._send_channel_closed(session, writer, "protocol-error")
                return
            else:
                burst = [frame]
                while len(burst) < config.secure_batch_max:
                    nxt = frames.buffered()
                    if nxt is None:
                        break
                    if nxt.get("type") != "secure":
                        held = nxt  # handled after this burst's replies
                        break
                    session.touch()
                    burst.append(nxt)
                blobs = []
                for secure_frame in burst:
                    try:
                        blob = bytes.fromhex(str(secure_frame.get("record", "")))
                    except ValueError:
                        blob = b""  # not even hex: opens as record-truncated
                    blobs.append(blob)
                self.metrics.secure_records += len(blobs)
                self.metrics.secure_batches += 1
                if len(blobs) > self.metrics.secure_batch_records_max:
                    self.metrics.secure_batch_records_max = len(blobs)
                outcomes = channel.open_records(
                    blobs,
                    max_failures=config.secure_decrypt_budget - failures,
                )
                ok_plaintexts = [o.plaintext for o in outcomes if o.ok]
                try:
                    echoes = channel.seal_records(ok_plaintexts)
                except NonceExhaustedError as exc:
                    echoes = exc.sealed
                echo_iter = iter(echoes)
                replies = []
                closing = None
                for outcome in outcomes:
                    if outcome.ok:
                        echo = next(echo_iter, None)
                        if echo is None:  # nonce space ran out at this record
                            closing = "nonce-exhausted"
                            break
                        self.metrics.secure_echoed += 1
                        replies.append(
                            {
                                "type": "secure",
                                "session_id": session.session_id,
                                "record": echo.hex(),
                            }
                        )
                    else:
                        failures += 1
                        self.metrics.record_open_failure(outcome.failure)
                        replies.append(
                            {
                                "type": "secure-error",
                                "session_id": session.session_id,
                                "failure": outcome.failure,
                            }
                        )
                        if failures >= config.secure_decrypt_budget:
                            closing = "decrypt-budget-exceeded"
                            break
                if replies:
                    await self._send(writer, *replies)
                if closing is not None:
                    await self._send_channel_closed(session, writer, closing)
                    return
            frame = held if held is not None else frames.buffered()
            if frame is None:
                try:
                    frame = await asyncio.wait_for(
                        frames.read(), timeout=config.idle_timeout_s
                    )
                except asyncio.TimeoutError:
                    return
                except FrameError:
                    self.metrics.malformed_frames += 1
                    return

    # -- supervision ---------------------------------------------------------
    def _abort_session(
        self, session: DeviceSession, event: SessionEvent, detail: str
    ) -> None:
        """Abort one session and account for it; never raises."""
        record = session.abort(event, detail)
        if record is not None:
            self.metrics.record_abort(record.reason)
        self._journal_outcome(session)

    def _journal_outcome(self, session: DeviceSession) -> None:
        """Witness a session's terminal verdict in the journal, once."""
        if not session.resume_token or session.outcome_journaled:
            return
        if session.verdict_frame is not None:
            record = {
                "t": "outcome",
                "token": session.resume_token,
                "sid": session.session_id,
                "kind": "result",
                "frame": session.verdict_frame,
            }
        else:
            abort = session.machine.abort_record
            if abort is None:
                return
            record = {
                "t": "outcome",
                "token": session.resume_token,
                "sid": session.session_id,
                "kind": "abort",
                "reason": abort.reason,
                "detail": abort.detail,
            }
        session.outcome_journaled = True
        self.journal_append(record, critical=True)

    async def _reaper_loop(self) -> None:
        """Periodically reclaim idle and deadline-expired sessions.

        Detached sessions (journaled server, peer gone, resumption
        window open) have no connection handler left to unregister
        them, so the reaper also retires any detached session that has
        gone terminal: its outcome is journaled and the session table
        entry is reclaimed -- no leak, and a late resume still finds the
        journaled outcome.
        """
        while True:
            await asyncio.sleep(self.config.reap_interval_s)
            now = None
            for session in list(self.sessions.values()):
                if session.detached and (
                    session.terminal or session.result.done()
                ):
                    if session.result.done():
                        self._journal_outcome(session)
                    self._unregister(session)
                    continue
                if session.terminal or session.result.done():
                    continue
                if session.deadline_expired(now):
                    self.metrics.reaped_deadline += 1
                    self._abort_session(
                        session,
                        SessionEvent.DEADLINE_EXPIRED,
                        f"exceeded {self.config.session_deadline_s}s deadline",
                    )
                elif session.idle_expired(now):
                    self.metrics.reaped_idle += 1
                    self._abort_session(
                        session,
                        SessionEvent.IDLE_EXPIRED,
                        f"no frame for {self.config.idle_timeout_s}s",
                    )

    async def _tick_loop(self) -> None:
        """Coalesce ready sessions and run them through batch ticks."""
        while True:
            if self._stopping and (self._pending is None or self._pending.empty()):
                return
            try:
                first = await asyncio.wait_for(self._pending.get(), timeout=0.1)
            except asyncio.TimeoutError:
                continue
            # Coalescing window: let concurrent arrivals join this tick.
            await asyncio.sleep(self.config.tick_interval_s)
            batch = [first]
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._pending.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_tick(batch)

    async def _run_tick(self, batch: List[DeviceSession]) -> None:
        """Execute one coalesced batch; failures stay per-session.

        The CPU-bound establishment runs in the default executor so the
        event loop keeps answering pings, admitting sessions and reaping
        the dead while a tick computes.
        """
        live = [s for s in batch if not s.terminal and not s.result.done()]
        if not live:
            return
        CRASHPOINTS.hit("tick")
        if self.registry.maybe_reload():
            self.metrics.model_reloads += 1
        elif self.registry.last_error is not None:
            self.metrics.model_reload_failures = self.registry.reload_failures
        self.metrics.ticks += 1
        self.metrics.tick_sessions_max = max(
            self.metrics.tick_sessions_max, len(live)
        )
        pipeline = self.registry.pipeline
        loop = asyncio.get_running_loop()
        by_rounds: Dict[Optional[int], List[DeviceSession]] = {}
        for session in live:
            by_rounds.setdefault(session.rounds, []).append(session)
        for rounds, sessions in by_rounds.items():
            labels = [s.episode for s in sessions]
            try:
                runner = BatchedSessionRunner(
                    pipeline, n_rounds=rounds, shards=self.config.shards
                )
                report = await loop.run_in_executor(
                    None, runner.run_episodes, labels
                )
                if report.shards > 1:
                    self.metrics.sharded_batches += 1
                    self.metrics.shards_used_max = max(
                        self.metrics.shards_used_max, report.shards
                    )
                verdicts: List[object] = list(report.outcomes)
            except Exception:  # noqa: BLE001 - isolate, then retry per session
                self.metrics.batch_fallbacks += 1
                verdicts = []
                for session in sessions:
                    try:
                        outcome = await loop.run_in_executor(
                            None,
                            lambda s=session: pipeline.establish_key(
                                episode=s.episode, n_rounds=rounds
                            ),
                        )
                        verdicts.append(outcome)
                    except Exception as error:  # noqa: BLE001 - isolate the session
                        verdicts.append(error)
            for session, verdict in zip(sessions, verdicts):
                self._settle(session, verdict)

    def _settle(self, session: DeviceSession, verdict: object) -> None:
        """Deliver one tick verdict to one session; never raises."""
        if isinstance(verdict, KeyEstablishmentOutcome):
            session.complete(verdict)
            if session.outcome is verdict:
                if session.resume_token:
                    session.verdict_frame = self._result_frame(session, verdict)
                    self._journal_outcome(session)
                self.metrics.completed += 1
                if verdict.success:
                    self.metrics.succeeded += 1
                else:
                    self.metrics.failed += 1
                if verdict.degraded_mode is not None:
                    self.metrics.degraded_sessions += 1
                if self.on_outcome is not None:
                    try:
                        self.on_outcome(session, verdict)
                    except Exception:  # noqa: BLE001 - observers cannot break serving
                        pass
        else:
            self._abort_session(
                session,
                SessionEvent.INTERNAL_ERROR,
                f"{type(verdict).__name__}: {verdict}",
            )
