"""Crash recovery and session resumption against a journaling server.

Each scenario runs a real server over loopback with a write-ahead
journal, kills it with the hard (non-draining) stop, starts a fresh
server on the same journal directory, and checks the recovery-facing
promises: journaled verdicts are re-delivered idempotently under the
same ``key_digest``, sessions a crash orphaned are answered with a
structured ``recovered-after-crash`` abort instead of silence, unknown
tokens are rejected structurally, and the ``status`` wire frame exposes
the recovery counters.
"""

import asyncio
import time
from dataclasses import fields, replace

import pytest

from repro.core.statemachine import ABORT_RECOVERED
from repro.server import (
    DeviceClient,
    Endpoint,
    KeyEstablishmentServer,
    ModelRegistry,
    ServerConfig,
    ServerMetrics,
)
from repro.server.client import fetch_status
from repro.server.framing import FrameReader, write_frame

ROUNDS = 48


def journal_config(journal_dir, **overrides) -> ServerConfig:
    """Loopback journaling-server knobs with test-sized budgets."""
    defaults = dict(
        port=0,
        hello_timeout_s=1.0,
        idle_timeout_s=5.0,
        session_deadline_s=30.0,
        tick_interval_s=0.01,
        max_batch=8,
        queue_limit=8,
        max_sessions=32,
        retry_after_s=0.25,
        reap_interval_s=0.1,
        journal_dir=str(journal_dir),
        journal_fsync="always",
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


async def start_server(pipeline, config) -> KeyEstablishmentServer:
    server = KeyEstablishmentServer(ModelRegistry(pipeline), config)
    await server.start()
    return server


class TestStatusFrame:
    def test_status_frame_carries_the_full_metrics_snapshot(
        self, tiny_pipeline, tmp_path
    ):
        async def body():
            server = await start_server(
                tiny_pipeline, journal_config(tmp_path / "wal")
            )
            endpoint = Endpoint(port=server.bound_port)
            try:
                status = await fetch_status(endpoint)
            finally:
                await server.drain(timeout=10.0)
            return status, server

        status, server = asyncio.run(body())
        assert status is not None and status["type"] == "status"
        metrics = status["metrics"]
        # The recovery counters ride along on every snapshot, scraped
        # fresh per request (the probe itself was accepted: >= 1).
        for key in (
            "recoveries",
            "recovered_orphans",
            "resumed_sessions",
            "journal_records",
        ):
            assert key in metrics
        assert metrics["accepted"] >= 1
        assert metrics["journal_records"] >= 1  # the probe's admit record

    def test_snapshot_lists_every_field_in_order_as_a_copy(self):
        metrics = ServerMetrics()
        metrics.record_abort("idle-timeout")
        snapshot = metrics.snapshot()
        assert list(snapshot) == [f.name for f in fields(ServerMetrics)]
        snapshot["aborted"]["idle-timeout"] = 99
        snapshot["aborted"]["forged"] = 1
        assert metrics.aborted == {"idle-timeout": 1}


class TestDisconnectedOutcome:
    def test_mid_session_close_with_a_token_is_a_disconnected_outcome(self):
        """The client half of the resumption protocol, in isolation: a
        server that vanishes mid-session after minting a token yields a
        structured ``disconnected`` outcome carrying that token -- not
        an undifferentiated error."""

        async def fake_server(reader, writer):
            frames = FrameReader(reader)
            hello = await frames.read()
            welcome = {
                "type": "welcome",
                "session_id": hello["session_id"],
            }
            if hello["session_id"] == "dev-journaled":
                welcome["resume_token"] = "feedfacefeedface"
            await write_frame(writer, welcome)
            await frames.read()  # the start frame
            writer.close()  # vanish without a terminal frame

        async def body():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            endpoint = Endpoint(port=port)
            try:
                journaled = await DeviceClient(
                    endpoint, "dev-journaled", timeout_s=10.0
                ).establish()
                plain = await DeviceClient(
                    endpoint, "dev-plain", timeout_s=10.0
                ).establish()
            finally:
                server.close()
                await server.wait_closed()
            return journaled, plain

        journaled, plain = asyncio.run(body())
        assert journaled.kind == "disconnected"
        assert journaled.resume_token == "feedfacefeedface"
        assert not journaled.structured
        # Without a token there is no resumption path: the legacy kind.
        assert plain.kind == "closed"
        assert plain.resume_token == ""


class TestLiveResumption:
    def test_detached_session_is_reattached_and_served(
        self, tiny_pipeline, tmp_path
    ):
        """A client that drops after hello (its ``start`` frame eaten by
        the disconnect) reconnects with its token and still receives a
        live verdict: the re-attach path queues the session itself."""
        config = journal_config(tmp_path / "wal")

        async def body():
            server = await start_server(tiny_pipeline, config)
            endpoint = Endpoint(port=server.bound_port)
            try:
                first = DeviceClient(
                    endpoint,
                    "dev-reattach",
                    episode="srv-reattach",
                    rounds=ROUNDS,
                    timeout_s=30.0,
                )
                await first.connect()
                welcome = await first.hello()
                assert welcome["type"] == "welcome"
                token = first.resume_token
                assert token
                await first.close()
                await asyncio.sleep(0.2)  # let the server detach it
                second = DeviceClient(
                    endpoint, "dev-reattach", timeout_s=30.0
                )
                outcome = await second.resume_session(token)
            finally:
                await server.drain(timeout=10.0)
            return outcome, server

        outcome, server = asyncio.run(body())
        assert outcome.kind == "result"
        assert server.metrics.resumed_sessions == 1
        assert server.metrics.disconnects == 1
        assert server.metrics.aborted.get("peer-disconnected") is None

    def test_token_attached_to_a_live_connection_is_rejected(
        self, tiny_pipeline, tmp_path
    ):
        config = journal_config(tmp_path / "wal")

        async def body():
            server = await start_server(tiny_pipeline, config)
            endpoint = Endpoint(port=server.bound_port)
            try:
                holder = DeviceClient(endpoint, "dev-live", timeout_s=10.0)
                await holder.connect()
                await holder.hello()
                token = holder.resume_token
                thief = DeviceClient(endpoint, "dev-live", timeout_s=10.0)
                outcome = await thief.resume_session(token)
                await holder.close()
            finally:
                await server.drain(timeout=10.0)
            return outcome, server

        outcome, server = asyncio.run(body())
        assert outcome.kind == "rejected"
        assert outcome.frame["reason"] == "duplicate-session"
        assert server.metrics.rejected_duplicate == 1


class TestCrashRecovery:
    def test_journaled_result_is_redelivered_idempotently(
        self, tiny_pipeline, tmp_path
    ):
        """Establish, crash, restart, resume twice: both redeliveries
        carry the journaled verdict byte-for-byte (same ``key_digest``)
        and are marked ``resumed``."""
        journal_dir = tmp_path / "wal"

        async def body():
            server = await start_server(
                tiny_pipeline, journal_config(journal_dir)
            )
            endpoint = Endpoint(port=server.bound_port)
            original = await DeviceClient(
                endpoint,
                "dev-crash",
                episode="srv-crash",
                rounds=ROUNDS,
                timeout_s=30.0,
            ).establish()
            assert original.kind == "result"
            token = original.resume_token
            assert token
            await asyncio.sleep(0.3)  # let the reaper retire the session
            await server.stop()  # the cooperative crash: nothing flushed

            restarted = await start_server(
                tiny_pipeline, journal_config(journal_dir)
            )
            endpoint = Endpoint(port=restarted.bound_port)
            try:
                resumed = [
                    await DeviceClient(
                        endpoint, "dev-crash", timeout_s=30.0
                    ).resume_session(token)
                    for _ in range(2)
                ]
                status = await fetch_status(endpoint)
            finally:
                await restarted.drain(timeout=10.0)
            return original, resumed, restarted, status

        original, resumed, restarted, status = asyncio.run(body())
        for outcome in resumed:
            assert outcome.kind == "result"
            assert outcome.frame["resumed"] is True
            assert outcome.frame["key_digest"] == original.frame["key_digest"]
            assert outcome.frame["success"] == original.frame["success"]
        assert restarted.metrics.recoveries == 1
        assert restarted.metrics.recovered_orphans == 0
        assert restarted.metrics.resumed_sessions == 2
        assert status["metrics"]["recoveries"] == 1
        assert status["metrics"]["journal_records"] >= 1

    def test_orphaned_session_is_aborted_as_recovered_after_crash(
        self, tiny_pipeline, tmp_path
    ):
        """A session admitted but crash-interrupted before any outcome
        resumes into a structured ``recovered-after-crash`` abort."""
        journal_dir = tmp_path / "wal"

        async def body():
            server = await start_server(
                tiny_pipeline, journal_config(journal_dir)
            )
            endpoint = Endpoint(port=server.bound_port)
            client = DeviceClient(endpoint, "dev-orphan", timeout_s=10.0)
            await client.connect()
            await client.hello()
            token = client.resume_token
            assert token
            await client.close()
            await asyncio.sleep(0.2)  # the handler must notice the close
            await server.stop()

            restarted = await start_server(
                tiny_pipeline, journal_config(journal_dir)
            )
            endpoint = Endpoint(port=restarted.bound_port)
            try:
                outcome = await DeviceClient(
                    endpoint, "dev-orphan", timeout_s=10.0
                ).resume_session(token)
            finally:
                await restarted.drain(timeout=10.0)
            return outcome, restarted

        outcome, restarted = asyncio.run(body())
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == ABORT_RECOVERED
        assert outcome.frame["resumed"] is True
        assert restarted.metrics.recovered_orphans == 1
        assert restarted.metrics.aborted.get(ABORT_RECOVERED) == 1

    def test_unknown_token_is_rejected_structurally(
        self, tiny_pipeline, tmp_path
    ):
        config = journal_config(tmp_path / "wal")

        async def body():
            server = await start_server(tiny_pipeline, config)
            endpoint = Endpoint(port=server.bound_port)
            try:
                outcome = await DeviceClient(
                    endpoint, "dev-unknown", timeout_s=10.0
                ).resume_session("00" * 16)
            finally:
                await server.drain(timeout=10.0)
            return outcome

        outcome = asyncio.run(body())
        assert outcome.kind == "rejected"
        assert outcome.frame["reason"] == "unknown-resumption-token"

    def test_resumption_survives_repeated_restarts(
        self, tiny_pipeline, tmp_path
    ):
        """Two crashes in a row: the second recovery replays the first
        recovery's own records and the verdict is still redeliverable."""
        journal_dir = tmp_path / "wal"

        async def one_generation(token):
            server = await start_server(
                tiny_pipeline, journal_config(journal_dir)
            )
            endpoint = Endpoint(port=server.bound_port)
            if token is None:
                outcome = await DeviceClient(
                    endpoint,
                    "dev-again",
                    episode="srv-again",
                    rounds=ROUNDS,
                    timeout_s=30.0,
                ).establish()
            else:
                outcome = await DeviceClient(
                    endpoint, "dev-again", timeout_s=30.0
                ).resume_session(token)
            await asyncio.sleep(0.3)
            await server.stop()
            return outcome, server

        async def body():
            first, _ = await one_generation(None)
            assert first.kind == "result"
            second, gen2 = await one_generation(first.resume_token)
            third, gen3 = await one_generation(first.resume_token)
            return first, second, third, gen2, gen3

        first, second, third, gen2, gen3 = asyncio.run(body())
        for outcome in (second, third):
            assert outcome.kind == "result"
            assert outcome.frame["key_digest"] == first.frame["key_digest"]
        assert gen2.metrics.recoveries == 1
        assert gen3.metrics.recoveries == 1
        assert gen3.metrics.recovered_orphans == 0


class TestJournalLessServer:
    def test_token_is_answered_unknown_at_once(self, tiny_pipeline, tmp_path):
        """A server without a journal mints no tokens, so a presented
        one is rejected as unknown straight away -- not admitted and
        left idling until the reaper's ``idle-timeout``."""
        config = replace(
            journal_config(tmp_path / "wal", idle_timeout_s=2.0), journal_dir=None
        )

        async def body():
            server = await start_server(tiny_pipeline, config)
            endpoint = Endpoint(port=server.bound_port)
            try:
                started = time.perf_counter()
                outcome = await DeviceClient(
                    endpoint, "dev-no-journal", timeout_s=10.0
                ).resume_session("00" * 16)
                elapsed = time.perf_counter() - started
            finally:
                await server.drain(timeout=10.0)
            return outcome, elapsed, server

        outcome, elapsed, server = asyncio.run(body())
        assert server.journal is None
        assert outcome.kind == "rejected"
        assert outcome.frame["reason"] == "unknown-resumption-token"
        assert elapsed < 0.5 * config.idle_timeout_s
        assert server.metrics.accepted == 0
