"""The server's encrypted data phase, end to end over loopback.

Each scenario stands up a real server and drives the secure record
protocol from a real client: echo round-trips under the derived keys,
tampering answered by taxonomized ``secure-error`` frames with nothing
released, budget and protocol violations ending in structured
``channel-closed`` frames, and admission shedding honored by the client's
seeded retry-backoff until the slot frees up.

Establishment success depends on the episode's channel realization, so
scenarios that need a live channel search a small episode space and fail
loudly if none succeeds.
"""

import asyncio

import pytest

from repro.secure.records import DIRECTION_I2R
from repro.server import (
    DeviceClient,
    Endpoint,
    KeyEstablishmentServer,
    ModelRegistry,
    ServerConfig,
    run_behavior,
)
from repro.server.client import channel_from_frame
from tests.oracles.secure_records import seal_record

ROUNDS = 48

#: Episodes tried per scenario before giving up on establishment (the
#: per-episode success rate at these tiny round counts is ~20%).
SEARCH = 16


def fast_config(**overrides) -> ServerConfig:
    """Loopback server knobs with test-sized liveness budgets."""
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
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def run_scenario(pipeline, config, scenario):
    """Start a server, run ``scenario(server, endpoint)``, always drain."""

    async def body():
        server = KeyEstablishmentServer(ModelRegistry(pipeline), config)
        await server.start()
        endpoint = Endpoint(port=server.bound_port)
        try:
            result = await scenario(server, endpoint)
        finally:
            if not server.closed:
                await server.drain(timeout=10.0)
        assert server.active_sessions == 0  # no leak, ever
        return result, server

    return asyncio.run(body())


async def open_data_session(endpoint, tag: str):
    """A connected client whose establishment produced a live channel.

    Returns ``(client, result_frame)``; searches episodes until one
    establishment succeeds (the channel frame is only attached to
    successful verdicts).
    """
    for i in range(SEARCH):
        client = DeviceClient(
            endpoint,
            f"dev-{tag}-{i}",
            episode=f"srv-{tag}-{i}",
            rounds=ROUNDS,
            timeout_s=30.0,
            data=True,
        )
        await client.connect()
        await client.hello()
        await client.send({"type": "start"})
        verdict = await client.recv()
        if (
            verdict is not None
            and verdict.get("type") == "result"
            and "channel" in verdict
        ):
            return client, verdict
        await client.close()
    pytest.fail(f"no successful establishment in {SEARCH} episodes ({tag})")


class TestSecureEcho:
    def test_echo_round_trip_through_the_behavior_client(self, tiny_pipeline):
        async def scenario(server, endpoint):
            for i in range(SEARCH):
                outcome = await run_behavior(
                    endpoint,
                    "secure-echo",
                    f"dev-echo-{i}",
                    episode=f"srv-echo-{i}",
                    rounds=ROUNDS,
                )
                assert outcome.kind in ("result", "abort")
                if server.metrics.secure_echoed >= 3:
                    return outcome
            pytest.fail("no episode produced a live channel for the echo")

        outcome, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        # The behavior client verified each echoed plaintext itself; a
        # continuity violation would have come back as a structured
        # payload-invariant error instead of a result.
        assert outcome.kind == "result"
        assert server.metrics.channels_opened >= 1
        assert server.metrics.secure_records >= 3
        assert server.metrics.secure_echoed >= 3
        snapshot = server.metrics.snapshot()
        assert snapshot["channels_opened"] == server.metrics.channels_opened
        assert snapshot["secure_echoed"] == server.metrics.secure_echoed

    def test_result_channel_frame_never_leaks_without_request(
        self, tiny_pipeline
    ):
        async def scenario(server, endpoint):
            for i in range(SEARCH):
                outcome = await run_behavior(
                    endpoint,
                    "normal",
                    f"dev-plain-{i}",
                    episode=f"srv-plain-{i}",
                    rounds=ROUNDS,
                )
                assert "channel" not in outcome.frame
            return True

        ok, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert ok
        assert server.metrics.channels_opened == 0


class TestTamperDetection:
    def test_tampered_record_gets_secure_error_and_no_plaintext(
        self, tiny_pipeline
    ):
        async def scenario(server, endpoint):
            for i in range(SEARCH):
                outcome = await run_behavior(
                    endpoint,
                    "secure-tamper",
                    f"dev-tamper-{i}",
                    episode=f"srv-tamper-{i}",
                    rounds=ROUNDS,
                )
                # The behavior client flags any plaintext release or
                # missing taxonomy itself via a payload-invariant error.
                assert outcome.kind in ("result", "abort"), outcome.detail
                if server.metrics.secure_open_failures.get("auth-failed", 0):
                    return outcome
            pytest.fail("no episode produced a live channel for the tamper")

        outcome, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "result"
        assert server.metrics.secure_open_failures["auth-failed"] >= 1
        # Tampering alone must not close the channel or crash a session.
        assert server.metrics.channels_closed == {}

    def test_decrypt_budget_closes_the_channel_structurally(self, tiny_pipeline):
        config = fast_config(secure_decrypt_budget=2)

        async def scenario(server, endpoint):
            client, _ = await open_data_session(endpoint, "budget")
            try:
                frames = []
                for junk in ("zz-not-hex", "00"):  # both open as damage
                    await client.send(
                        {
                            "type": "secure",
                            "session_id": client.session_id,
                            "record": junk,
                        }
                    )
                    frames.append(await client.recv())
                frames.append(await client.recv())  # the closing frame
                return frames
            finally:
                await client.close()

        frames, server = run_scenario(tiny_pipeline, config, scenario)
        first, second, closed = frames
        assert first["type"] == "secure-error"
        assert first["failure"] == "record-truncated"
        assert "record" not in first  # no payload of any kind on failure
        assert second["type"] == "secure-error"
        assert closed["type"] == "channel-closed"
        assert closed["reason"] == "decrypt-budget-exceeded"
        assert server.metrics.channels_closed == {"decrypt-budget-exceeded": 1}

    def test_record_past_the_nonce_bound_is_rejected(self, tiny_pipeline):
        config = fast_config(secure_max_records=4)

        async def scenario(server, endpoint):
            client, verdict = await open_data_session(endpoint, "bound")
            try:
                channel = channel_from_frame(verdict["channel"])
                assert channel.max_sequence == 4
                wire = seal_record(
                    channel.keys.send_keys(channel.role),
                    channel.epoch,
                    DIRECTION_I2R,
                    9,
                    b"too far ahead",
                ).encode()
                await client.send(
                    {
                        "type": "secure",
                        "session_id": client.session_id,
                        "record": wire.hex(),
                    }
                )
                return await client.recv()
            finally:
                await client.close()

        answer, _ = run_scenario(tiny_pipeline, config, scenario)
        assert answer["type"] == "secure-error"
        assert answer["failure"] == "nonce-exhausted"


class TestProtocolDiscipline:
    def test_secure_frame_before_establishment_aborts(self, tiny_pipeline):
        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-early", timeout_s=10.0)
            await client.connect()
            try:
                await client.hello()
                await client.send(
                    {
                        "type": "secure",
                        "session_id": client.session_id,
                        "record": "00",
                    }
                )
                return await client.recv()
            finally:
                await client.close()

        answer, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert answer["type"] == "abort"
        assert answer["reason"] == "secure-channel-failed"
        assert server.metrics.aborted.get("secure-channel-failed") == 1

    def test_non_secure_frame_in_data_phase_closes_as_protocol_error(
        self, tiny_pipeline
    ):
        async def scenario(server, endpoint):
            client, _ = await open_data_session(endpoint, "proto")
            try:
                await client.send({"type": "start"})  # illegal mid-data
                return await client.recv()
            finally:
                await client.close()

        answer, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert answer["type"] == "channel-closed"
        assert answer["reason"] == "protocol-error"
        assert server.metrics.channels_closed == {"protocol-error": 1}


class TestBatchedDrain:
    def test_flooded_records_coalesce_into_batched_passes(self, tiny_pipeline):
        n_records = 12
        config = fast_config(secure_batch_max=8)

        async def scenario(server, endpoint):
            client, verdict = await open_data_session(endpoint, "flood")
            try:
                channel = channel_from_frame(verdict["channel"])
                payloads = [f"flood-{i}".encode() for i in range(n_records)]
                # All records go out back-to-back before any echo is
                # read, so the server's drain finds frames already
                # waiting in the transport.
                for record in channel.seal_records(payloads):
                    await client.send(
                        {"type": "secure", "record": record.hex()}
                    )
                for plaintext in payloads:
                    reply = await client.recv()
                    assert reply["type"] == "secure"
                    opened = channel.open(
                        bytes.fromhex(str(reply.get("record", "")))
                    )
                    assert opened.ok and opened.plaintext == plaintext
                await client.send({"type": "bye"})
            finally:
                await client.close()
            return True

        ok, server = run_scenario(tiny_pipeline, config, scenario)
        assert ok
        metrics = server.metrics
        assert metrics.secure_records == n_records
        assert metrics.secure_echoed == n_records
        # Every record went through a drain pass, and at least one pass
        # coalesced more than one record (the flood arrived before the
        # first echo was written); the cap bounds any single pass.
        assert 1 <= metrics.secure_batches < n_records
        assert 2 <= metrics.secure_batch_records_max <= 8
        snapshot = metrics.snapshot()
        assert snapshot["secure_batches"] == metrics.secure_batches
        assert (
            snapshot["secure_batch_records_max"]
            == metrics.secure_batch_records_max
        )


class TestRestartEpochFloor:
    def test_resumed_channel_rejects_every_pre_crash_record(
        self, tiny_pipeline, tmp_path
    ):
        """Crash mid-encrypted-echo, restart, resume: the re-derived
        channel lives at the journaled epoch + 1, so every record sealed
        before the crash fails authentication -- no pre-crash
        ``(epoch, direction, sequence)`` tuple ever verifies again --
        while fresh records under the bumped epoch round-trip."""
        journal_dir = tmp_path / "wal"
        config = fast_config(
            journal_dir=str(journal_dir), journal_fsync="always"
        )

        async def body():
            server = KeyEstablishmentServer(ModelRegistry(tiny_pipeline), config)
            await server.start()
            endpoint = Endpoint(port=server.bound_port)
            client, verdict = await open_data_session(endpoint, "restart")
            token = client.resume_token
            assert token
            assert verdict["channel"]["epoch"] == 0
            channel = channel_from_frame(verdict["channel"])
            payloads = [f"pre-crash-{i}".encode() for i in range(3)]
            pre_crash = list(channel.seal_records(payloads))
            for record in pre_crash:
                await client.send({"type": "secure", "record": record.hex()})
            # Read only part of the echo burst, then vanish: the crash
            # lands mid-encrypted-echo, with the channel context and the
            # verdict already journaled.
            for _ in range(2):
                reply = await client.recv()
                assert reply["type"] == "secure"
            await client.close()
            await asyncio.sleep(0.3)  # the reaper retires the detachee
            await server.stop()

            restarted = KeyEstablishmentServer(
                ModelRegistry(tiny_pipeline), config
            )
            await restarted.start()
            endpoint = Endpoint(port=restarted.bound_port)
            resumer = DeviceClient(
                endpoint, client.session_id, timeout_s=30.0, resume=token
            )
            try:
                await resumer.connect()
                welcome = await resumer.hello()
                assert welcome["type"] == "welcome"
                assert welcome["resumed"] is True
                redelivered = await resumer.recv()
                assert redelivered["type"] == "result"
                assert redelivered["resumed"] is True
                assert redelivered["key_digest"] == verdict["key_digest"]
                assert redelivered["channel"]["epoch"] == 1
                fresh_channel = channel_from_frame(redelivered["channel"])
                # Every pre-crash record replays as a structured epoch
                # mismatch: the wire epoch names keys the resumed
                # channel no longer holds, and nothing decrypts.
                for record in pre_crash:
                    await resumer.send(
                        {"type": "secure", "record": record.hex()}
                    )
                    reply = await resumer.recv()
                    assert reply["type"] == "secure-error"
                    assert reply["failure"] == "epoch-mismatch"
                    assert "record" not in reply  # no plaintext, ever
                # The bumped-epoch channel itself is live.
                await resumer.send(
                    {
                        "type": "secure",
                        "record": fresh_channel.seal(b"post-crash").hex(),
                    }
                )
                echo = await resumer.recv()
                assert echo["type"] == "secure"
                opened = fresh_channel.open(
                    bytes.fromhex(str(echo["record"]))
                )
                assert opened.ok and opened.plaintext == b"post-crash"
                await resumer.send({"type": "bye"})
            finally:
                await resumer.close()
                await restarted.drain(timeout=10.0)
            return restarted

        restarted = asyncio.run(body())
        assert restarted.metrics.recoveries == 1
        assert restarted.metrics.resumed_sessions == 1
        assert restarted.metrics.secure_open_failures["epoch-mismatch"] == 3
        # Tampered/pre-crash replays never close a healthy channel.
        assert restarted.metrics.channels_closed == {}


class TestShedThenAdmit:
    def test_shed_client_backs_off_and_is_admitted(self, tiny_pipeline):
        config = fast_config(max_sessions=1, retry_after_s=0.1)

        async def scenario(server, endpoint):
            parked = DeviceClient(endpoint, "dev-parked", timeout_s=10.0)
            await parked.connect()
            welcome = await parked.hello()  # occupies the only slot
            assert welcome["type"] == "welcome"
            retrying = asyncio.create_task(
                run_behavior(
                    endpoint,
                    "normal-retry",
                    "dev-retry",
                    episode="srv-shed",
                    rounds=ROUNDS,
                )
            )
            await asyncio.sleep(0.05)  # let the first attempt be shed
            await parked.close()  # free the slot during the backoff
            return await retrying

        outcome, server = run_scenario(tiny_pipeline, config, scenario)
        # The client was shed at least once, honored the structured
        # retry-after with its capped seeded backoff, reconnected and
        # completed a full establishment.
        assert outcome.kind == "result"
        assert outcome.retries >= 1
        assert server.metrics.rejected_overload >= 1
        assert server.metrics.completed >= 1

    def test_retries_exhausted_is_still_structured(self, tiny_pipeline):
        # The parked client never leaves: the retrying client spends its
        # budget and reports the rejection, not an exception or a hang.
        config = fast_config(max_sessions=1, retry_after_s=0.05)

        async def scenario(server, endpoint):
            parked = DeviceClient(endpoint, "dev-parked", timeout_s=10.0)
            await parked.connect()
            await parked.hello()
            try:
                return await run_behavior(
                    endpoint, "normal-retry", "dev-stubborn", timeout_s=10.0
                )
            finally:
                await parked.close()

        outcome, server = run_scenario(tiny_pipeline, config, scenario)
        assert outcome.kind == "rejected"
        assert outcome.frame["reason"] == "server-overloaded"
        assert outcome.retries == 2  # the behavior's full retry budget
        assert server.metrics.rejected_overload >= 3
