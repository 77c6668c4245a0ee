"""Behavioural tests for the key-establishment session server.

Each test stands up a real :class:`KeyEstablishmentServer` on a loopback
port and exercises one clause of the robustness contract: honest clients
get results, overload sheds with a structured retry-after, duplicate ids
are refused, quiet and slow-loris peers are reaped, corrupt frames abort
only their own session, a poisoned batch falls back to supervised
per-session execution, and a drain delivers in-flight work without
leaking a single session record.  ``TestOneVerdict`` drives a bare
:class:`DeviceSession`: its result future is the session's one verdict.

No pytest-asyncio in the environment: every test wraps its scenario in
``asyncio.run``.
"""

import asyncio
import time

import pytest

import repro.server.server as server_module
from repro.core.statemachine import (
    ABORT_DEADLINE,
    ABORT_DISCONNECT,
    ABORT_DRAINING,
    ABORT_FRAME,
    ABORT_IDLE,
    ABORT_INTERNAL,
    ABORT_MALFORMED,
    ABORT_OVERLOAD,
    ABORT_RECOVERED,
    ABORT_SECURE,
    SessionAbort,
)
from repro.server import (
    DeviceClient,
    DeviceSession,
    Endpoint,
    KeyEstablishmentServer,
    ModelRegistry,
    ServerConfig,
    run_behavior,
)
from repro.server.server import MAX_HELLO_ROUNDS

#: Short probing sessions keep each scenario well under a second.
ROUNDS = 48

#: Every slug the server aborts a live session with.
#: (``recovered-after-crash`` is journaled for an orphan of a crashed
#: process; no live session carries it.)
SERVER_ABORTS = (
    ABORT_DEADLINE,
    ABORT_DISCONNECT,
    ABORT_DRAINING,
    ABORT_FRAME,
    ABORT_IDLE,
    ABORT_INTERNAL,
    ABORT_MALFORMED,
    ABORT_OVERLOAD,
    ABORT_SECURE,
)


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


class TestHonestPath:
    def test_honest_session_gets_result(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(
                endpoint, "normal", "dev-1", episode="srv-t1", rounds=ROUNDS
            )

        outcome, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "result"
        assert outcome.frame["session_id"] == "dev-1"
        assert outcome.frame["final_state"] in ("complete", "aborted")
        assert "key_digest" in outcome.frame
        assert "degraded_mode" in outcome.frame
        assert server.metrics.completed == 1
        assert server.metrics.ticks >= 1

    def test_result_never_carries_raw_key(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(
                endpoint, "normal", "dev-1", episode="srv-t2", rounds=ROUNDS
            )

        outcome, _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        digest = outcome.frame.get("key_digest")
        if digest is not None:
            assert len(digest) == 32  # truncated sha256 hex, not key bytes
        assert "final_key" not in outcome.frame
        assert "key" not in outcome.frame

    def test_concurrent_honest_clients_coalesce(self, tiny_pipeline):
        async def scenario(server, endpoint):
            outcomes = await asyncio.gather(
                *(
                    run_behavior(
                        endpoint,
                        "normal",
                        f"dev-{i}",
                        episode=f"srv-t3-{i}",
                        rounds=ROUNDS,
                    )
                    for i in range(6)
                )
            )
            return outcomes

        outcomes, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert all(outcome.kind == "result" for outcome in outcomes)
        # Fewer ticks than sessions proves coalescing happened.
        assert server.metrics.ticks <= len(outcomes)
        assert server.metrics.tick_sessions_max >= 1

    def test_ping_and_health_are_answered(self, tiny_pipeline):
        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-ping", rounds=ROUNDS)
            await client.connect()
            try:
                await client.hello()
                await client.send({"type": "ping"})
                pong = await client.recv()
                await client.send({"type": "health"})
                health = await client.recv()
                await client.send({"type": "bye"})
                return pong, health
            finally:
                await client.close()

        (pong, health), _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert pong["type"] == "pong"
        assert health["type"] == "health"
        assert health["active_sessions"] >= 1
        assert health["metrics"]["accepted"] >= 1


class TestBackpressure:
    def test_overload_sheds_with_retry_after(self, tiny_pipeline):
        config = fast_config(max_sessions=1)

        async def scenario(server, endpoint):
            first = DeviceClient(endpoint, "dev-a")
            await first.connect()
            try:
                welcome = await first.hello()
                assert welcome["type"] == "welcome"
                shed = await run_behavior(endpoint, "normal", "dev-b")
                return shed
            finally:
                await first.close()

        shed, server = run_scenario(tiny_pipeline, config, scenario)
        assert shed.kind == "rejected"
        assert shed.frame["reason"] == "server-overloaded"
        assert shed.frame["retry_after_s"] == pytest.approx(0.25)
        assert server.metrics.rejected_overload == 1

    def test_duplicate_session_id_is_refused(self, tiny_pipeline):
        async def scenario(server, endpoint):
            first = DeviceClient(endpoint, "dev-dup")
            await first.connect()
            try:
                await first.hello()
                second = await run_behavior(endpoint, "normal", "dev-dup")
                return second
            finally:
                await first.close()

        second, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert second.kind == "rejected"
        assert second.frame["reason"] == "duplicate-session"
        assert "retry_after_s" in second.frame
        assert server.metrics.rejected_duplicate == 1


class TestLiveness:
    def test_idle_session_is_reaped(self, tiny_pipeline):
        config = fast_config(idle_timeout_s=0.3, reap_interval_s=0.05)

        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-idle", timeout_s=10.0)
            await client.connect()
            try:
                await client.hello()
                return await client.recv()  # the reaper's abort frame
            finally:
                await client.close()

        verdict, server = run_scenario(tiny_pipeline, config, scenario)
        assert verdict["type"] == "abort"
        assert verdict["reason"] == "idle-timeout"
        assert server.metrics.reaped_idle == 1

    def test_slow_loris_is_reaped_not_hung(self, tiny_pipeline):
        config = fast_config(idle_timeout_s=0.3, reap_interval_s=0.05)

        async def scenario(server, endpoint):
            return await run_behavior(
                endpoint, "slow-loris", "dev-loris", timeout_s=10.0
            )

        outcome, server = run_scenario(tiny_pipeline, config, scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "idle-timeout"
        assert server.metrics.reaped_idle == 1

    def test_deadline_is_enforced(self, tiny_pipeline):
        # Deadline shorter than the idle budget: the session dies by
        # deadline even though the peer keeps pinging.
        config = fast_config(
            idle_timeout_s=30.0, session_deadline_s=0.4, reap_interval_s=0.05
        )

        async def scenario(server, endpoint):
            client = DeviceClient(endpoint, "dev-deadline", timeout_s=10.0)
            await client.connect()
            try:
                await client.hello()
                while True:
                    await client.send({"type": "ping"})
                    frame = await client.recv()
                    if frame is None or frame.get("type") == "abort":
                        return frame
                    await asyncio.sleep(0.1)
            finally:
                await client.close()

        verdict, server = run_scenario(tiny_pipeline, config, scenario)
        assert verdict["type"] == "abort"
        assert verdict["reason"] == "deadline-exceeded"
        assert server.metrics.reaped_deadline == 1


class TestFailureIsolation:
    def test_corrupt_frame_aborts_only_its_session(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await asyncio.gather(
                run_behavior(
                    endpoint, "normal", "dev-good", episode="srv-iso", rounds=ROUNDS
                ),
                run_behavior(endpoint, "corrupt-frame", "dev-evil"),
            )

        (good, evil), server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert good.kind == "result"
        assert evil.kind == "abort"
        assert evil.frame["reason"] == "malformed-frame"
        assert server.metrics.malformed_frames >= 1

    def test_oversized_frame_aborts_structurally(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(endpoint, "oversized-frame", "dev-big")

        outcome, _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "malformed-frame"

    def test_unknown_frame_type_aborts_taxonomized(self, tiny_pipeline):
        async def scenario(server, endpoint):
            return await run_behavior(endpoint, "unknown-frame", "dev-odd")

        outcome, _ = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "malformed-message"

    def test_poisoned_batch_falls_back_per_session(self, tiny_pipeline, monkeypatch):
        class ExplodingRunner:
            """A batch runner whose batched path always detonates."""

            def __init__(self, *args, **kwargs):
                pass

            def run_episodes(self, labels):
                raise RuntimeError("poisoned batch tick")

        monkeypatch.setattr(server_module, "BatchedSessionRunner", ExplodingRunner)

        async def scenario(server, endpoint):
            return await asyncio.gather(
                run_behavior(
                    endpoint, "normal", "dev-f1", episode="srv-fb1", rounds=ROUNDS
                ),
                run_behavior(
                    endpoint, "normal", "dev-f2", episode="srv-fb2", rounds=ROUNDS
                ),
            )

        outcomes, server = run_scenario(tiny_pipeline, fast_config(), scenario)
        # The supervisor isolated the batch failure and every session
        # still received a structured verdict via the per-session path.
        assert all(outcome.kind == "result" for outcome in outcomes)
        assert server.metrics.batch_fallbacks >= 1

    def test_poisoned_session_aborts_alone(self, tiny_pipeline, monkeypatch):
        real_establish = tiny_pipeline.establish_key

        class ExplodingRunner:
            """Force the per-session fallback so one session can poison."""

            def __init__(self, *args, **kwargs):
                pass

            def run_episodes(self, labels):
                raise RuntimeError("force fallback")

        def selective_establish(episode="live", **kwargs):
            if episode == "srv-poison":
                raise RuntimeError("poisoned session")
            return real_establish(episode=episode, **kwargs)

        monkeypatch.setattr(server_module, "BatchedSessionRunner", ExplodingRunner)
        monkeypatch.setattr(tiny_pipeline, "establish_key", selective_establish)

        async def scenario(server, endpoint):
            return await asyncio.gather(
                run_behavior(
                    endpoint, "normal", "dev-ok", episode="srv-fine", rounds=ROUNDS
                ),
                run_behavior(
                    endpoint, "normal", "dev-bad", episode="srv-poison", rounds=ROUNDS
                ),
            )

        (ok, bad), server = run_scenario(tiny_pipeline, fast_config(), scenario)
        assert ok.kind == "result"
        assert bad.kind == "abort"
        assert bad.frame["reason"] == "internal-error"
        assert server.metrics.aborted.get("internal-error") == 1

    def test_failure_after_reap_keeps_the_reap_verdict(
        self, tiny_pipeline, monkeypatch
    ):
        # The reaper ends the session while its tick still runs; the
        # tick's late failure changes neither the verdict nor the counts.
        finished = []

        class ExplodingRunner:
            """Force the per-session fallback, which then fails late."""

            def __init__(self, *args, **kwargs):
                pass

            def run_episodes(self, labels):
                raise RuntimeError("force fallback")

        def late_failure(episode="live", **kwargs):
            time.sleep(1.0)  # outlives the 0.3 s idle budget below
            finished.append(episode)
            raise RuntimeError("poisoned session")

        monkeypatch.setattr(server_module, "BatchedSessionRunner", ExplodingRunner)
        monkeypatch.setattr(tiny_pipeline, "establish_key", late_failure)
        config = fast_config(idle_timeout_s=0.3, reap_interval_s=0.05)

        async def scenario(server, endpoint):
            outcome = await run_behavior(
                endpoint, "normal", "dev-late", episode="srv-late", timeout_s=10.0
            )
            while not finished:
                await asyncio.sleep(0.05)
            await asyncio.sleep(0.2)  # the tick settles the failure
            return outcome

        outcome, server = run_scenario(tiny_pipeline, config, scenario)
        assert outcome.kind == "abort"
        assert outcome.frame["reason"] == "idle-timeout"
        assert server.metrics.aborted == {"idle-timeout": 1}


@pytest.fixture(scope="module")
def late_outcome(tiny_pipeline):
    """A real tick outcome to deliver after (or before) an abort."""
    return tiny_pipeline.establish_key(episode="srv-verdict", n_rounds=ROUNDS)


def on_loop(body):
    """Run ``body()`` where ``DeviceSession`` can make its future."""

    async def runner():
        return body()

    return asyncio.run(runner())


class TestOneVerdict:
    """A ``DeviceSession``'s result future is its one verdict."""

    def test_slugs_are_the_servers(self):
        imported = {
            getattr(server_module, name)
            for name in dir(server_module)
            if name.startswith("ABORT_")
        }
        assert imported - {ABORT_RECOVERED} == set(SERVER_ABORTS)

    @pytest.mark.parametrize("reason", SERVER_ABORTS)
    def test_abort_resolves_a_live_session(self, reason):
        def body():
            session = DeviceSession(session_id="dev-v", episode="srv-verdict")
            assert not session.terminal
            assert session.abort(reason, "first")
            return session

        session = on_loop(body)
        assert session.terminal
        assert session.result.result() == SessionAbort(
            reason=reason, detail="first", state="init"
        )

    @pytest.mark.parametrize("reason", SERVER_ABORTS)
    def test_first_abort_keeps_its_verdict(self, reason, late_outcome):
        def body():
            session = DeviceSession(session_id="dev-v", episode="srv-verdict")
            session.abort(reason, "first")
            verdict = session.result.result()
            assert not session.abort(ABORT_INTERNAL, "second")
            assert not session.complete(late_outcome)
            assert session.result.result() is verdict

        on_loop(body)

    def test_outcome_keeps_its_verdict(self, late_outcome):
        def body():
            session = DeviceSession(session_id="dev-v", episode="srv-verdict")
            assert session.complete(late_outcome)
            for reason in SERVER_ABORTS:
                assert not session.abort(reason, "late")
            assert not session.complete(late_outcome)
            assert session.result.result() is late_outcome

        on_loop(body)


class TestHelloValidation:
    def test_bad_rounds_are_malformed_never_raised(self, tiny_pipeline):
        # A string, a list, zero, a negative, a fraction and one round
        # past the bound: none is a round count.  Each hello is counted
        # malformed and admits nothing; no exception escapes the
        # connection handler and no tick ever sees a bad value.
        bad_rounds = ["abc", [1], 0, -5, 2.9, MAX_HELLO_ROUNDS + 1]

        async def scenario(server, endpoint):
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            bad = await asyncio.gather(
                *(
                    run_behavior(
                        endpoint,
                        "normal",
                        f"dev-rounds-{i}",
                        episode=f"srv-rounds-{i}",
                        rounds=value,
                    )
                    for i, value in enumerate(bad_rounds)
                )
            )
            honest = await run_behavior(
                endpoint, "normal", "dev-rounds-ok", episode="srv-rounds-ok",
                rounds=ROUNDS,
            )
            return bad, honest, unhandled

        (bad, honest, unhandled), server = run_scenario(
            tiny_pipeline, fast_config(), scenario
        )
        assert unhandled == []
        assert [outcome.kind for outcome in bad] == ["closed"] * len(bad_rounds)
        assert server.metrics.malformed_frames == len(bad_rounds)
        assert server.metrics.accepted == 1
        assert server.metrics.batch_fallbacks == 0
        assert honest.kind == "result"
        assert honest.frame["session_id"] == "dev-rounds-ok"


class TestGracefulDrain:
    def test_drain_delivers_inflight_and_rejects_new(self, tiny_pipeline):
        async def scenario(server, endpoint):
            inflight = asyncio.create_task(
                run_behavior(
                    endpoint, "normal", "dev-in", episode="srv-drain", rounds=ROUNDS
                )
            )
            parked = DeviceClient(endpoint, "dev-parked", timeout_s=10.0)
            await parked.connect()
            await parked.hello()  # admitted but never starts
            await asyncio.sleep(0.05)
            report = await server.drain(timeout=15.0)
            late = await run_behavior(endpoint, "normal", "dev-late", timeout_s=2.0)
            inflight_outcome = await inflight
            parked_verdict = await parked.recv()
            await parked.close()
            return report, inflight_outcome, parked_verdict, late

        (report, inflight, parked, late), server = run_scenario(
            tiny_pipeline, fast_config(), scenario
        )
        assert report.leaked == 0
        # The started session completed and its result was delivered.
        assert inflight.kind == "result"
        # The parked session was aborted with the draining slug.
        assert parked["type"] == "abort"
        assert parked["reason"] == "server-draining"
        # Latecomers cannot connect at all (listener closed) -- a
        # structured client-side error, not a hang.
        assert late.kind in ("error", "rejected", "closed")
        assert server.closed

    def test_disconnect_after_start_does_not_stall_ticks(self, tiny_pipeline):
        async def scenario(server, endpoint):
            ghost = await run_behavior(
                endpoint,
                "disconnect-after-start",
                "dev-ghost",
                episode="srv-ghost",
                rounds=ROUNDS,
            )
            honest = await run_behavior(
                endpoint, "normal", "dev-honest", episode="srv-honest", rounds=ROUNDS
            )
            return ghost, honest

        (ghost, honest), server = run_scenario(
            tiny_pipeline, fast_config(), scenario
        )
        assert ghost.kind == "closed"
        assert honest.kind == "result"  # the wedge didn't stall anyone
