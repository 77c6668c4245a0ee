"""The batched multi-session engine vs a sequential establish_key loop.

``BatchedSessionRunner`` amortizes trace generation and the model
forward pass across sessions; these tests pin that the amortization is
*pure* -- every per-session outcome (keys, verified blocks, agreement
numbers, byte accounting) equals what a sequential
``establish_key(episode=label)`` loop over the same labels produces.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.core.batch import BatchedSessionRunner, BatchReport
from repro.exceptions import ConfigurationError


def sequential_outcomes(pipeline, runner, n_sessions):
    """The sequential-loop reference for a batch's episode labels."""
    return [
        pipeline.establish_key(episode=label, n_rounds=runner.n_rounds)
        for label in runner.session_labels(n_sessions)
    ]


def assert_outcomes_identical(batched, sequential):
    """Exact equality of everything a session outcome reports."""
    assert batched.session.final_key_alice == sequential.session.final_key_alice
    assert batched.session.final_key_bob == sequential.session.final_key_bob
    assert batched.session.verified_blocks == sequential.session.verified_blocks
    assert batched.session.agreed_bits == sequential.session.agreed_bits
    assert batched.session.n_blocks == sequential.session.n_blocks
    assert batched.session.n_windows == sequential.session.n_windows
    assert batched.session.kept_fraction == sequential.session.kept_fraction
    assert batched.session.consensus_bytes == sequential.session.consensus_bytes
    assert (
        batched.session.reconciliation_bytes
        == sequential.session.reconciliation_bytes
    )
    assert batched.session.raw_agreement.mean == sequential.session.raw_agreement.mean
    assert batched.failure_reason == sequential.failure_reason
    assert batched.probing_time_s == sequential.probing_time_s
    assert batched.key_generation_rate_bps == sequential.key_generation_rate_bps


class TestBatchedEngine:
    def test_matches_sequential_loop(self, tiny_pipeline):
        runner = BatchedSessionRunner(
            tiny_pipeline, n_rounds=192, episode_prefix="batch-eq"
        )
        report = runner.run(3)
        reference = sequential_outcomes(tiny_pipeline, runner, 3)
        assert report.n_sessions == 3
        for batched, sequential in zip(report.outcomes, reference):
            assert_outcomes_identical(batched, sequential)

    def test_report_accounting(self, tiny_pipeline):
        runner = BatchedSessionRunner(
            tiny_pipeline, n_rounds=128, episode_prefix="batch-acct"
        )
        report = runner.run(2)
        assert isinstance(report, BatchReport)
        assert report.elapsed_s > 0.0
        assert report.sessions_per_sec > 0.0
        assert 0 <= report.n_successful <= report.n_sessions

    def test_sessions_get_independent_episodes(self, tiny_pipeline):
        report = BatchedSessionRunner(
            tiny_pipeline, n_rounds=128, episode_prefix="batch-indep"
        ).run(2)
        first, second = (outcome.session for outcome in report.outcomes)
        if first.final_key_alice is not None and second.final_key_alice is not None:
            assert first.final_key_alice != second.final_key_alice

    def test_too_short_trace_degrades_not_crashes(self, tiny_pipeline):
        # 2 rounds cannot fill a seq_len-16 window: the session must
        # report an entropy failure, exactly like the sequential path.
        runner = BatchedSessionRunner(
            tiny_pipeline, n_rounds=2, episode_prefix="batch-short"
        )
        report = runner.run(1)
        outcome = report.outcomes[0]
        assert not outcome.success
        assert outcome.failure_reason is not None

    def test_rejects_nonpositive_sessions(self, tiny_pipeline):
        runner = BatchedSessionRunner(tiny_pipeline, n_rounds=64)
        with pytest.raises(ConfigurationError):
            runner.run(0)


class TestServedTick:
    """A coalesced served tick serves the keys the in-process runner gives."""

    ROUNDS = 48
    N_CLIENTS = 6

    def run_clients(self, pipeline):
        from repro.server import (
            Endpoint,
            KeyEstablishmentServer,
            ModelRegistry,
            ServerConfig,
            run_behavior,
        )

        config = ServerConfig(
            port=0,
            hello_timeout_s=2.0,
            idle_timeout_s=10.0,
            session_deadline_s=60.0,
            # A slow first tick so every client is queued before it fires
            # and the batch really coalesces several sessions.
            tick_interval_s=0.2,
            max_batch=8,
            queue_limit=8,
            max_sessions=32,
            retry_after_s=0.25,
            reap_interval_s=0.1,
        )

        async def body():
            server = KeyEstablishmentServer(ModelRegistry(pipeline), config)
            await server.start()
            endpoint = Endpoint(port=server.bound_port)
            try:
                outcomes = await asyncio.gather(
                    *(
                        run_behavior(
                            endpoint,
                            "normal",
                            f"dev-{i}",
                            episode=f"srv-tick-{i}",
                            rounds=self.ROUNDS,
                        )
                        for i in range(self.N_CLIENTS)
                    )
                )
            finally:
                if not server.closed:
                    await server.drain(timeout=10.0)
            assert server.active_sessions == 0
            return outcomes, server

        return asyncio.run(body())

    def test_served_tick_matches_in_process_runner(self, tiny_pipeline):
        served, server = self.run_clients(tiny_pipeline)
        assert all(outcome.kind == "result" for outcome in served)
        report = BatchedSessionRunner(
            tiny_pipeline, n_rounds=self.ROUNDS
        ).run_episodes([f"srv-tick-{i}" for i in range(self.N_CLIENTS)])
        expected = {
            f"dev-{i}": (
                None
                if outcome.final_key is None
                else hashlib.sha256(outcome.final_key).hexdigest()[:32],
                outcome.session.final_state,
            )
            for i, outcome in enumerate(report.outcomes)
        }
        # Some labels key, so digests are compared.
        assert any(digest for digest, _ in expected.values())
        # Same episode label => same key digest and final state, served
        # or in process.
        assert {
            outcome.frame["session_id"]: (
                outcome.frame.get("key_digest"),
                outcome.frame["final_state"],
            )
            for outcome in served
        } == expected
        assert server.metrics.tick_sessions_max >= 2  # the batch coalesced
        assert server.metrics.batch_fallbacks == 0


class TestPrecomputedProbabilities:
    def test_session_rejects_mismatched_probabilities(self, tiny_pipeline):
        session = tiny_pipeline.build_session()
        trace = tiny_pipeline.collect_trace("precomp-bad", n_rounds=192)
        bad = np.full((1, tiny_pipeline.config.key_bits), 0.5)
        with pytest.raises(ConfigurationError):
            session.exchange([trace], [session.window(trace)], [bad])


class TestSingleExtractionPath:
    """Both engines window in the session and run one forward pass."""

    @pytest.fixture
    def pool(self, tiny_pipeline):
        """Two traces of different lengths, pooled as a re-probe would."""
        return [
            tiny_pipeline.collect_trace("one-path-64", n_rounds=64),
            tiny_pipeline.collect_trace("one-path-192", n_rounds=192),
        ]

    @staticmethod
    def count_predicts(monkeypatch, model):
        """Record the window count of every forward pass ``model`` makes."""
        calls = []
        original = model.predict_bit_probabilities

        def counting(windows):
            calls.append(len(windows))
            return original(windows)

        monkeypatch.setattr(model, "predict_bit_probabilities", counting)
        return calls

    def test_pooled_run_makes_one_forward_pass(
        self, tiny_pipeline, pool, monkeypatch
    ):
        calls = self.count_predicts(monkeypatch, tiny_pipeline.model)
        pooled = tiny_pipeline.build_session().run(pool)
        assert calls == [pooled.n_windows]

        # Reference: the same run with one model call per dataset.
        per_dataset = tiny_pipeline.build_session()
        model = per_dataset.model
        monkeypatch.setattr(
            per_dataset,
            "predict",
            lambda datasets: [
                None if dataset is None
                else model.predict_bit_probabilities(dataset.alice)
                for dataset in datasets
            ],
        )
        reference = per_dataset.run(pool)
        assert len(calls) == 3
        assert pooled.final_key_alice == reference.final_key_alice
        assert pooled.final_key_bob == reference.final_key_bob
        assert pooled.verified_blocks == reference.verified_blocks

    def test_in_process_batch_makes_one_forward_pass(
        self, tiny_pipeline, monkeypatch
    ):
        calls = self.count_predicts(monkeypatch, tiny_pipeline.model)
        report = BatchedSessionRunner(tiny_pipeline, n_rounds=64).run_episodes(
            ["one-path-a", "one-path-b", "one-path-c"]
        )
        assert calls == [sum(o.session.n_windows for o in report.outcomes)]

    def test_predict_slices_equal_per_dataset_calls(self, tiny_pipeline, pool):
        session = tiny_pipeline.build_session()
        first, second = (session.window(trace) for trace in pool)
        stacked = session.predict([first, None, second])
        assert stacked[1] is None
        for dataset, probabilities in ((first, stacked[0]), (second, stacked[2])):
            alone = session.model.predict_bit_probabilities(dataset.alice)
            assert probabilities.dtype == alone.dtype
            np.testing.assert_array_equal(probabilities, alone)

    def test_pooled_kept_fraction_weights_every_sample(self, tiny_pipeline, pool):
        session = tiny_pipeline.build_session()
        details = [session.extract_detail(session.window(trace)) for trace in pool]
        masks = [mask for detail in details for mask in detail.masks]
        kept = sum(int(mask.sum()) for mask in masks)
        total = sum(mask.size for mask in masks)
        # The traces' own fractions differ, so an unweighted mean of them
        # misreports the pool.
        assert details[0].kept_fraction != details[1].kept_fraction
        assert session.run(pool).kept_fraction == kept / total


class TestCliBatch:
    def test_sessions_flag_runs_batched_engine(self, tiny_pipeline, monkeypatch):
        from repro import cli

        class _StubPipeline:
            """Stands in for the freshly-trained CLI pipeline."""

            @staticmethod
            def for_scenario(name, seed=0):
                return tiny_pipeline

        monkeypatch.setattr(
            "repro.core.pipeline.VehicleKeyPipeline", _StubPipeline
        )
        monkeypatch.setattr(tiny_pipeline, "load", lambda directory: tiny_pipeline)
        code = cli.main(
            ["establish", "--sessions", "2", "--load-dir", "unused"]
        )
        assert code in (0, 1)  # ran to completion either way

    def test_sessions_default_is_single_session(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["establish"])
        assert args.sessions == 1
