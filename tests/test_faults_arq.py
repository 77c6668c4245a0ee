"""ARQ probing, trace accounting and graceful session degradation."""

import dataclasses

import numpy as np
import pytest

from repro.core.session import SessionResult
from repro.core.statemachine import ABORT_MALFORMED
from repro.exceptions import (
    InsufficientEntropyError,
    KeyEstablishmentError,
    RetryBudgetExhausted,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.metrics.agreement import AgreementSummary
from repro.probing.trace import ProbeTrace

from tests.conftest import make_tiny_pipeline


@pytest.fixture(scope="module")
def lossy_trace():
    """A short, fault-injected trace from an untrained tiny pipeline."""
    pipeline = make_tiny_pipeline(seed=19)
    return pipeline.collect_trace(
        "lossy",
        n_rounds=32,
        fault_plan=FaultPlan.lossy(0.3, mean_burst=3.0, snr_dependent=False),
        retry_policy=RetryPolicy(),
    )


class TestArqProbing:
    def test_null_plan_is_bit_identical_to_no_plan(self):
        baseline = make_tiny_pipeline(seed=11).collect_trace("ident", n_rounds=24)
        with_null = make_tiny_pipeline(seed=11).collect_trace(
            "ident",
            n_rounds=24,
            fault_plan=FaultPlan.none(),
            retry_policy=RetryPolicy(),
        )
        np.testing.assert_array_equal(baseline.alice_rssi, with_null.alice_rssi)
        np.testing.assert_array_equal(baseline.bob_rssi, with_null.bob_rssi)
        np.testing.assert_array_equal(baseline.alice_prssi, with_null.alice_prssi)
        np.testing.assert_array_equal(baseline.round_start_s, with_null.round_start_s)
        np.testing.assert_array_equal(baseline.valid, with_null.valid)
        assert with_null.total_retries == 0
        assert with_null.n_dropped_rounds == 0

    def test_faulty_trace_is_deterministic(self, lossy_trace):
        again = make_tiny_pipeline(seed=19).collect_trace(
            "lossy",
            n_rounds=32,
            fault_plan=FaultPlan.lossy(0.3, mean_burst=3.0, snr_dependent=False),
            retry_policy=RetryPolicy(),
        )
        np.testing.assert_array_equal(lossy_trace.retries, again.retries)
        np.testing.assert_array_equal(lossy_trace.dropped, again.dropped)
        np.testing.assert_array_equal(lossy_trace.alice_rssi, again.alice_rssi)

    def test_retries_recorded_and_paid_in_time(self, lossy_trace):
        assert lossy_trace.total_retries > 0
        assert np.all(np.diff(lossy_trace.round_start_s) > 0)

    def test_dropped_rounds_are_invalid(self, lossy_trace):
        assert not lossy_trace.valid[lossy_trace.dropped].any()

    def test_heavy_loss_exhausts_retry_budget(self):
        pipeline = make_tiny_pipeline(seed=23)
        trace = pipeline.collect_trace(
            "drown",
            n_rounds=32,
            fault_plan=FaultPlan.lossy(0.9, mean_burst=2.0, snr_dependent=False),
            retry_policy=RetryPolicy(max_retries=1),
        )
        assert trace.n_dropped_rounds > 0
        assert trace.retries.max() <= 1


class TestTracePersistence:
    def test_retries_and_dropped_round_trip(self, lossy_trace, tmp_path):
        path = tmp_path / "lossy.npz"
        lossy_trace.save(path)
        loaded = ProbeTrace.load(path)
        np.testing.assert_array_equal(loaded.retries, lossy_trace.retries)
        np.testing.assert_array_equal(loaded.dropped, lossy_trace.dropped)
        assert loaded.total_retries == lossy_trace.total_retries
        assert loaded.n_dropped_rounds == lossy_trace.n_dropped_rounds

    def test_legacy_npz_without_arq_fields_loads(self, lossy_trace, tmp_path):
        path = tmp_path / "modern.npz"
        lossy_trace.save(path)
        with np.load(path) as data:
            # A true legacy file predates both the ARQ fields and the
            # artifact integrity header.
            legacy = {
                key: data[key]
                for key in data.files
                if key not in ("retries", "dropped") and not key.startswith("__")
            }
        legacy_path = tmp_path / "legacy.npz"
        np.savez_compressed(legacy_path, **legacy)
        with pytest.warns(UserWarning, match="legacy artifact"):
            loaded = ProbeTrace.load(legacy_path)
        assert loaded.total_retries == 0
        assert loaded.n_dropped_rounds == 0
        assert loaded.retries.shape == (lossy_trace.n_rounds,)

    def test_valid_only_filters_arq_fields(self, lossy_trace):
        filtered = lossy_trace.valid_only()
        assert filtered.retries.shape == (filtered.n_rounds,)
        assert filtered.n_dropped_rounds == 0  # dropped rounds are invalid


class TestSessionValidation:
    @pytest.fixture(scope="class")
    def session_and_trace(self, tiny_pipeline):
        trace = tiny_pipeline.collect_trace("validate", n_rounds=96)
        session = tiny_pipeline.build_session()
        result = session.run(trace)
        assert result.n_blocks > 0  # precondition: tamper hook actually fires
        return session, trace

    def test_negative_block_index_rejected(self, session_and_trace):
        session, trace = session_and_trace
        result = session.run(
            trace, tamper=lambda m: dataclasses.replace(m, block_index=-1)
        )
        assert result.abort is not None
        assert result.abort.reason == ABORT_MALFORMED
        assert "block index" in result.abort.detail
        assert result.final_key_alice is None

    def test_empty_nonce_rejected(self, session_and_trace):
        session, trace = session_and_trace
        result = session.run(
            trace, tamper=lambda m: dataclasses.replace(m, session_nonce=b"")
        )
        assert result.abort is not None
        assert result.abort.reason == ABORT_MALFORMED
        assert "nonce" in result.abort.detail
        assert result.final_key_alice is None


class TestBackoffJitter:
    def test_zero_jitter_is_deterministic_default(self):
        policy = RetryPolicy()
        assert policy.jitter_fraction == 0.0
        rng = np.random.default_rng(0)
        assert policy.backoff_s(1) == policy.backoff_s(1, rng=rng)

    def test_jitter_draws_from_given_stream(self):
        policy = RetryPolicy(jitter_fraction=0.5)
        a = policy.backoff_s(1, rng=np.random.default_rng(1))
        b = policy.backoff_s(1, rng=np.random.default_rng(1))
        c = policy.backoff_s(1, rng=np.random.default_rng(2))
        assert a == b  # same stream, same jitter
        assert a != c  # different stream, different jitter

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(jitter_fraction=0.3)
        nominal = RetryPolicy().backoff_s(2)
        rng = np.random.default_rng(3)
        for _ in range(64):
            jittered = policy.backoff_s(2, rng=rng)
            assert 0.7 * nominal - 1e-12 <= jittered <= 1.3 * nominal + 1e-12

    def test_duty_cycle_floor_applies_after_jitter(self):
        from repro.lora.regional import EU433

        airtime = 0.5  # EU433 floor: 0.5 * (1/0.1 - 1) = 4.5 s >> backoff
        policy = RetryPolicy(jitter_fraction=0.5, regional_plan=EU433)
        rng = np.random.default_rng(4)
        floor = EU433.min_gap_after(airtime)
        for _ in range(32):
            assert policy.backoff_s(0, airtime_s=airtime, rng=rng) >= floor

    def test_min_retry_delay_is_a_true_lower_bound(self):
        from repro.lora.regional import EU868

        policy = RetryPolicy(jitter_fraction=0.4, regional_plan=EU868)
        airtime = 0.1
        lower = policy.min_retry_delay_s(airtime)
        rng = np.random.default_rng(5)
        for retry_index in range(3):
            for _ in range(32):
                delay = policy.retry_delay_s(retry_index, airtime, rng=rng)
                assert delay >= lower - 1e-12

    def test_invalid_jitter_fraction_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=-0.1)


class TestBudgetSurfacing:
    """Consumed-vs-remaining retry and backoff budgets on trace/outcome."""

    def test_trace_surfaces_retry_budget(self, lossy_trace):
        # The lossy fixture ran with a fault plan, so the budget fields
        # are populated.
        assert lossy_trace.retry_limit == RetryPolicy().max_retries
        assert lossy_trace.max_round_retries <= lossy_trace.retry_limit
        remaining = lossy_trace.retry_budget_remaining
        assert remaining == lossy_trace.retry_limit - lossy_trace.max_round_retries
        assert lossy_trace.total_backoff_s > 0.0

    def test_fault_free_trace_has_no_budget(self):
        trace = make_tiny_pipeline(seed=29).collect_trace("clean", n_rounds=16)
        assert trace.retry_limit is None
        assert trace.retry_budget_remaining is None
        assert trace.total_backoff_s == 0.0

    def test_budget_fields_round_trip(self, lossy_trace, tmp_path):
        path = tmp_path / "budget.npz"
        lossy_trace.save(path)
        loaded = ProbeTrace.load(path)
        assert loaded.retry_limit == lossy_trace.retry_limit
        np.testing.assert_array_equal(
            loaded.backoff_time_s, lossy_trace.backoff_time_s
        )
        np.testing.assert_array_equal(
            loaded.replays_rejected, lossy_trace.replays_rejected
        )
        np.testing.assert_array_equal(loaded.injected, lossy_trace.injected)
        assert loaded.retry_budget_remaining == lossy_trace.retry_budget_remaining

    def test_outcome_surfaces_budget(self, tiny_pipeline):
        policy = RetryPolicy(max_retries=4)
        outcome = tiny_pipeline.establish_key(
            episode="budget-view",
            n_rounds=64,
            fault_plan=FaultPlan.lossy(0.3, mean_burst=2.0),
            retry_policy=policy,
        )
        assert outcome.retry_limit_per_round == 4
        assert 0 <= outcome.max_round_retries <= 4
        assert (
            outcome.retry_budget_remaining
            == outcome.retry_limit_per_round - outcome.max_round_retries
        )
        assert outcome.total_backoff_s > 0.0

    def test_fault_free_outcome_has_no_budget(self, tiny_pipeline):
        outcome = tiny_pipeline.establish_key(episode="budget-clean", n_rounds=64)
        assert outcome.retry_limit_per_round is None
        assert outcome.retry_budget_remaining is None
        assert outcome.total_backoff_s == 0.0
        assert outcome.time_to_abort_s is None
        assert outcome.attack_detections == 0


class TestGracefulDegradation:
    def test_establish_key_survives_twenty_percent_loss(self, tiny_pipeline):
        outcome = tiny_pipeline.establish_key(
            episode="arq-live",
            fault_plan=FaultPlan.lossy(0.2, mean_burst=2.0, message_drop_rate=0.1),
            retry_policy=RetryPolicy(),
            max_attempts=2,
        )
        # Acceptance: the session still succeeds under 20% loss ...
        assert outcome.success
        assert outcome.session.final_key_alice == outcome.session.final_key_bob
        assert outcome.total_retries > 0
        # ... and the degraded-transport accounting is consistent.
        result = outcome.session
        assert result.reconciliation_messages >= result.n_blocks
        assert 0 <= result.undelivered_blocks <= result.n_blocks
        assert len(result.verified_blocks) <= result.n_blocks - result.undelivered_blocks

    def test_null_plan_reproduces_default_outcome(self, tiny_pipeline):
        baseline = tiny_pipeline.establish_key(episode="bitident", n_rounds=128)
        with_null = tiny_pipeline.establish_key(
            episode="bitident",
            n_rounds=128,
            fault_plan=FaultPlan.none(),
            retry_policy=RetryPolicy(),
        )
        assert baseline.session.final_key_alice == with_null.session.final_key_alice
        assert baseline.session.final_key_bob == with_null.session.final_key_bob
        assert baseline.agreement_rate == with_null.agreement_rate
        assert baseline.key_generation_rate_bps == with_null.key_generation_rate_bps

    def test_short_trace_reports_insufficient_entropy(self, tiny_pipeline):
        short = tiny_pipeline.collect_trace("short", n_rounds=8)
        outcome = tiny_pipeline.establish_key(trace=short)
        assert not outcome.success
        assert outcome.failure_reason == InsufficientEntropyError.reason
        assert outcome.attempts == 1
        assert outcome.final_key is None
        with pytest.raises(InsufficientEntropyError):
            tiny_pipeline.establish_key(trace=short, raise_on_failure=True)

    def test_reprobe_exhaustion_reports_retry_budget(self, tiny_pipeline):
        outcome = tiny_pipeline.establish_key(
            episode="starved", n_rounds=8, max_attempts=2
        )
        assert not outcome.success
        assert outcome.attempts == 2
        assert outcome.failure_reason == RetryBudgetExhausted.reason
        with pytest.raises(RetryBudgetExhausted):
            tiny_pipeline.establish_key(
                episode="starved", n_rounds=8, max_attempts=2, raise_on_failure=True
            )

    def test_airtime_budget_stops_reprobing(self, tiny_pipeline):
        outcome = tiny_pipeline.establish_key(
            episode="capped",
            n_rounds=8,
            max_attempts=5,
            reprobe_airtime_budget_s=1e-6,
        )
        assert outcome.attempts == 1  # budget exhausted before any re-probe
        assert outcome.failure_reason == RetryBudgetExhausted.reason

    def test_key_mismatch_never_silent(self, tiny_pipeline, monkeypatch):
        trace = tiny_pipeline.collect_trace("mismatch", n_rounds=8)
        empty = AgreementSummary(mean=1.0, std=0.0, n_pairs=1)
        mismatched = SessionResult(
            raw_agreement=empty,
            reconciled_agreement=empty,
            verified_blocks=[0, 1],
            n_blocks=2,
            n_windows=4,
            kept_fraction=0.5,
            final_key_alice=b"A" * 16,
            final_key_bob=b"B" * 16,
            agreed_bits=64,
            consensus_bytes=32,
            reconciliation_bytes=128,
            reconciliation_messages=2,
        )

        class StubSession:
            def run(self, trace, tamper=None, channel=None, adversary=None):
                return mismatched

        monkeypatch.setattr(tiny_pipeline, "build_session", lambda: StubSession())
        outcome = tiny_pipeline.establish_key(trace=trace)
        assert not outcome.success
        assert outcome.failure_reason == "key-mismatch"
        with pytest.raises(KeyEstablishmentError) as excinfo:
            tiny_pipeline.establish_key(trace=trace, raise_on_failure=True)
        assert excinfo.type is KeyEstablishmentError
