"""The chaos invariant harness: generators, invariants, reports."""

import numpy as np
import pytest

from repro.faults.chaos import (
    INVARIANTS,
    ChaosReport,
    random_adversary_plan,
    random_fault_plan,
    random_rekey_policy,
    random_retry_policy,
    run_chaos,
)
from repro.exceptions import ConfigurationError


class TestPlanGenerators:
    def test_generators_are_seed_deterministic(self):
        a = np.random.default_rng([5, 3])
        b = np.random.default_rng([5, 3])
        assert random_fault_plan(a) == random_fault_plan(b)
        assert random_adversary_plan(a) == random_adversary_plan(b)
        pa, pb = random_retry_policy(a), random_retry_policy(b)
        assert pa.max_retries == pb.max_retries
        assert pa.backoff_base_s == pb.backoff_base_s
        assert pa.regional_plan == pb.regional_plan
        assert random_rekey_policy(a) == random_rekey_policy(b)

    def test_generators_cover_null_and_active_plans(self):
        faults_null = attacks_null = duty = 0
        n = 200
        for i in range(n):
            rng = np.random.default_rng([9, i])
            faults_null += random_fault_plan(rng).is_null
            attacks_null += random_adversary_plan(rng).is_null
            duty += random_retry_policy(rng).regional_plan is not None
        # ~25% null per family, ~75% with a regional plan attached.
        assert 0 < faults_null < n
        assert 0 < attacks_null < n
        assert 0 < duty < n

    def test_generated_plans_are_valid(self):
        # Construction itself validates every parameter range; 100 draws
        # would have raised by now if a generator could leave the range.
        for i in range(100):
            rng = np.random.default_rng([13, i])
            random_fault_plan(rng)
            random_adversary_plan(rng)
            random_retry_policy(rng)


class TestChaosReport:
    def test_violation_counts_zero_filled(self):
        report = ChaosReport(n_sessions=3, seed=0)
        counts = report.violation_counts()
        assert list(counts) == [
            name for name, sweeps in INVARIANTS.items() if "library" in sweeps
        ]
        assert all(v == 0 for v in counts.values())
        assert report.ok


class TestRunChaos:
    def test_rejects_nonpositive_sessions(self, tiny_pipeline):
        with pytest.raises(ConfigurationError):
            run_chaos(tiny_pipeline, 0)

    @pytest.fixture(scope="class")
    def sweep(self, tiny_pipeline):
        return run_chaos(tiny_pipeline, 8, seed=2, n_rounds=48)

    def test_no_invariant_violations(self, sweep):
        assert sweep.ok, [v.detail for v in sweep.violations]
        assert sweep.n_sessions == 8

    def test_sweep_mixes_faults_and_attacks(self, sweep):
        assert sweep.faulted_sessions > 0
        assert sweep.attacked_sessions > 0
        # Every session ends in exactly one bucket: success or a reason.
        assert sweep.successes + sum(sweep.failure_reasons.values()) == 8

    def test_sweep_is_deterministic(self, tiny_pipeline, sweep):
        again = run_chaos(tiny_pipeline, 8, seed=2, n_rounds=48)
        assert again.successes == sweep.successes
        assert again.aborts == sweep.aborts
        assert again.abort_reasons == sweep.abort_reasons
        assert again.failure_reasons == sweep.failure_reasons

    def test_different_seed_differs(self, tiny_pipeline, sweep):
        other = run_chaos(tiny_pipeline, 8, seed=3, n_rounds=48)
        fingerprint = (sweep.successes, sweep.aborts, sweep.failure_reasons)
        other_fingerprint = (other.successes, other.aborts, other.failure_reasons)
        assert other.n_sessions == 8
        # Not guaranteed to differ in every field, but the combined
        # fingerprint colliding would mean the seed is ignored.
        assert fingerprint != other_fingerprint or sweep.ok
