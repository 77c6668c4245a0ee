"""Batched multi-session key-establishment engine.

Serving key establishment at production scale means running many
concurrent sessions against one trained model.  Executed naively, each
session pays for its own probing episode *and* its own model forward
pass; the forward pass in particular leaves most of the batched-GEMM
throughput of :class:`~repro.core.model.PredictionQuantizationModel` on
the table when called with one session's handful of windows at a time.

:class:`BatchedSessionRunner` is the fault-free batch engine.  Built on
the stages of :class:`~repro.core.session.KeyAgreementSession`, it
amortizes the work across ``N`` sessions:

1. every session's probing trace comes from one call to the stacked
   fault-free probing kernel
   (:func:`~repro.probing.protocol.run_fastpath_group`),
2. each trace is windowed by ``session.window``,
3. one ``session.predict`` call runs a **single** forward pass over every
   session's windows,
4. each session then completes its own authenticated message exchange
   (``session.exchange``) with its slice of the predictions.

Per-session outcomes are *bit-identical* to running
:meth:`~repro.core.pipeline.VehicleKeyPipeline.establish_key` once per
episode label (``tests/test_batched_sessions.py`` pins this): both
engines run the same session stages, and the stacked forward pass
computes each window row independently.

Link faults, active attacks and re-probing are not the runner's job:
:meth:`~repro.core.pipeline.VehicleKeyPipeline.establish_key` alone owns
ARQ, attack handling and re-probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import KeyEstablishmentOutcome, VehicleKeyPipeline
# Unused here: perfbench/tracer.py still wraps these two names on this module.
from repro.probing.dataset import build_dataset  # noqa: F401
from repro.probing.features import arrssi_sequences  # noqa: F401
from repro.probing.trace import ProbeTrace
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class BatchReport:
    """What one batched multi-session run produced.

    Attributes:
        outcomes: Per-session establishment outcomes, in session order.
        elapsed_s: Wall-clock time for the whole batch (probing through
            privacy amplification).
        phase_s: Wall-clock seconds per batch phase -- ``probe`` (trace
            generation), ``window`` (every session's arRSSI windows),
            ``predict`` (the single batched forward pass), ``reconcile``
            and ``amplify`` (summed from each session's own phase
            timings) and ``orchestrate`` (everything else: outcome
            grading and Python dispatch).
    """

    outcomes: List[KeyEstablishmentOutcome]
    elapsed_s: float
    phase_s: Dict[str, float]

    @property
    def n_sessions(self) -> int:
        """Sessions the batch ran."""
        return len(self.outcomes)

    @property
    def n_successful(self) -> int:
        """Sessions that ended with both parties holding the same key."""
        return sum(1 for outcome in self.outcomes if outcome.success)

    @property
    def sessions_per_sec(self) -> float:
        """Batch throughput in completed sessions per wall-clock second."""
        if self.elapsed_s <= 0.0:
            return float("inf")
        return self.n_sessions / self.elapsed_s


class BatchedSessionRunner:
    """Run many key-establishment sessions against one trained pipeline.

    Args:
        pipeline: A trained :class:`~repro.core.pipeline.VehicleKeyPipeline`.
        n_rounds: Probing rounds per session (default:
            ``config.session_rounds``).
        episode_prefix: Label prefix; session ``i`` probes episode
            ``{prefix}-{i}``, so a batch covers the same independent
            channel realizations the sequential loop would.
    """

    def __init__(
        self,
        pipeline: VehicleKeyPipeline,
        n_rounds: Optional[int] = None,
        episode_prefix: str = "batch",
    ):
        self.pipeline = pipeline
        self.n_rounds = (
            int(n_rounds)
            if n_rounds is not None
            else pipeline.config.session_rounds
        )
        require_positive(self.n_rounds, "n_rounds")
        self.episode_prefix = episode_prefix

    def session_labels(self, n_sessions: int) -> List[str]:
        """The episode labels a batch of ``n_sessions`` probes."""
        return [f"{self.episode_prefix}-{i}" for i in range(n_sessions)]

    def run(self, n_sessions: int) -> BatchReport:
        """Execute ``n_sessions`` sessions with amortized model inference.

        Returns a :class:`BatchReport`; its per-session outcomes match a
        sequential ``establish_key`` loop over the same episode labels
        bit-for-bit.
        """
        require_positive(n_sessions, "n_sessions")
        return self.run_episodes(self.session_labels(n_sessions))

    def run_episodes(self, labels: Sequence[str]) -> BatchReport:
        """Execute one session per episode label, coalesced into a batch.

        The session server's tick loop uses this entry point directly:
        whatever sessions are ready when a tick fires are coalesced under
        their own episode labels, so outcomes stay bit-identical to
        per-session ``establish_key`` calls regardless of how arrivals
        were grouped into ticks.
        """
        require(bool(labels), "need at least one episode label")
        start = time.perf_counter()
        phase_s = {}
        session = self.pipeline.build_session()

        phase_start = time.perf_counter()
        traces: List[ProbeTrace] = self.pipeline.collect_traces(
            labels, n_rounds=self.n_rounds
        )
        phase_s["probe"] = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        datasets = [session.window(trace) for trace in traces]
        phase_s["window"] = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        probabilities = session.predict(datasets)
        phase_s["predict"] = time.perf_counter() - phase_start

        outcomes: List[KeyEstablishmentOutcome] = []
        phase_s["reconcile"] = phase_s["amplify"] = 0.0
        for trace, dataset, probs in zip(traces, datasets, probabilities):
            result = session.exchange([trace], [dataset], [probs])
            phase_s["reconcile"] += result.phase_s["reconcile"]
            phase_s["amplify"] += result.phase_s["amplify"]
            outcomes.append(self.pipeline.build_outcome(result, [trace]))

        elapsed = time.perf_counter() - start
        phase_s["orchestrate"] = max(0.0, elapsed - sum(phase_s.values()))
        return BatchReport(outcomes=outcomes, elapsed_s=elapsed, phase_s=phase_s)
