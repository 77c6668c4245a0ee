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

#: The runner a forked shard worker executes.  Set by the parent
#: immediately before its worker pool forks, so children inherit the
#: whole runner (trained model weights included) as copy-on-write pages
#: instead of a per-worker pickle.
_SHARD_RUNNER: Optional["BatchedSessionRunner"] = None


def _run_shard_chunk(labels: List[str]) -> "BatchReport":
    """Fork-pool worker: run one contiguous chunk of the batch's labels."""
    return _SHARD_RUNNER._run_episodes_local(labels)


def _contiguous_chunks(labels: List[str], n_chunks: int) -> List[List[str]]:
    """Split ``labels`` into up to ``n_chunks`` contiguous, near-even runs.

    Earlier chunks absorb the remainder, sizes differ by at most one, and
    concatenating the chunks reproduces ``labels`` exactly -- the merge
    side relies on that for deterministic session order.
    """
    n_chunks = min(n_chunks, len(labels))
    base, remainder = divmod(len(labels), n_chunks)
    chunks: List[List[str]] = []
    cursor = 0
    for index in range(n_chunks):
        size = base + (1 if index < remainder else 0)
        chunks.append(labels[cursor : cursor + size])
        cursor += size
    return chunks


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
            grading, Python dispatch, and on a sharded run the fork /
            merge overhead).  On a sharded run each named phase is the
            *maximum* across shards (the wall-clock view of phases
            running in parallel).
        shards: Worker processes the batch actually ran across (1 for an
            in-process run, including any fallback from an unavailable
            fork context).
    """

    outcomes: List[KeyEstablishmentOutcome]
    elapsed_s: float
    phase_s: Dict[str, float]
    shards: int = 1

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
        shards: Worker processes to split a batch across (default 1 =
            in-process).  Shards are forked, so the trained model weights
            are shared copy-on-write rather than pickled per worker; the
            batch's labels are split into contiguous chunks and the
            merged outcomes keep session order, bit-identical to
            ``shards=1`` (episodes are seeded by name, so the process
            that probes an episode cannot change its trace).  On
            platforms without a ``fork`` start method the batch silently
            runs in-process.
    """

    def __init__(
        self,
        pipeline: VehicleKeyPipeline,
        n_rounds: Optional[int] = None,
        episode_prefix: str = "batch",
        shards: int = 1,
    ):
        self.pipeline = pipeline
        self.n_rounds = (
            int(n_rounds)
            if n_rounds is not None
            else pipeline.config.session_rounds
        )
        require_positive(self.n_rounds, "n_rounds")
        require_positive(int(shards), "shards")
        self.episode_prefix = episode_prefix
        self.shards = int(shards)

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
        were grouped into ticks -- or across how many shards the batch
        was split.
        """
        require(bool(labels), "need at least one episode label")
        n_shards = min(self.shards, len(labels))
        if n_shards > 1:
            report = self._run_sharded(list(labels), n_shards)
            if report is not None:
                return report
        return self._run_episodes_local(labels)

    def _run_episodes_local(self, labels: Sequence[str]) -> BatchReport:
        """One in-process batch (a whole batch, or one shard's chunk)."""
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

    def _run_sharded(
        self, labels: List[str], n_shards: int
    ) -> Optional[BatchReport]:
        """Fork the batch across ``n_shards`` workers and merge in order.

        Returns ``None`` when no ``fork`` start method exists (the caller
        then runs in-process).  The runner is handed to workers through a
        module global set *before* the pool forks, so the pipeline's
        trained weights travel by copy-on-write page sharing -- nothing
        is pickled per worker except each chunk's label list and its
        returned outcomes.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        global _SHARD_RUNNER
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platform
            return None
        start = time.perf_counter()
        chunks = _contiguous_chunks(labels, n_shards)
        previous = _SHARD_RUNNER
        _SHARD_RUNNER = self
        try:
            with ProcessPoolExecutor(
                max_workers=len(chunks), mp_context=context
            ) as pool:
                futures = [pool.submit(_run_shard_chunk, chunk) for chunk in chunks]
                reports = [future.result() for future in futures]
        finally:
            _SHARD_RUNNER = previous
        outcomes = [outcome for report in reports for outcome in report.outcomes]
        elapsed = time.perf_counter() - start
        # Named phases ran in parallel, so the batch-level view of each is
        # the slowest shard; orchestrate absorbs the fork/merge overhead.
        phase_s: Dict[str, float] = {}
        for report in reports:
            for key, value in report.phase_s.items():
                if key != "orchestrate":
                    phase_s[key] = max(phase_s.get(key, 0.0), value)
        phase_s["orchestrate"] = max(0.0, elapsed - sum(phase_s.values()))
        return BatchReport(
            outcomes=outcomes,
            elapsed_s=elapsed,
            phase_s=phase_s,
            shards=len(chunks),
        )
