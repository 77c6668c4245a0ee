"""Uniform system interface for the comparison experiments.

Every key-generation system consumes a :class:`ProbeTrace` and reports
the same accounting, so Fig. 12 (agreement) and Fig. 13 (key rate) can be
produced from identical probing data.  Key material is processed in
fixed 64-bit blocks; a block counts toward the key only if reconciliation
made it match exactly (all real systems confirm blocks with a hash/CRC
before use), which is what the key-generation rate is computed from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.lora.airtime import LoRaPHYConfig
from repro.metrics.agreement import AgreementSummary, agreement_statistics
from repro.metrics.generation import key_generation_rate
from repro.probing.trace import ProbeTrace
from repro.quantization.base import Quantizer, consensus_mask
from repro.reconciliation.base import Reconciler
from repro.utils.validation import require


@dataclass
class SystemRunResult:
    """One system's outcome over one probing trace.

    Attributes:
        system: System name as reported in the figures.
        raw_agreement: Block agreement before reconciliation.
        reconciled_agreement: Block agreement after reconciliation.
        matched_blocks: Blocks that reconciled to an exact match.
        n_blocks: Total 64-bit blocks processed.
        block_bits: Bits per block.
        probing_time_s: Probing airtime consumed.
        reconciliation_messages: Public messages the reconciliation needed.
        public_bytes: Total public payload bytes (masks + syndromes).
    """

    system: str
    raw_agreement: AgreementSummary
    reconciled_agreement: AgreementSummary
    matched_blocks: int
    n_blocks: int
    block_bits: int
    probing_time_s: float
    reconciliation_messages: int
    public_bytes: int

    @property
    def agreed_bits(self) -> int:
        """Post-reconciliation agreed key-material bits.

        Computed the way the paper's key generation rate implies: total
        extracted bits scaled by the post-reconciliation agreement.  The
        stricter exact-match block count is available separately as
        ``matched_blocks``.
        """
        total = self.n_blocks * self.block_bits
        return int(round(total * self.reconciled_agreement.mean))

    def reconciliation_airtime_s(self, phy: LoRaPHYConfig) -> float:
        """LoRa airtime of the public reconciliation traffic."""
        return self.reconciliation_messages * phy.message_airtime_s(
            self.public_bytes, self.reconciliation_messages
        )

    def kgr_bps(self, phy: LoRaPHYConfig) -> float:
        """Verified key bits per second of total protocol time."""
        return key_generation_rate(
            self.agreed_bits, self.probing_time_s, self.reconciliation_airtime_s(phy)
        )


def reconcile_streams(
    system: str,
    alice_stream: np.ndarray,
    bob_stream: np.ndarray,
    reconciler: Reconciler,
    trace: ProbeTrace,
    extra_public_bytes: int = 0,
    extra_messages: int = 0,
    block_bits: int = 64,
) -> SystemRunResult:
    """Shared block-wise reconciliation and accounting.

    Args:
        system: Reporting name.
        alice_stream: Alice's post-quantization bit stream.
        bob_stream: Bob's, aligned with Alice's.
        reconciler: Reconciliation method to apply per block.
        trace: The probing trace (for time accounting).
        extra_public_bytes: Mask-exchange or model traffic the system
            already spent before reconciliation.
        extra_messages: Messages corresponding to those bytes.
        block_bits: Block size (64 throughout the evaluation).
    """
    require(alice_stream.shape == bob_stream.shape, "streams must be aligned")
    n_blocks = alice_stream.size // block_bits
    alice_blocks: List[np.ndarray] = []
    bob_blocks: List[np.ndarray] = []
    corrected: List[np.ndarray] = []
    matched = 0
    messages = extra_messages
    public_bytes = extra_public_bytes
    for block in range(n_blocks):
        lo, hi = block * block_bits, (block + 1) * block_bits
        outcome = reconciler.reconcile(alice_stream[lo:hi], bob_stream[lo:hi])
        alice_blocks.append(alice_stream[lo:hi])
        bob_blocks.append(bob_stream[lo:hi])
        corrected.append(outcome.alice_key)
        matched += int(outcome.success)
        messages += outcome.messages
        public_bytes += outcome.bytes_exchanged

    if n_blocks:
        raw = agreement_statistics(alice_blocks, bob_blocks)
        reconciled = agreement_statistics(corrected, bob_blocks)
    else:
        raw = AgreementSummary(0.0, 0.0, 0)
        reconciled = AgreementSummary(0.0, 0.0, 0)
    return SystemRunResult(
        system=system,
        raw_agreement=raw,
        reconciled_agreement=reconciled,
        matched_blocks=matched,
        n_blocks=n_blocks,
        block_bits=block_bits,
        probing_time_s=trace.duration_s,
        reconciliation_messages=messages,
        public_bytes=public_bytes,
    )


def two_sided_quantize(
    alice_series: np.ndarray,
    bob_series: np.ndarray,
    quantizer: Quantizer,
    window: int = 32,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Two-sided guard-banded quantization with public mask consensus.

    Both parties quantize per window, exchange keep-masks, and keep the
    intersection -- the standard index-reconciliation step every
    guard-banded scheme performs.

    Returns:
        ``(alice_bits, bob_bits, mask_bytes)``.
    """
    n_windows = len(alice_series) // window
    alice_bits: List[np.ndarray] = []
    bob_bits: List[np.ndarray] = []
    mask_bytes = 0
    for index in range(n_windows):
        lo, hi = index * window, (index + 1) * window
        result_a = quantizer.quantize(alice_series[lo:hi])
        result_b = quantizer.quantize(bob_series[lo:hi])
        keep = consensus_mask(result_a.kept, result_b.kept)
        mask_bytes += 2 * ((window + 7) // 8)
        if not keep.any():
            continue
        alice_bits.append(quantizer.quantize_with_mask(alice_series[lo:hi], keep))
        bob_bits.append(quantizer.quantize_with_mask(bob_series[lo:hi], keep))
    alice_all = np.concatenate(alice_bits) if alice_bits else np.zeros(0, np.uint8)
    bob_all = np.concatenate(bob_bits) if bob_bits else np.zeros(0, np.uint8)
    return alice_all, bob_all, mask_bytes


class KeyGenSystem(abc.ABC):
    """A complete key-generation system under comparison."""

    #: Reporting name used in the figures.
    name: str = "system"

    #: Reconciler applied to the pooled bit stream (subclasses set this).
    reconciler: Reconciler

    def prepare(self, pipeline) -> None:
        """Train learned components (no-op for the classic baselines)."""

    @abc.abstractmethod
    def extract_streams(
        self, trace: ProbeTrace
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """One trace's quantized bits: ``(alice, bob, public_bytes, messages)``."""

    def run(self, trace) -> SystemRunResult:
        """Process one probing trace -- or pool several -- into key material."""
        traces = [trace] if isinstance(trace, ProbeTrace) else list(trace)
        require(bool(traces), "need at least one probing trace")
        alice_parts, bob_parts = [], []
        public_bytes = 0
        messages = 0
        probing_time = 0.0
        for part in traces:
            alice_bits, bob_bits, part_bytes, part_messages = self.extract_streams(part)
            alice_parts.append(alice_bits)
            bob_parts.append(bob_bits)
            public_bytes += part_bytes
            messages += part_messages
            probing_time += part.duration_s
        alice_all = (
            np.concatenate(alice_parts) if alice_parts else np.zeros(0, np.uint8)
        )
        bob_all = np.concatenate(bob_parts) if bob_parts else np.zeros(0, np.uint8)
        result = reconcile_streams(
            self.name,
            alice_all,
            bob_all,
            self.reconciler,
            traces[0],
            extra_public_bytes=public_bytes,
            extra_messages=messages,
        )
        result.probing_time_s = probing_time
        return result


class VehicleKeySystem(KeyGenSystem):
    """Vehicle-Key wrapped in the comparison interface.

    Args:
        pipeline: A (possibly untrained) :class:`VehicleKeyPipeline`;
            :meth:`prepare` trains it.
    """

    name = "Vehicle-Key"

    def __init__(self, pipeline):
        self.pipeline = pipeline

    def prepare(self, pipeline=None, **train_kwargs) -> None:
        """Train the pipeline's model and reconciler."""
        self.pipeline.train(**train_kwargs)

    def extract_streams(self, trace: ProbeTrace):
        raise NotImplementedError(
            "VehicleKeySystem delegates whole runs to KeyAgreementSession"
        )

    def run(self, trace) -> SystemRunResult:
        traces = [trace] if isinstance(trace, ProbeTrace) else list(trace)
        session = self.pipeline.build_session()
        result = session.run(traces)
        return SystemRunResult(
            system=self.name,
            raw_agreement=result.raw_agreement,
            reconciled_agreement=result.reconciled_agreement,
            matched_blocks=len(result.verified_blocks),
            n_blocks=result.n_blocks,
            block_bits=self.pipeline.config.key_bits,
            probing_time_s=sum(part.duration_s for part in traces),
            reconciliation_messages=result.reconciliation_messages + 2,
            public_bytes=result.total_public_bytes,
        )
