"""Authenticated two-party key-agreement session (message level).

Runs the key-derivation half of Vehicle-Key over an already-collected
probing trace:

1. **Windowing** -- both sides extract arRSSI windows.
2. **Bit extraction** -- Alice runs the prediction/quantization model;
   Bob runs his guard-banded multi-bit quantizer (paper Sec. IV-B).
3. **Consensus masking** -- Bob publishes which samples his guard bands
   kept; Alice publishes which samples her quantization head was
   confident about (sigmoid output far from 0.5).  Both keep only the
   intersection -- the standard public index-exchange step of
   guard-banded quantizers.
4. **Reconciliation** -- the surviving bits are pooled into fixed-size
   blocks; for each block Bob sends one autoencoder syndrome plus a MAC
   (Sec. IV-C).  A block whose reconciliation failed, or whose syndrome
   was tampered with, fails verification and is discarded.
5. **Privacy amplification** -- verified blocks are hashed into the
   final 128-bit key.
6. **Key confirmation** -- both parties exchange domain-separated hash
   commitments over the amplified key; a mismatch aborts the session and
   releases no key, so a reported success is cryptographically grounded
   rather than inferred from bit agreement.

The whole exchange runs under an explicit authenticated state machine
(:mod:`repro.core.statemachine`): attacker-controlled input -- replayed
nonces, malformed or spoofed syndromes, wholesale MAC failure, tampered
confirmations -- drives the session into a terminal, machine-readable
:class:`~repro.core.statemachine.SessionAbort` instead of raising or
silently corrupting state.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.guard import InferenceGuard
from repro.core.model import PredictionQuantizationModel
from repro.core.statemachine import (
    ABORT_CONFIRMATION,
    ABORT_MAC,
    ABORT_MALFORMED,
    ABORT_REPLAY,
    SessionAbort,
    SessionState,
    SessionStateMachine,
)
from repro.faults.adversary import ActiveAdversary
from repro.faults.messages import LossyMessageChannel
from repro.metrics.agreement import AgreementSummary, agreement_statistics
from repro.privacy.amplification import amplify_to_bytes
from repro.probing.dataset import build_dataset
from repro.probing.features import FeatureConfig, arrssi_sequences
from repro.probing.trace import ProbeTrace
from repro.quantization.base import consensus_mask
from repro.reconciliation.autoencoder import AutoencoderReconciliation
from repro.reconciliation.mac import MAC_BYTES, compute_mac, verify_mac
from repro.utils.validation import require, require_in_range, require_positive


@dataclass(frozen=True)
class SyndromeMessage:
    """What Bob transmits per reconciliation block.

    Attributes:
        block_index: Which pooled key block this syndrome covers.
        session_nonce: Fresh per-session nonce (replay protection).
        syndrome: Bob's encoder output ``y_Bob``.
        mac: ``MAC(K'_Bob, nonce || block || syndrome)``.
    """

    block_index: int
    session_nonce: bytes
    syndrome: np.ndarray
    mac: bytes

    def payload_bytes(self) -> int:
        """Serialized size charged against the LoRa airtime budget."""
        return 4 + len(self.session_nonce) + 4 * self.syndrome.size + MAC_BYTES

    def body(self) -> bytes:
        """The MAC'd message body."""
        return (
            self.session_nonce
            + self.block_index.to_bytes(4, "big")
            + np.asarray(self.syndrome, dtype="<f8").tobytes()
        )


@dataclass
class ExtractionDetail:
    """Per-window consensus extraction output (public masks included).

    Attributes:
        alice_bits: Alice's surviving bit stream.
        bob_bits: Bob's, aligned with Alice's.
        masks: Per-window boolean keep-masks (broadcast protocol state).
        kept_fraction: Fraction of samples surviving the consensus.
        consensus_bytes: Mask-exchange payload bytes.
        degraded: ``True`` when the inference guard rejected the batch and
            Alice's bits came from the conventional quantizer fallback
            instead of the learned model.
        ood_windows: Windows the inference guard flagged out-of-distribution.
    """

    alice_bits: np.ndarray
    bob_bits: np.ndarray
    masks: List[np.ndarray]
    kept_fraction: float
    consensus_bytes: int
    degraded: bool = False
    ood_windows: int = 0


@dataclass
class SessionResult:
    """Everything a completed key-agreement session produced.

    Attributes:
        raw_agreement: Agreement of the consensus-kept bits before
            reconciliation, summarized per block.
        reconciled_agreement: Post-reconciliation agreement (no discards).
        verified_blocks: Block indices that passed MAC verification.
        n_blocks: Total reconciliation blocks processed.
        n_windows: arRSSI windows the trace yielded.
        kept_fraction: Samples surviving the two-sided consensus mask.
        final_key_alice: Alice's final key bytes (``None`` if too few
            verified bits).
        final_key_bob: Bob's final key bytes.
        agreed_bits: Verified key-material bits before hashing.
        consensus_bytes: Mask-exchange payload bytes.
        reconciliation_bytes: Syndrome payload bytes.
        reconciliation_messages: Syndrome messages exchanged.
        retransmitted_messages: Syndrome retransmissions triggered by
            Alice's bounded re-requests (0 on a reliable transport).
        undelivered_blocks: Blocks whose syndrome never reached Alice
            within the re-request budget (discarded, never key material).
        degraded_mode: ``None`` when the learned model produced Alice's
            bits; the slug ``"ood-quantizer-fallback"`` when the inference
            guard rejected at least one trace's windows and the session
            fell back to Alice's conventional multi-bit quantizer.
        ood_windows: Windows flagged out-of-distribution by the guard.
        abort: Structured :class:`~repro.core.statemachine.SessionAbort`
            when the state machine aborted the session; ``None`` on a
            clean completion.  An aborted session never carries final
            keys.
        confirmed: ``True`` when the key-confirmation hash exchange
            verified on both sides, ``False`` when it ran and failed,
            ``None`` when it never ran (no candidate key to confirm).
        confirmation_bytes: Public payload bytes of the confirmation
            round (two hash commitments; 0 when it never ran).
        mac_failures: Syndrome messages whose MAC verification failed.
        rejected_messages: Messages rejected before MAC verification
            (stale nonce, malformed structure, unknown block).
        session_nonce: The fresh public nonce this session ran under;
            the secure-channel KDF binds traffic keys to it
            (:class:`repro.secure.kdf.ChannelContext`).
        final_state: Terminal :class:`~repro.core.statemachine.SessionState`
            value (``"complete"`` or ``"aborted"``).
        phase_s: Wall-clock seconds per session phase -- ``window``
            (arRSSI sequence + dataset construction), ``extract`` (model
            forward / quantization + consensus masking), ``reconcile``
            (syndrome exchange + MAC verification) and ``amplify``
            (privacy amplification + key confirmation).  The throughput
            benchmark's per-phase breakdown aggregates these.
    """

    raw_agreement: AgreementSummary
    reconciled_agreement: AgreementSummary
    verified_blocks: List[int]
    n_blocks: int
    n_windows: int
    kept_fraction: float
    final_key_alice: Optional[bytes]
    final_key_bob: Optional[bytes]
    agreed_bits: int
    consensus_bytes: int
    reconciliation_bytes: int
    reconciliation_messages: int
    retransmitted_messages: int = 0
    undelivered_blocks: int = 0
    degraded_mode: Optional[str] = None
    ood_windows: int = 0
    abort: Optional[SessionAbort] = None
    confirmed: Optional[bool] = None
    confirmation_bytes: int = 0
    mac_failures: int = 0
    rejected_messages: int = 0
    session_nonce: bytes = b""
    final_state: Optional[str] = None
    phase_s: Dict[str, float] = field(default_factory=dict)

    @property
    def keys_match(self) -> bool:
        """Whether both parties hold the same final key."""
        return (
            self.final_key_alice is not None
            and self.final_key_alice == self.final_key_bob
        )

    @property
    def aborted(self) -> bool:
        """Whether the authenticated state machine aborted the session."""
        return self.abort is not None

    @property
    def total_public_bytes(self) -> int:
        """All public-channel payload bytes the session consumed."""
        return (
            self.consensus_bytes
            + self.reconciliation_bytes
            + self.confirmation_bytes
        )


class KeyAgreementSession:
    """One Vehicle-Key key-agreement run over a probing trace.

    Args:
        model: Trained prediction/quantization model (Alice's side).
        reconciler: Trained autoencoder reconciliation.
        feature_config: arRSSI extraction parameters.
        final_key_bits: Final key length after privacy amplification.
        alice_confidence_margin: Alice keeps a sample only when every one
            of its predicted bit probabilities is at least this far from
            0.5 -- her side of the two-sided guard band.
        bob_guard_fraction: Guard-band mass fraction of Bob's runtime
            quantizer (his side of the two-sided guard band).  Training
            targets always come from the model's guard-free quantizer so
            the bit layout stays fixed.
        session_nonce: Fresh public nonce; defaults to a digest of the
            trace timing (deterministic for reproducibility).
        inference_guard: Optional out-of-distribution guard over Alice's
            raw windows.  When the guard rejects a window batch, Alice's
            bits come from her conventional guard-banded quantizer instead
            of the learned model -- a degraded but sound mode reported via
            :attr:`SessionResult.degraded_mode`, never a silent success.
            ``None`` (the default) always trusts the model.
    """

    def __init__(
        self,
        model: PredictionQuantizationModel,
        reconciler: AutoencoderReconciliation,
        feature_config: FeatureConfig = FeatureConfig(),
        final_key_bits: int = 128,
        alice_confidence_margin: float = 0.15,
        bob_guard_fraction: float = 0.30,
        session_nonce: bytes = None,
        inference_guard: Optional[InferenceGuard] = None,
    ):
        require_positive(final_key_bits, "final_key_bits")
        require_in_range(alice_confidence_margin, 0.0, 0.49, "alice_confidence_margin")
        require_in_range(bob_guard_fraction, 0.0, 0.49, "bob_guard_fraction")
        self.model = model
        self.reconciler = reconciler
        self.feature_config = feature_config
        self.final_key_bits = int(final_key_bits)
        self.alice_confidence_margin = float(alice_confidence_margin)
        from repro.quantization.multibit import MultiBitQuantizer

        self.bob_quantizer = MultiBitQuantizer(
            bits_per_sample=model.bob_quantizer.bits_per_sample,
            guard_band_fraction=bob_guard_fraction,
            fixed_thresholds=model.bob_quantizer.fixed_thresholds,
        )
        # Alice's conventional-path quantizer, mirroring Bob's runtime
        # configuration; only exercised when the inference guard rejects a
        # window batch and the session degrades to quantizer-vs-quantizer.
        self.alice_fallback_quantizer = MultiBitQuantizer(
            bits_per_sample=model.bob_quantizer.bits_per_sample,
            guard_band_fraction=bob_guard_fraction,
            fixed_thresholds=model.bob_quantizer.fixed_thresholds,
        )
        self.inference_guard = inference_guard
        self.session_nonce = session_nonce

    # -- bit extraction ----------------------------------------------------------
    def extract_detail(
        self, dataset, alice_probabilities: Optional[np.ndarray] = None
    ) -> "ExtractionDetail":
        """Consensus extraction with per-window masks (public protocol state).

        The masks are what both parties broadcast during index
        reconciliation, so attack harnesses legitimately see them too.
        All windows are quantized in one pass; each party's bits are its
        codes at the agreed ``[window, sample]`` positions, in that
        order.  Alice keeps a sample when all its predicted bit
        probabilities are at least ``alice_confidence_margin`` from 0.5.

        When an :class:`~repro.core.guard.InferenceGuard` is configured
        and rejects the batch's raw windows, extraction degrades to the
        conventional quantizer path instead of feeding the model
        out-of-distribution inputs: Alice quantizes her *own* raw windows
        with a guard-banded multi-bit quantizer mirroring Bob's -- the
        classic reciprocity scheme that needs no model.  Windows holding
        non-finite values keep no sample, so a corrupted burst can reduce
        throughput but never poisons key material.

        Args:
            dataset: The window dataset to extract bits from.
            alice_probabilities: Optional precomputed output of
                ``model.predict_bit_probabilities(dataset.alice)``, used
                by the batched multi-session engine to amortize one big
                forward pass across sessions.  The guard (if any) still
                runs first; a degraded batch ignores the precomputed
                values, exactly as it ignores the model.
        """
        verdict = None
        if self.inference_guard is not None:
            verdict = self.inference_guard.check(dataset.alice_raw)
        degraded = verdict is not None and not verdict.ok
        bob_codes, bob_keep = self.bob_quantizer.quantize_rows(dataset.bob_raw)
        if degraded:
            alice_codes, alice_keep = self.alice_fallback_quantizer.quantize_rows(
                dataset.alice_raw
            )
        else:
            if alice_probabilities is not None:
                alice_probs = np.asarray(alice_probabilities)
                require(
                    len(alice_probs) == len(dataset),
                    "alice_probabilities must cover every dataset window",
                )
            else:
                alice_probs = self.model.predict_bit_probabilities(dataset.alice)
            margins = np.abs(alice_probs - 0.5).reshape(bob_codes.shape)
            alice_keep = margins.min(axis=2) >= self.alice_confidence_margin
            alice_codes = (alice_probs > 0.5).astype(np.uint8).reshape(margins.shape)
        keep = consensus_mask(bob_keep, alice_keep)
        n_windows, n_samples = keep.shape
        return ExtractionDetail(
            alice_bits=alice_codes[keep].reshape(-1),
            bob_bits=bob_codes[keep].reshape(-1),
            masks=list(keep),
            kept_fraction=int(keep.sum()) / keep.size if keep.size else 0.0,
            # Each side publishes its mask: one bit per sample, both ways.
            consensus_bytes=n_windows * 2 * ((n_samples + 7) // 8),
            degraded=degraded,
            ood_windows=0 if verdict is None else verdict.n_ood,
        )

    # -- message validation ------------------------------------------------------
    @staticmethod
    def _validate_message(message: SyndromeMessage) -> Optional[str]:
        """Describe what is structurally wrong with a message, if anything.

        A negative block index or an empty nonce would previously flow
        into array indexing / MAC bodies as silent garbage.  Attacker
        input must never raise out of the session, so the problem is
        returned as a detail string (``None`` when the message is well
        formed) and the caller converts it into a structured abort.
        """
        if message.block_index < 0:
            return f"syndrome block index must be >= 0, got {message.block_index}"
        if not message.session_nonce:
            return "syndrome message carries an empty session nonce"
        return None

    @staticmethod
    def _confirmation_commit(tag: bytes, nonce: bytes, key: bytes) -> bytes:
        """One party's key-confirmation commitment.

        A truncated domain-separated hash over the amplified key: the
        ``tag`` distinguishes the two directions so neither party can
        reflect the other's commitment back.
        """
        return hashlib.sha256(tag + nonce + key).digest()[:16]

    # -- the session -------------------------------------------------------------
    def run(
        self,
        trace,
        tamper=None,
        channel: Optional[LossyMessageChannel] = None,
        max_rerequests: int = 2,
        alice_probabilities: Optional[List[np.ndarray]] = None,
        adversary: Optional[ActiveAdversary] = None,
        datasets: Optional[List] = None,
    ) -> SessionResult:
        """Execute the session.

        Args:
            trace: A completed probing trace, or a sequence of traces whose
                surviving bits are pooled (key establishment may span
                several probing bursts before enough verified bits exist).
            tamper: Optional fault-injection hook mapping a
                :class:`SyndromeMessage` to a (possibly modified) message;
                used by the MITM tests.
            channel: Optional lossy transport for the syndrome exchange.
                Messages may be dropped, duplicated or reordered; Alice
                re-requests blocks that did not verify, up to
                ``max_rerequests`` extra rounds, and blocks that never
                arrive are discarded rather than failing the session.
                ``None`` is the reliable transport of the seed behaviour.
            max_rerequests: Re-request rounds allowed when ``channel`` is
                lossy.  Ignored on a reliable transport, where the single
                pass always delivers every block.
            alice_probabilities: Optional precomputed model outputs, one
                array per trace that yields at least ``seq_len`` windows
                (in trace order) -- the batched engine's hook for sharing
                a single stacked forward pass across sessions.  ``None``
                runs the model per dataset as usual.
            datasets: Optional precomputed window datasets, one entry per
                trace (``None`` for a trace that fell short of
                ``seq_len`` windows) -- the batched engine's hook for
                skipping the re-windowing it already performed.  Entries
                must be exactly what :func:`build_dataset` would produce
                for the trace; ``None`` windows each trace here as usual.
            adversary: Optional active attacker whose message-layer
                attacks (syndrome tamper/replay/spoof, confirmation
                tamper) are woven into the exchange.  Attacker input
                never raises out of the session: a replayed nonce, a
                malformed message, or a wholesale MAC failure drives the
                state machine into a structured
                :class:`~repro.core.statemachine.SessionAbort` carried on
                the returned result, and an aborted session releases no
                key material.

        Returns:
            The :class:`SessionResult`, with ``abort``/``confirmed``/
            ``final_state`` reporting the state machine's verdict.
        """
        traces = [trace] if isinstance(trace, ProbeTrace) else list(trace)
        require(bool(traces), "need at least one probing trace")
        machine = SessionStateMachine()
        nonce = self.session_nonce
        if nonce is None:
            nonce = hashlib.sha256(
                np.ascontiguousarray(traces[0].round_start_s).tobytes()
            ).digest()[:8]
        machine.advance(SessionState.EXTRACTING)

        alice_parts, bob_parts = [], []
        kept_fractions = []
        consensus_bytes = 0
        n_windows = 0
        degraded = False
        ood_windows = 0
        precomputed = list(alice_probabilities) if alice_probabilities else None
        prebuilt = list(datasets) if datasets is not None else None
        if prebuilt is not None:
            require(
                len(prebuilt) == len(traces),
                "datasets must supply one entry (or None) per trace",
            )
        phase_s = {"window": 0.0, "extract": 0.0, "reconcile": 0.0, "amplify": 0.0}
        for trace_index, part in enumerate(traces):
            phase_start = time.perf_counter()
            if prebuilt is not None:
                dataset = prebuilt[trace_index]
                phase_s["window"] += time.perf_counter() - phase_start
                if dataset is None:
                    continue
            else:
                bob_seq, alice_seq = arrssi_sequences(part, self.feature_config)
                if len(alice_seq) < self.model.seq_len:
                    phase_s["window"] += time.perf_counter() - phase_start
                    continue
                dataset = build_dataset(alice_seq, bob_seq, seq_len=self.model.seq_len)
                phase_s["window"] += time.perf_counter() - phase_start
            n_windows += len(dataset)
            probs = precomputed.pop(0) if precomputed else None
            phase_start = time.perf_counter()
            detail = self.extract_detail(dataset, alice_probabilities=probs)
            phase_s["extract"] += time.perf_counter() - phase_start
            alice_parts.append(detail.alice_bits)
            bob_parts.append(detail.bob_bits)
            kept_fractions.append(detail.kept_fraction)
            consensus_bytes += detail.consensus_bytes
            degraded = degraded or detail.degraded
            ood_windows += detail.ood_windows
        alice_all = (
            np.concatenate(alice_parts) if alice_parts else np.zeros(0, np.uint8)
        )
        bob_all = np.concatenate(bob_parts) if bob_parts else np.zeros(0, np.uint8)
        kept_fraction = float(np.mean(kept_fractions)) if kept_fractions else 0.0
        block_bits = self.reconciler.key_bits
        n_blocks = alice_all.size // block_bits

        alice_blocks: List[np.ndarray] = [
            alice_all[b * block_bits : (b + 1) * block_bits]
            for b in range(n_blocks)
        ]
        bob_blocks: List[np.ndarray] = [
            bob_all[b * block_bits : (b + 1) * block_bits]
            for b in range(n_blocks)
        ]
        corrected: Dict[int, np.ndarray] = {}
        verified_set = set()
        reconciliation_bytes = 0
        messages = 0
        retransmitted = 0
        mac_failures = 0
        rejected = 0
        if n_blocks:
            machine.advance(SessionState.RECONCILING)

        def bob_message(block: int) -> SyndromeMessage:
            """Bob's (re)transmission of one block's syndrome."""
            bob_key = bob_blocks[block]
            syndrome = self.reconciler.bob_syndrome(bob_key)
            body = (
                nonce
                + block.to_bytes(4, "big")
                + np.asarray(syndrome, dtype="<f8").tobytes()
            )
            return SyndromeMessage(
                block_index=block,
                session_nonce=nonce,
                syndrome=syndrome,
                mac=compute_mac(self.reconciler.bloom.transform(bob_key), body),
            )

        def alice_receive(message: SyndromeMessage) -> None:
            """Alice's handling of one arrival (idempotent per block).

            Attacker-controlled input never raises: structural damage and
            stale nonces abort the state machine; MAC failures leave the
            block unverified (and counted) so a later retransmission can
            still succeed.
            """
            nonlocal mac_failures, rejected
            if machine.aborted:
                return
            problem = self._validate_message(message)
            if problem is not None:
                rejected += 1
                machine.abort(ABORT_MALFORMED, problem)
                return
            if message.session_nonce != nonce:
                rejected += 1
                machine.abort(
                    ABORT_REPLAY,
                    "session nonce mismatch: stale or replayed message",
                )
                return
            block = message.block_index
            if block >= n_blocks:
                rejected += 1
                machine.abort(
                    ABORT_MALFORMED,
                    f"syndrome for unknown block {block} (have {n_blocks})",
                )
                return
            if block in verified_set:
                # Idempotent: a duplicate -- or a forgery racing a block
                # that already verified -- never overwrites key material.
                return
            corrected_key = self.reconciler.alice_correct(
                alice_blocks[block], message.syndrome
            )
            corrected[block] = corrected_key
            if verify_mac(
                self.reconciler.bloom.transform(corrected_key),
                message.body(),
                message.mac,
            ):
                verified_set.add(block)
            else:
                mac_failures += 1

        # First pass sends every block; further passes (lossy or attacked
        # transport only) re-request the blocks that did not verify --
        # lost ones and MAC failures alike -- until the re-request budget
        # runs out.
        unreliable = channel is not None or (
            adversary is not None and adversary.plan.attacks_messages
        )
        phase_start = time.perf_counter()
        outstanding = list(range(n_blocks))
        for request_round in range(max(0, max_rerequests) + 1):
            if not outstanding or machine.aborted:
                break
            if request_round > 0:
                retransmitted += len(outstanding)
            arrivals: List[SyndromeMessage] = []
            for block in outstanding:
                message = bob_message(block)
                if tamper is not None:
                    message = tamper(message)
                if adversary is not None:
                    message = adversary.corrupt_syndrome(message)
                messages += 1
                reconciliation_bytes += message.payload_bytes()
                if channel is None:
                    arrivals.append(message)
                else:
                    arrivals.extend(channel.deliver(message))
            if channel is not None:
                arrivals.extend(channel.flush())
            if adversary is not None:
                arrivals.extend(
                    adversary.spoof_syndromes(
                        nonce, n_blocks, self.reconciler.code_dim
                    )
                )
            for message in arrivals:
                alice_receive(message)
            if not unreliable:
                # Reliable transport: everything arrived; MAC failures are
                # reconciliation failures, which a resend cannot fix.
                break
            outstanding = [b for b in outstanding if b not in verified_set]

        # Wholesale MAC failure: syndromes arrived but not one verified.
        # That is indistinguishable from a man-in-the-middle rewriting the
        # exchange, so the session aborts rather than reporting a merely
        # unproductive run.
        if not machine.aborted and n_blocks and corrected and not verified_set:
            machine.abort(
                ABORT_MAC,
                f"all {len(corrected)} received syndromes failed MAC "
                "verification",
            )

        phase_s["reconcile"] = time.perf_counter() - phase_start
        verified = sorted(verified_set)
        received = sorted(corrected)
        if n_blocks:
            raw = agreement_statistics(alice_blocks, bob_blocks)
        else:
            raw = AgreementSummary(mean=0.0, std=0.0, n_pairs=0)
        if received:
            reconciled = agreement_statistics(
                [corrected[b] for b in received],
                [bob_blocks[b] for b in received],
            )
        else:
            reconciled = AgreementSummary(mean=0.0, std=0.0, n_pairs=0)

        phase_start = time.perf_counter()
        verified_alice = (
            np.concatenate([corrected[i] for i in verified])
            if verified
            else np.zeros(0, dtype=np.uint8)
        )
        verified_bob = (
            np.concatenate([bob_blocks[i] for i in verified])
            if verified
            else np.zeros(0, dtype=np.uint8)
        )
        if verified_alice.size >= self.final_key_bits and not machine.aborted:
            final_alice = amplify_to_bytes(verified_alice, self.final_key_bits)
            final_bob = amplify_to_bytes(verified_bob, self.final_key_bits)
        else:
            final_alice = final_bob = None

        # Key confirmation: both parties commit to the amplified key with
        # domain-separated truncated hashes.  Only a key that survives the
        # exchange is released, so ``keys_match`` is cryptographically
        # checked rather than inferred from bit agreement.
        confirmed: Optional[bool] = None
        confirmation_bytes = 0
        if final_alice is not None and final_bob is not None:
            machine.advance(SessionState.CONFIRMING)
            bob_commit = self._confirmation_commit(
                b"vehicle-key-confirm-bob", nonce, final_bob
            )
            if adversary is not None:
                bob_commit = adversary.tamper_confirmation(bob_commit)
            confirmation_bytes += len(bob_commit)
            alice_accepts = bob_commit == self._confirmation_commit(
                b"vehicle-key-confirm-bob", nonce, final_alice
            )
            alice_commit = self._confirmation_commit(
                b"vehicle-key-confirm-alice", nonce, final_alice
            )
            if adversary is not None:
                alice_commit = adversary.tamper_confirmation(alice_commit)
            confirmation_bytes += len(alice_commit)
            bob_accepts = alice_commit == self._confirmation_commit(
                b"vehicle-key-confirm-alice", nonce, final_bob
            )
            confirmed = alice_accepts and bob_accepts
            if not confirmed:
                machine.abort(
                    ABORT_CONFIRMATION,
                    "key-confirmation hash exchange failed",
                )
                final_alice = final_bob = None
        if not machine.terminal:
            machine.advance(SessionState.COMPLETE)
        phase_s["amplify"] = time.perf_counter() - phase_start

        return SessionResult(
            raw_agreement=raw,
            reconciled_agreement=reconciled,
            verified_blocks=verified,
            n_blocks=n_blocks,
            n_windows=n_windows,
            kept_fraction=kept_fraction,
            final_key_alice=final_alice,
            final_key_bob=final_bob,
            agreed_bits=int(verified_alice.size),
            consensus_bytes=consensus_bytes,
            reconciliation_bytes=reconciliation_bytes,
            reconciliation_messages=messages,
            retransmitted_messages=retransmitted,
            undelivered_blocks=n_blocks - len(corrected),
            degraded_mode="ood-quantizer-fallback" if degraded else None,
            ood_windows=ood_windows,
            abort=machine.abort_record,
            confirmed=confirmed,
            confirmation_bytes=confirmation_bytes,
            mac_failures=mac_failures,
            rejected_messages=rejected,
            session_nonce=nonce,
            final_state=machine.state.value,
            phase_s=phase_s,
        )
