"""Attack harnesses: eavesdropping and imitating attacks (paper Sec. V-H).

Both attackers get everything the threat model grants (Sec. III): full
protocol knowledge including the trained models, every public message
(consensus masks, syndromes, MACs), and their own radio observations.
What they lack is a reciprocal channel with either legitimate party.

- **Eavesdropping attack** (Fig. 15a): Eve parks near Bob, records all
  transmissions, runs her own measurements through the stolen pipeline
  and feeds Bob's public syndromes into the stolen decoder.
- **Imitating attack** (Fig. 15b/16): Eve tails Alice's route, obtaining
  the same large-scale channel, and mounts the same pipeline attack; the
  small-scale fading she cannot copy is what keeps her near 50%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.metrics.correlation import detrended_correlation
from repro.probing.dataset import build_dataset
from repro.probing.eve import EveConfig, build_eavesdropping_eve, build_imitating_eve
from repro.probing.features import arrssi_sequences, eve_arrssi_sequences
from repro.probing.trace import ProbeTrace
from repro.utils.validation import require


@dataclass
class AttackReport:
    """Outcome of one attack evaluation.

    Attributes:
        attacker: ``"eavesdropper"`` or ``"imitator"``.
        legitimate_agreement: Alice-vs-Bob agreement after reconciliation.
        eve_agreement: Eve-vs-Bob agreement after she applies the stolen
            decoder to the public syndromes.
        eve_raw_agreement: Eve-vs-Bob agreement of her raw candidate bits.
        n_blocks: Key blocks evaluated.
        eve_feature_correlation: Detrended correlation between Eve's and
            Alice's arRSSI sequences (the Fig. 16 comparison).
    """

    attacker: str
    legitimate_agreement: float
    eve_agreement: float
    eve_raw_agreement: float
    n_blocks: int
    eve_feature_correlation: float


_BUILDERS = {
    "eavesdropper": build_eavesdropping_eve,
    "imitator": build_imitating_eve,
}

#: Projected-gradient steps :func:`invert_syndrome` takes from its
#: least-squares start.
SYNDROME_INVERSION_STEPS = 500


def invert_syndrome(reconciler, syndrome: np.ndarray) -> np.ndarray:
    """Bob's key block recovered from his public syndrome alone.

    Bob's encoder is one linear ``Dense`` layer, so his syndrome is
    ``y = s @ W + b`` with ``s`` his Bloom-transformed block written as
    +-1, and the Bloom filter is a public permutation plus a public pad.
    Eve starts from the least-squares solution of ``s @ W = y - b``,
    runs projected gradient on ``0.5 * ||s @ W + b - y||^2`` over the box
    ``[-1, 1]^n`` with step ``1 / ||W||_2^2``, takes signs and undoes the
    Bloom filter.  numpy only: no solver library is needed.
    """
    layer = reconciler.encoder_bob.layers[0]
    kernel = layer.parameters["kernel"]
    target = np.asarray(syndrome, dtype=float) - layer.parameters["bias"]
    signed = np.clip(np.linalg.lstsq(kernel.T, target, rcond=None)[0], -1.0, 1.0)
    step = 1.0 / np.linalg.norm(kernel, 2) ** 2
    for _ in range(SYNDROME_INVERSION_STEPS):
        residual = signed @ kernel - target
        signed = np.clip(signed - step * (kernel @ residual), -1.0, 1.0)
    return reconciler.bloom.inverse((signed > 0.0).astype(np.uint8))


def collect_attack_traces(
    pipeline, attacker: str, n_traces: int = 2, n_rounds: int = None
) -> List[ProbeTrace]:
    """Probing traces with the requested attacker listening in."""
    require(attacker in _BUILDERS, f"unknown attacker {attacker!r}")
    builder = _BUILDERS[attacker]

    def build(scenario, seeds, channel, alice, bob):
        return builder(
            scenario, seeds, channel, alice, bob, EveConfig(label=attacker)
        )

    rounds = n_rounds if n_rounds is not None else pipeline.config.session_rounds
    return [
        pipeline.collect_trace(
            f"attack-{attacker}-{index}",
            n_rounds=rounds,
            eavesdropper_builders=[build],
        )
        for index in range(n_traces)
    ]


def run_attack(
    pipeline, attacker: str, n_traces: int = 2, n_rounds: int = None
) -> AttackReport:
    """Evaluate one attacker against a trained pipeline.

    Eve mirrors Alice's role: she extracts arRSSI from her own recordings
    of Bob's transmissions, runs the stolen prediction/quantization model,
    selects the publicly broadcast consensus positions, and decodes Bob's
    public syndromes with the stolen reconciler.
    """
    traces = collect_attack_traces(pipeline, attacker, n_traces, n_rounds)
    session = pipeline.build_session()
    model = pipeline.model
    reconciler = pipeline.reconciler
    bits_per_sample = model.bob_quantizer.bits_per_sample

    legit_alice: List[np.ndarray] = []
    legit_bob: List[np.ndarray] = []
    eve_candidate: List[np.ndarray] = []
    correlations: List[float] = []

    for trace in traces:
        dataset = session.window(trace)
        if dataset is None:
            continue
        detail = session.extract_detail(dataset)
        legit_alice.append(detail.alice_bits)
        legit_bob.append(detail.bob_bits)

        # Eve's mirrored extraction over the same windows and public masks.
        eve_as_bob, eve_as_alice = eve_arrssi_sequences(
            trace, attacker, session.feature_config
        )
        eve_dataset = build_dataset(eve_as_alice, eve_as_bob, seq_len=model.seq_len)
        eve_probs = model.predict_bit_probabilities(eve_dataset.alice)
        eve_bits = (eve_probs > 0.5).astype(np.uint8)
        parts: List[np.ndarray] = []
        for index, keep in enumerate(detail.masks):
            if index >= len(eve_dataset) or not keep.any():
                continue
            groups = eve_bits[index].reshape(-1, bits_per_sample)
            parts.append(groups[keep].reshape(-1))
        eve_candidate.append(
            np.concatenate(parts) if parts else np.zeros(0, np.uint8)
        )
        _, alice_seq = arrssi_sequences(trace, session.feature_config)
        correlations.append(
            detrended_correlation(eve_as_alice, alice_seq[: len(eve_as_alice)])
        )

    alice_all = np.concatenate(legit_alice)
    bob_all = np.concatenate(legit_bob)
    eve_all = np.concatenate(eve_candidate)
    n = min(alice_all.size, eve_all.size)
    block_bits = reconciler.key_bits
    n_blocks = n // block_bits
    require(n_blocks > 0, "attack run produced no complete key block")

    legit_rates = []
    eve_rates = []
    eve_raw_rates = []
    for block in range(n_blocks):
        lo, hi = block * block_bits, (block + 1) * block_bits
        bob_key = bob_all[lo:hi]
        syndrome = reconciler.bob_syndrome(bob_key)
        alice_corrected = reconciler.alice_correct(alice_all[lo:hi], syndrome)
        eve_corrected = reconciler.alice_correct(eve_all[lo:hi], syndrome)
        legit_rates.append(np.mean(alice_corrected == bob_key))
        eve_rates.append(np.mean(eve_corrected == bob_key))
        eve_raw_rates.append(np.mean(eve_all[lo:hi] == bob_key))

    return AttackReport(
        attacker=attacker,
        legitimate_agreement=float(np.mean(legit_rates)),
        eve_agreement=float(np.mean(eve_rates)),
        eve_raw_agreement=float(np.mean(eve_raw_rates)),
        n_blocks=n_blocks,
        eve_feature_correlation=float(np.mean(correlations)),
    )
