"""Fig. 10: key agreement rate with and without the prediction module.

Paper claims: the BiLSTM prediction module raises pre-reconciliation KAR
in every scenario (+5.48/+11.71/+5.42/+10.34 pp) and reduces its
standard deviation.

"Without prediction" means Alice quantizes her *own* arRSSI windows with
the same guard-banded multi-bit quantizer Bob uses; "with prediction"
uses the trained model's quantization head plus its confidence mask --
the pipeline's actual extraction path.
"""

from __future__ import annotations

import numpy as np

from repro.channel.scenario import ALL_SCENARIOS
from repro.experiments.common import ExperimentResult, get_scale, get_trained_pipeline
from repro.quantization.base import consensus_mask


def _without_prediction(session, dataset):
    """Two-sided guard-banded quantization of raw windows, per window."""
    quantizer = session.bob_quantizer
    rates = []
    for index in range(len(dataset)):
        result_a = quantizer.quantize(dataset.alice_raw[index])
        result_b = quantizer.quantize(dataset.bob_raw[index])
        keep = consensus_mask(result_a.kept, result_b.kept)
        if not keep.any():
            continue
        bits_a = quantizer.quantize_with_mask(dataset.alice_raw[index], keep)
        bits_b = quantizer.quantize_with_mask(dataset.bob_raw[index], keep)
        rates.append(float(np.mean(bits_a == bits_b)))
    return rates


def _with_prediction(session, dataset):
    """The pipeline's model-based extraction, per window."""
    detail = session.extract_detail(dataset)
    # Per-window rates for a comparable std: recompute window by window.
    model = session.model
    bits_per_sample = model.bob_quantizer.bits_per_sample
    probs = model.predict_bit_probabilities(dataset.alice)
    bits = (probs > 0.5).astype(np.uint8)
    rates = []
    for index, keep in enumerate(detail.masks):
        if not keep.any():
            continue
        alice_bits = bits[index].reshape(-1, bits_per_sample)[keep].reshape(-1)
        bob_bits = session.bob_quantizer.quantize_with_mask(
            dataset.bob_raw[index], keep
        )
        rates.append(float(np.mean(alice_bits == bob_bits)))
    return rates


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate the with/without-prediction comparison."""
    scale = get_scale(quick)
    result = ExperimentResult(
        experiment_id="fig10",
        title="KAR with vs without the prediction module",
        columns=[
            "scenario",
            "kar_without",
            "kar_with",
            "gain_pp",
            "std_without",
            "std_with",
        ],
        notes="paper shape: positive gain and smaller std in every scenario",
    )
    for name in ALL_SCENARIOS:
        pipeline = get_trained_pipeline(name, seed=seed, quick=quick)
        session = pipeline.build_session()
        without, with_pred = [], []
        for index in range(scale.n_sessions):
            trace = pipeline.collect_trace(
                f"fig10-{index}", n_rounds=scale.session_rounds
            )
            dataset = session.window(trace)
            if dataset is None:
                continue
            without.extend(_without_prediction(session, dataset))
            with_pred.extend(_with_prediction(session, dataset))
        result.add_row(
            scenario=name.value,
            kar_without=float(np.mean(without)),
            kar_with=float(np.mean(with_pred)),
            gain_pp=float(100 * (np.mean(with_pred) - np.mean(without))),
            std_without=float(np.std(without)),
            std_with=float(np.std(with_pred)),
        )
    return result
