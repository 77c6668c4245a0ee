"""The frozen per-window extraction: the consensus extraction's oracle.

:func:`reference_extract_detail` is ``KeyAgreementSession.extract_detail``
as it stood before extraction worked on whole window matrices: a loop
over the dataset's windows that quantizes each of Bob's windows twice
(once for his keep-mask, once more inside ``quantize_with_mask`` for the
agreed bits) and, when the inference guard rejects the batch, a second
loop (``_extract_detail_degraded``) in which Alice quantizes her own
finite windows the same way.  :func:`reference_quantize` is
``MultiBitQuantizer.quantize`` as it stood then, evaluating the normal
boundaries per call.  The quantizer's ``quantize_with_mask`` and Alice's
confidence mask are inlined, so the oracle reads only the session's
model, guard and quantizer settings and never the code it checks.

``tests/test_extraction_oracle.py`` pins ``extract_detail`` and
``MultiBitQuantizer`` to it field for field (:func:`assert_details_equal`);
``benchmarks/test_bench_probing.py`` times it as the ``before`` of its
extraction entry.
"""

import dataclasses
from typing import List

import numpy as np

from repro.core.session import ExtractionDetail
from repro.quantization.base import QuantizationResult, consensus_mask
from repro.utils.bits import gray_code_table
from repro.utils.validation import require


def reference_quantize(quantizer, values: np.ndarray) -> QuantizationResult:
    """``MultiBitQuantizer.quantize`` on one window, per call."""
    n_levels = 1 << quantizer.bits_per_sample
    window = np.asarray(values, dtype=float)
    require(window.ndim == 1, "values must be 1-D")
    require(
        window.size >= n_levels,
        f"window of {window.size} samples is too small for "
        f"{n_levels} quantile bins",
    )
    probabilities = np.arange(1, n_levels) / n_levels
    if quantizer.fixed_thresholds:
        from scipy.stats import norm

        std = window.std()
        normalized = (window - window.mean()) / (std if std > 0 else 1.0)
        boundaries = norm.ppf(probabilities)
        levels = np.searchsorted(boundaries, normalized, side="right")
    else:
        # Empirical quantile boundaries (internal only).
        boundaries = np.quantile(window, probabilities)
        levels = np.searchsorted(boundaries, window, side="right")

    kept = np.ones(window.size, dtype=bool)
    if quantizer.guard_band_fraction > 0:
        # Drop samples whose empirical CDF position is within
        # guard_band_fraction of a boundary's CDF position.
        order = np.argsort(window, kind="stable")
        cdf = np.empty(window.size)
        cdf[order] = (np.arange(window.size) + 0.5) / window.size
        guard = quantizer.guard_band_fraction / n_levels
        for boundary_cdf in (np.arange(1, n_levels) / n_levels):
            kept &= np.abs(cdf - boundary_cdf) > guard
    codebook = gray_code_table(quantizer.bits_per_sample)
    bits = codebook[levels[kept]].reshape(-1)
    return QuantizationResult(
        bits=bits.astype(np.uint8), kept=kept, bits_per_sample=quantizer.bits_per_sample
    )


def _quantize_with_mask(quantizer, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``Quantizer.quantize_with_mask``: re-quantize, keep the agreed groups."""
    result = reference_quantize(quantizer, values)
    keep = np.asarray(keep, dtype=bool)
    require(keep.shape == result.kept.shape, "mask must cover all samples")
    require(
        bool(np.all(result.kept[keep])),
        "agreed mask keeps a sample this side dropped; intersect masks first",
    )
    groups = result.bits.reshape(result.n_kept, result.bits_per_sample)
    kept_indices = np.flatnonzero(result.kept)
    selected = np.isin(kept_indices, np.flatnonzero(keep))
    return groups[selected].reshape(-1)


def _alice_keep_mask(session, probabilities: np.ndarray) -> np.ndarray:
    """Alice's per-sample confidence mask over one window's outputs."""
    bits_per_sample = session.model.bob_quantizer.bits_per_sample
    margins = np.abs(probabilities - 0.5).reshape(-1, bits_per_sample)
    return margins.min(axis=1) >= session.alice_confidence_margin


def reference_extract_detail(session, dataset, alice_probabilities=None) -> ExtractionDetail:
    """``KeyAgreementSession.extract_detail``, one window at a time."""
    verdict = None
    if session.inference_guard is not None:
        verdict = session.inference_guard.check(dataset.alice_raw)
        if not verdict.ok:
            return _reference_extract_detail_degraded(session, dataset, verdict)
    bits_per_sample = session.model.bob_quantizer.bits_per_sample
    if alice_probabilities is not None:
        alice_probs = np.asarray(alice_probabilities)
        require(
            len(alice_probs) == len(dataset),
            "alice_probabilities must cover every dataset window",
        )
    else:
        alice_probs = session.model.predict_bit_probabilities(dataset.alice)
    alice_bits = (alice_probs > 0.5).astype(np.uint8)

    alice_stream: List[np.ndarray] = []
    bob_stream: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    kept = 0
    total = 0
    consensus_bytes = 0
    for index in range(len(dataset)):
        bob_result = reference_quantize(session.bob_quantizer, dataset.bob_raw[index])
        alice_keep = _alice_keep_mask(session, alice_probs[index])
        keep = consensus_mask(bob_result.kept, alice_keep)
        masks.append(keep)
        total += keep.size
        kept += int(keep.sum())
        # Each side publishes its mask: one bit per sample, both ways.
        consensus_bytes += 2 * ((keep.size + 7) // 8)
        if not keep.any():
            continue
        bob_stream.append(
            _quantize_with_mask(session.bob_quantizer, dataset.bob_raw[index], keep)
        )
        groups = alice_bits[index].reshape(-1, bits_per_sample)
        alice_stream.append(groups[keep].reshape(-1))
    alice_all = (
        np.concatenate(alice_stream) if alice_stream else np.zeros(0, np.uint8)
    )
    bob_all = np.concatenate(bob_stream) if bob_stream else np.zeros(0, np.uint8)
    kept_fraction = kept / total if total else 0.0
    return ExtractionDetail(
        alice_bits=alice_all,
        bob_bits=bob_all,
        masks=masks,
        kept_fraction=kept_fraction,
        consensus_bytes=consensus_bytes,
        ood_windows=0 if verdict is None else verdict.n_ood,
    )


def _reference_extract_detail_degraded(session, dataset, verdict) -> ExtractionDetail:
    """``KeyAgreementSession._extract_detail_degraded``: the guard fallback."""
    alice_stream: List[np.ndarray] = []
    bob_stream: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    kept = 0
    total = 0
    consensus_bytes = 0
    for index in range(len(dataset)):
        bob_result = reference_quantize(session.bob_quantizer, dataset.bob_raw[index])
        window = dataset.alice_raw[index]
        if np.isfinite(window).all():
            alice_result = reference_quantize(session.alice_fallback_quantizer, window)
            keep = consensus_mask(bob_result.kept, alice_result.kept)
        else:
            keep = np.zeros(bob_result.kept.size, dtype=bool)
        masks.append(keep)
        total += keep.size
        kept += int(keep.sum())
        consensus_bytes += 2 * ((keep.size + 7) // 8)
        if not keep.any():
            continue
        bob_stream.append(
            _quantize_with_mask(session.bob_quantizer, dataset.bob_raw[index], keep)
        )
        alice_stream.append(
            _quantize_with_mask(session.alice_fallback_quantizer, window, keep)
        )
    alice_all = (
        np.concatenate(alice_stream) if alice_stream else np.zeros(0, np.uint8)
    )
    bob_all = np.concatenate(bob_stream) if bob_stream else np.zeros(0, np.uint8)
    kept_fraction = kept / total if total else 0.0
    return ExtractionDetail(
        alice_bits=alice_all,
        bob_bits=bob_all,
        masks=masks,
        kept_fraction=kept_fraction,
        consensus_bytes=consensus_bytes,
        degraded=True,
        ood_windows=verdict.n_ood,
    )


def assert_details_equal(expected: ExtractionDetail, actual: ExtractionDetail):
    """Every ``ExtractionDetail`` field, with exact equality."""
    for field in dataclasses.fields(ExtractionDetail):
        want = getattr(expected, field.name)
        got = getattr(actual, field.name)
        if field.name == "masks":
            assert len(want) == len(got)
            for want_mask, got_mask in zip(want, got):
                assert want_mask.dtype == got_mask.dtype
                np.testing.assert_array_equal(want_mask, got_mask)
        elif isinstance(want, np.ndarray):
            assert want.dtype == got.dtype, field.name
            np.testing.assert_array_equal(want, got)
        else:
            assert want == got, field.name
