"""Table II: NIST SP 800-22 randomness tests on the generated keys.

Paper claims: all eight reported tests return p-values above the 1%
significance level.  The tested stream is the concatenation of final
(privacy-amplified) key material from many independent sessions: each
session's agreed bits are hashed down in 256-bit chunks to 128-bit keys,
the protocol's last stage.
"""

from __future__ import annotations

import numpy as np

from repro.channel.scenario import ScenarioName
from repro.experiments.common import ExperimentResult, get_scale, get_trained_pipeline
from repro.privacy.amplification import amplify
from repro.security.nist import run_nist_suite


def generate_key_stream(
    pipeline, n_sessions: int, session_rounds: int
) -> np.ndarray:
    """Concatenated 128-bit final keys from many independent sessions."""
    session = pipeline.build_session()
    chunks = []
    for index in range(n_sessions):
        trace = pipeline.collect_trace(f"nist-{index}", n_rounds=session_rounds)
        dataset = session.window(trace)
        if dataset is None:
            continue
        detail = session.extract_detail(dataset)
        bits = detail.bob_bits
        for start in range(0, bits.size - 255, 256):
            chunks.append(
                amplify(
                    bits[start:start + 256], 128, salt=f"table2-{index}".encode()
                )
            )
    return np.concatenate(chunks) if chunks else np.zeros(0, np.uint8)


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate the NIST table."""
    scale = get_scale(quick)
    pipeline = get_trained_pipeline(ScenarioName.V2V_URBAN, seed=seed, quick=quick)
    n_sessions = 8 if quick else 20
    stream = generate_key_stream(pipeline, n_sessions, scale.session_rounds)

    result = ExperimentResult(
        experiment_id="table2",
        title="NIST SP 800-22 p-values of the final key stream",
        columns=["test", "p_value", "passed"],
        notes=f"stream length {stream.size} bits; pass threshold p >= 0.01",
    )
    for name, p_value in run_nist_suite(stream).items():
        result.add_row(test=name, p_value=p_value, passed=bool(p_value >= 0.01))
    return result
