"""NIST test-suite runner reproducing the paper's Table II."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.security.nist.approximate_entropy import approximate_entropy_test
from repro.security.nist.block_frequency import block_frequency_test
from repro.security.nist.cumulative_sums import cumulative_sums_test
from repro.security.nist.dft import dft_test
from repro.security.nist.frequency import frequency_test
from repro.security.nist.linear_complexity import linear_complexity_test
from repro.security.nist.longest_run import longest_run_test
from repro.security.nist.non_overlapping import non_overlapping_template_test

#: The paper rejects randomness below this p-value.
SIGNIFICANCE_LEVEL = 0.01


def run_nist_suite(sequence) -> Dict[str, float]:
    """The eight Table II tests as ``{test name: p-value}``, in the table's row order.

    The chi-square approximation behind the linear-complexity test needs
    >= ~150 blocks (its smallest category has probability 1%), so its
    block size is ``min(500, max(64, n // 150))`` for an ``n``-bit stream.
    """
    bits = np.asarray(sequence, dtype=np.int8)
    return {
        "Frequency": frequency_test(bits),
        "DFT Test": dft_test(bits),
        "Longest Run": longest_run_test(bits),
        "Linear Complexity": linear_complexity_test(
            bits, block_size=min(500, max(64, bits.size // 150))
        ),
        "Block Frequency": block_frequency_test(bits),
        "Cumulative Sums": cumulative_sums_test(bits),
        "Approximate Entropy": approximate_entropy_test(bits),
        "Non Overlapping Template": non_overlapping_template_test(bits),
    }
