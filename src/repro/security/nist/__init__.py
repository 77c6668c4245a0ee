"""NIST SP 800-22 statistical tests (the eight reported in Table II).

Each module implements one test as a function from a 0/1 bit array to a
p-value; :func:`run_nist_suite` runs all eight, and the paper's pass
criterion is ``p >= SIGNIFICANCE_LEVEL`` (0.01).
"""

from repro.security.nist.suite import SIGNIFICANCE_LEVEL, run_nist_suite
from repro.security.nist.frequency import frequency_test
from repro.security.nist.block_frequency import block_frequency_test
from repro.security.nist.longest_run import longest_run_test
from repro.security.nist.dft import dft_test
from repro.security.nist.cumulative_sums import cumulative_sums_test
from repro.security.nist.approximate_entropy import approximate_entropy_test
from repro.security.nist.non_overlapping import non_overlapping_template_test
from repro.security.nist.linear_complexity import linear_complexity_test, berlekamp_massey

__all__ = [
    "SIGNIFICANCE_LEVEL",
    "run_nist_suite",
    "frequency_test",
    "block_frequency_test",
    "longest_run_test",
    "dft_test",
    "cumulative_sums_test",
    "approximate_entropy_test",
    "non_overlapping_template_test",
    "linear_complexity_test",
    "berlekamp_massey",
]
