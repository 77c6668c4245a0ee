"""Security analysis: NIST randomness tests and attack harnesses."""

from repro.security.nist import NistTestSuite, run_nist_suite

__all__ = ["NistTestSuite", "run_nist_suite"]
