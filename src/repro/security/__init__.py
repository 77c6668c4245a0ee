"""Security analysis: NIST randomness tests and attack harnesses."""

from repro.security.nist import run_nist_suite

__all__ = ["run_nist_suite"]
