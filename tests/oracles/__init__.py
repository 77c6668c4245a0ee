"""Frozen reference implementations that optimized code is pinned against.

Each oracle is a verbatim copy of an implementation as it stood before
an optimization, with its private helpers inlined so it does not
depend on the code it checks.  Tests compare the optimized path with
exact equality; benchmarks time it as their declared ``before``.
"""
