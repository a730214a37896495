"""Shared test configuration.

Every property test runs under one hypothesis profile: derandomized (the
examples follow from the test itself, so tier-1 runs are repeatable), with
no example database and no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("isomlab", derandomize=True, database=None, deadline=None)
settings.load_profile("isomlab")
