"""Shared test configuration.

Every property test runs under one hypothesis profile: derandomized (the
examples follow from the test itself, so tier-1 runs are repeatable), with
no example database and no per-example deadline.

numpy's ComplexWarning, which a cast that drops an imaginary part emits,
is an error.  It subclasses RuntimeWarning, so the ``error::RuntimeWarning``
rule of pyproject.toml covers it too; it is named on its own so that it
stays an error should that rule narrow.  It is added here rather than in
pyproject.toml because its module differs across the supported numpy
versions (``numpy.exceptions`` from 1.25, ``numpy`` before).
"""

from hypothesis import settings

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning

settings.register_profile("isomlab", derandomize=True, database=None, deadline=None)
settings.load_profile("isomlab")


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", f"error::{ComplexWarning.__module__}.ComplexWarning")
