"""Fixtures shared by the test modules."""

import time

import pytest

from besselbeams.verify import quadrature_suite


@pytest.fixture(scope="session")
def default_quadrature():
    """(results, seconds) of the session's one quadrature_suite() run, at the
    default margin and tolerance."""
    t0 = time.monotonic()
    results = quadrature_suite()
    return results, time.monotonic() - t0
