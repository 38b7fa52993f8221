"""Fixtures shared by every test module."""

import pytest

from tevdeg.engine import point_factor


@pytest.fixture(autouse=True)
def fresh_point_factor_memo():
    """Start and end each test with ``point_factor``'s memo empty.

    The memo keeps the last e's table, so without this a test that patches
    the ``TruncPoly`` product, or counts products or builds, would read a
    table another test built, and a table built under a patched product
    would reach the next test.
    """
    point_factor.cache_clear()
    yield
    point_factor.cache_clear()
