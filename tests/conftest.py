"""Fixtures shared by every test module."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_gc():
    """Hand the heap back to the collector after each test.

    `cli.main` freezes every object alive when it starts. Without this, a
    test calling it in process would keep everything then alive, reference
    cycles included, out of the collector's reach for the rest of the
    session, and a file left open in such a cycle would never be finalized
    into the `ResourceWarning` that `python -X dev` reports.
    """
    yield
    gc.unfreeze()
