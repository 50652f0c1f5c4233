import functools

import pytest

from fuchsreduce import catalog, verify


@functools.lru_cache(maxsize=None)
def _prepared(entry_id: str):
    return verify.prepare(catalog.lookup(entry_id))


@functools.lru_cache(maxsize=None)
def _full_report(entry_id: str):
    return verify.full_report(entry_id)


@pytest.fixture(scope="session")
def prep():
    """Cached workspace factory shared by the whole suite."""
    return _prepared


@pytest.fixture(scope="session")
def report():
    """Cached full-report factory shared by the whole suite."""
    return _full_report
