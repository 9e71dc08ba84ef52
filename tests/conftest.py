"""Hypothesis settings and the file-contract fixture for every test under ``tests/``.

The ``tier1`` profile is loaded before any test module is imported, so every
``@settings`` inherits it: each run draws the same examples, and no example
database is read or written.
"""

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def contract():
    """A directory of the file-contract model in ``tests/test_contract.py``, to replay a named scenario on."""
    from test_contract import Contract

    machine = Contract()
    yield machine
    machine.teardown()
