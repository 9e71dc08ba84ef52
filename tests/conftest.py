"""Hypothesis settings, a time limit and the file-contract fixture for every test under ``tests/``.

The ``tier1`` profile is loaded before any test module is imported, so every
``@settings`` inherits it: each run draws the same examples, and no example
database is read or written. Every test is stopped after ``TIME_LIMIT_S``
seconds, so a test that loops for ever fails instead of hanging the run.
"""

import signal

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

TIME_LIMIT_S = 60  # the slowest test takes about 6 s


class TimeLimitExceeded(BaseException):
    """A test ran past ``TIME_LIMIT_S``. Not an ``Exception``, so hypothesis neither catches nor shrinks it."""


def _time_out(signum, frame):
    raise TimeLimitExceeded(f"the test ran for more than {TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Arm a real-time timer over each test, and disarm it after."""
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def contract():
    """A directory of the file-contract model in ``tests/test_contract.py``, to replay a named scenario on."""
    from test_contract import Contract

    machine = Contract()
    yield machine
    machine.teardown()
