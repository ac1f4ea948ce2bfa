"""A time limit on each test call, where the platform has SIGALRM.

A loop that stops advancing then fails its test with a traceback that
shows where it was, instead of holding the whole run until the CI job's
own timeout.  The limit is far above the slowest test (under 10 s).
"""

import signal

import pytest

#: seconds that one test call may take
TIME_LIMIT_S = 120


class TimeLimitExceeded(Exception):
    """A test call ran past ``TIME_LIMIT_S``."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
