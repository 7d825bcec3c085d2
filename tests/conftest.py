"""Shared fixtures: the small graph corpus, built once per session.

Run with ``--run-slow`` to include the large sampled-verification test.
Every test call fails once it has run ``WALL_LIMIT`` seconds, where the
platform has SIGALRM, so a hang fails with a traceback instead of stalling
the run.
"""

import signal

import pytest

from drglab.families import (folded_johnson, halved_cube, hamming, icosahedron,
                             johnson, petersen, triangular)


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="run tests marked slow (large sampled checks)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


#: seconds a test call may take; the slowest tier-1 test takes about 15 s
WALL_LIMIT = 300


class WallLimitExceeded(BaseException):
    """A test call ran past ``WALL_LIMIT``.  Not an ``Exception``, so that
    hypothesis does not catch it and shrink, running the stalled example
    again; pytest reports it as the test's failure."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise WallLimitExceeded(f"{item.nodeid} ran past {WALL_LIMIT} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def j105():
    return johnson(10, 5)


@pytest.fixture(scope="session")
def hc10():
    return halved_cube(10)


@pytest.fixture(scope="session")
def hc11():
    return halved_cube(11)


@pytest.fixture(scope="session")
def h53():
    return hamming(5, 3)


@pytest.fixture(scope="session")
def fj126():
    return folded_johnson(12, 6)


@pytest.fixture(scope="session")
def icosa():
    return icosahedron()


@pytest.fixture(scope="session")
def pete():
    return petersen()


@pytest.fixture(scope="session")
def t10():
    return triangular(10)
