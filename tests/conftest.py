"""Shared fixtures: the small graph corpus, built once per session.

Run with ``--run-slow`` to include the large sampled-verification test.
"""

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
