import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from gencluster import (ClusterPattern, TropicalSemifield, explore,
                        principal_pattern)

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after ``seconds`` (where the
    platform has interval timers; elsewhere the block just runs)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def a2():
    return ClusterPattern.build([[0, 1], [-1, 0]])


@pytest.fixture(scope="session")
def gen2():
    """Rank 2 with one quadratic exchange direction, symbolic interior
    coefficient w and trivial tropical y."""
    P = TropicalSemifield(("w",))
    return ClusterPattern.build([[0, 1], [-1, 0]], degrees=(2, 1),
                                semifield=P,
                                frozen=[(P.generator("w"),), ()])


@pytest.fixture(scope="session")
def gen2_coeff():
    """Same exchange data as gen2 but with nontrivial tropical y."""
    P = TropicalSemifield(("u", "v"))
    u, v = P.generator("u"), P.generator("v")
    return ClusterPattern.build([[0, 1], [-1, 0]], degrees=(2, 1),
                                semifield=P, y0=(u, v.inverse()),
                                frozen=[(u * v,), ()])


@pytest.fixture(scope="session")
def a2_coeff():
    P = TropicalSemifield(("u", "v"))
    return ClusterPattern.build([[0, 1], [-1, 0]], semifield=P,
                                y0=(P.generator("u"), P.generator("v")))


@pytest.fixture(scope="session")
def a3():
    return ClusterPattern.build([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])


@pytest.fixture(scope="session")
def gen3():
    P = TropicalSemifield(("u", "v"))
    u, v = P.generator("u"), P.generator("v")
    return ClusterPattern.build([[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
                                degrees=(2, 1, 1), semifield=P,
                                y0=(u, P.one(), v.inverse()),
                                frozen=[(u * v,), (), ()])


@pytest.fixture(scope="session")
def prin_a2():
    return principal_pattern([[0, 1], [-1, 0]])


@pytest.fixture(scope="session")
def prin_gen2():
    return principal_pattern([[0, 1], [-1, 0]], degrees=(2, 1))


@pytest.fixture(scope="session")
def a2_graph(a2):
    return explore(a2, depth_limit=10)


@pytest.fixture(scope="session")
def gen2_graph(gen2):
    return explore(gen2, depth_limit=12)


@pytest.fixture(scope="session")
def a3_graph(a3):
    return explore(a3, depth_limit=12)


@pytest.fixture(scope="session")
def gen3_graph(gen3):
    return explore(gen3, depth_limit=16)
