"""Shared fixtures: one toy-scale key set, built once per session.

Key generation is cheap (~5 ms) but the multiplication key takes ~40 ms,
and dozens of tests need one; building them once keeps the suite fast
without hiding any behavior (tests that care about key variability build
their own keys with their own seeds).

``stall_guard`` turns a call that runs too long into a failure, so a loader
that stalls on some input fails and shows that input instead of hanging the
suite.
"""

import signal
from contextlib import contextmanager
from random import Random

import pytest

from mvphe import build_evalkey, keygen, preset_params


@pytest.fixture(scope="session")
def toy_params():
    return preset_params("toy")


@pytest.fixture(scope="session")
def toy_sk(toy_params):
    return keygen(toy_params, Random("conftest-toy"))


@pytest.fixture(scope="session")
def toy_evk(toy_sk):
    return build_evalkey(toy_sk, rng=Random("conftest-toy-evk"))


@pytest.fixture(scope="session")
def small_params():
    return preset_params("small")


@pytest.fixture(scope="session")
def small_sk(small_params):
    return keygen(small_params, Random("conftest-small"))


class Stalled(Exception):
    """A guarded call ran past its limit.  Neither an OSError nor an
    MvpheError, so ``cli.main`` does not turn it into an ``error:`` line."""


@contextmanager
def _stall_guard(seconds: int = 10):
    def stalled(signum, frame):
        raise Stalled(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def stall_guard():
    """``with stall_guard(seconds):`` fails the block if it runs that long."""
    return _stall_guard
