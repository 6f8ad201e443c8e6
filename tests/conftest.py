"""Shared fixtures.

The default grid (8192 points on a box of length 256) is what every
tolerance in the suite is calibrated against; tests that need a coarser
or finer grid construct their own.
"""

import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

from szego_lab.spectral_core import SpectralGrid

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=25,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid() -> SpectralGrid:
    return SpectralGrid(8192, 256.0)


@pytest.fixture(scope="session")
def tail_tol(grid) -> float:
    # grid truncation floor used for continuum identities
    return max(1e-8, 10.0 / grid.box_length)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _running_children() -> list:
    """Pids of this process's running children, from Linux /proc (none
    where it does not list them)."""
    lists = Path("/proc/self/task").glob("*/children")
    return [int(pid) for path in lists for pid in path.read_text().split()]


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped: every process a
    run command forks is reaped before the command returns.  What is
    left is reaped here, killed first if it still runs."""
    yield
    left = []
    while True:
        try:
            pid = os.waitpid(-1, os.WNOHANG)[0]
        except ChildProcessError:   # none left
            break
        running = [] if pid else _running_children()
        if not (pid or running):    # one still runs, but /proc lists none
            left.append("a running child")
            break
        for child in running:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
        left += [pid] if pid else running
    if left:
        pytest.fail(f"the test left child process(es) {left} unreaped")
