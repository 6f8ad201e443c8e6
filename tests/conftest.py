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


def _open_pipes() -> set:
    """(fd, "pipe:[inode]") of each pipe this process holds open, from
    Linux /proc (none where it does not list them)."""
    pipes = set()
    for fd in os.listdir("/proc/self/fd") if Path("/proc/self/fd").is_dir() else ():
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:             # the listing's own fd, closed again
            continue
        if link.startswith("pipe:"):
            pipes.add((int(fd), link))
    return pipes


@pytest.fixture()
def open_pipes():
    """The pipes this process holds open now, as a function (_open_pipes)."""
    return _open_pipes


@pytest.fixture(autouse=True)
def no_pipe_left():
    """Fail a test that leaves a pipe fd open: every pipe a run command
    makes to or from a child is closed before the command returns.  Does
    nothing where /proc is absent."""
    before = _open_pipes()
    yield
    left = _open_pipes() - before
    if left:
        pytest.fail(f"the test left pipe fd(s) {sorted(left)} open")
