import multiprocessing
import os

import numpy as np
import pytest


def with_cpus(monkeypatch, cpus):
    """Make os.sched_getaffinity report `cpus` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """A test fails if a child process it started is still running when it ends."""
    yield
    left = multiprocessing.active_children()
    for process in left:  # so that the next test starts clean
        process.terminate()
        process.join()
    assert not left, f"processes left running: {left}"
