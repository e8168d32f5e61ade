"""forked.Workers: share w runs in process w, children persist between maps,
a failed map reads every reply and raises the lowest failing share's error,
and no child outlives its Workers."""

import contextlib
import os
import signal

import pytest

from mova.errors import MovaError
from mova.forked import Workers, fork_map


def square(share):
    """A share is (value, fail): value squared, or an error naming the value."""
    value, fail = share
    if fail:
        raise ValueError(f"share of {value} failed")
    return value * value


def test_share_w_runs_in_child_w():
    with Workers(lambda _share: os.getpid(), 3) as workers:
        pids = workers.map([None] * 3)
        assert pids == [os.getpid()] + [process.pid for process, _conn in workers.children]
        assert workers.map([None] * 2) == pids[:2]  # fewer shares than processes
        with pytest.raises(ValueError):
            workers.map([None] * 4)


def test_each_child_runs_in_child_once_before_it_serves():
    started = []
    with Workers(lambda _share: (os.getpid(), len(started)), 3, in_child=lambda: started.append(1)) as workers:
        first = workers.map([None] * 3)
        assert first == [(os.getpid(), 0)] + [(process.pid, 1) for process, _conn in workers.children]
        assert workers.map([None] * 3) == first
    assert started == []


def test_lowest_failing_share_wins_and_the_next_map_is_clean():
    with Workers(square, 3) as workers:
        with pytest.raises(ValueError, match="^share of 0 failed$"):  # the caller's and child 2's fail
            workers.map([(0, True), (1, False), (2, True)])
        with pytest.raises(ValueError, match="^share of 4 failed$"):
            workers.map([(3, False), (4, True), (5, True)])
        # Every reply of the failed maps was read, so none is taken for this map's.
        assert workers.map([(6, False), (7, False), (8, False)]) == [36, 49, 64]


def test_a_killed_child_is_one_error():
    with pytest.raises(MovaError) as caught:
        with Workers(square, 3) as workers:
            process, _conn = workers.children[0]
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            assert not process.is_alive()
            workers.map([(w, False) for w in range(3)])
    assert type(caught.value) is MovaError and str(caught.value) == "a forked worker process exited"
    assert caught.value.__context__ is None and caught.value.__cause__ is None
    assert workers.children == []


@pytest.mark.parametrize("leave", ["returning", "raising"])
def test_leaving_ends_every_child(leave):
    with contextlib.suppress(KeyboardInterrupt):
        with Workers(square, 3) as workers:
            processes = [process for process, _conn in workers.children]
            assert workers.map([(w, False) for w in range(3)]) == [0, 1, 4]
            if leave == "raising":
                raise KeyboardInterrupt  # as Ctrl-C would
    assert len(processes) == 2 and not any(process.is_alive() for process in processes)


def test_a_failed_fork_ends_the_children_already_started(monkeypatch):
    started = []
    original = Workers._fork

    def fork(self):
        if started:
            raise OSError("cannot fork")
        started.append(original(self))
        return started[-1]

    monkeypatch.setattr(Workers, "_fork", fork)
    with pytest.raises(OSError, match="^cannot fork$"):
        Workers(square, 3)
    assert len(started) == 1 and not started[0][0].is_alive()


def test_one_range_runs_in_the_caller_and_forks_nothing(monkeypatch):
    def fork(_workers):
        raise AssertionError("forked a child for one range")

    monkeypatch.setattr(Workers, "_fork", fork)
    assert fork_map(lambda lo, hi: (os.getpid(), lo, hi), [(0, 7)]) == [(os.getpid(), 0, 7)]
