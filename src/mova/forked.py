"""Work forked from this process: the usable CPU count, the one way a child is
started, and a map over ranges that runs each range but the first in a child.

A child is forked (multiprocessing's "fork" context), not spawned: it needs
the caller's state as it is, often including closures, which cannot be
pickled. It starts with SIGINT blocked, then ignores it: Ctrl-C is the
caller's to handle, which ends its children.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable, Sequence

from mova.errors import MovaError


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fork(target: Callable, *args):
    """Start a child running target(conn, *args), where conn is its end of a new
    pipe; returns (process, this process's end). The child is a daemon."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    here, there = context.Pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        process = context.Process(target=_child, args=(target, there, here, args), daemon=True)
        process.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    there.close()
    return process, here


def _child(target: Callable, conn, parent_end, args) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    parent_end.close()
    target(conn, *args)


def sendable(exc: Exception, fallback: type[MovaError]) -> Exception:
    """`exc`, or `fallback` with its text when `exc` does not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return fallback(str(exc))
    return exc


def fork_map(fn: Callable, ranges: Sequence[tuple[int, int]]) -> list:
    """[fn(lo, hi) for (lo, hi) in ranges]: the first range in this process, each
    other range in a forked child that sends back its result or its exception.

    Raises the error of the lowest range that failed; an exception that cannot be
    pickled comes back as a MovaError with its text. An exception or Ctrl-C here
    terminates the children, and every child is joined before this returns.
    """
    children = []
    try:
        for lo, hi in ranges[1:]:
            children.append(fork(_reply, fn, lo, hi))
        results = [fn(*ranges[0])]
        for _process, conn in children:
            try:
                outcome, value = conn.recv()
            except EOFError:
                raise MovaError("a forked worker process exited") from None
            if outcome == "error":
                raise value
            results.append(value)
        return results
    except BaseException:
        for process, _conn in children:
            process.terminate()
        raise
    finally:
        for process, conn in children:
            conn.close()
            process.join()


def _reply(conn, fn: Callable, lo: int, hi: int) -> None:
    try:
        reply = ("ok", fn(lo, hi))
    except Exception as exc:
        reply = ("error", sendable(exc, MovaError))
    try:
        conn.send(reply)
    except OSError:  # the caller is gone
        pass
