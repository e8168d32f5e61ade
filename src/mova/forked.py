"""Work forked from this process: the usable CPU count, and `Workers`, the one
way this package runs work in other processes.

A child is forked (multiprocessing's "fork" context), not spawned: it needs
the caller's state as it is, often including closures, which cannot be
pickled. It starts with SIGINT blocked, then ignores it: Ctrl-C is the
caller's to handle, which ends its children.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import Callable, Sequence

from mova.errors import MovaError


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def sendable(exc: Exception) -> Exception:
    """`exc`, or a MovaError with its text when `exc` does not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return MovaError(str(exc))
    return exc


class Workers:
    """`count` processes that run `fn` on shares of work: this one and count - 1
    forked children, which persist from one `map` to the next until `close`.
    Each child calls `in_child`, when given, once before it serves.
    Use it as a context manager: leaving by an exception or Ctrl-C terminates
    the children, and every child is joined."""

    def __init__(self, fn: Callable, count: int, in_child: Callable[[], None] | None = None):
        self.fn, self.count, self.in_child = fn, count, in_child
        self.children: list = []  # (process, this process's end of its pipe)
        try:
            for _ in range(count - 1):
                self.children.append(self._fork())
        except BaseException:
            self.close(terminate=True)
            raise

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(terminate=exc_type is not None)

    def close(self, terminate: bool = False) -> None:
        """End the children: each exits at EOF on its pipe, or at once with `terminate`."""
        children, self.children = self.children, []
        for process, conn in children:
            if terminate:
                process.terminate()
            conn.close()
        for process, _conn in children:
            process.join()

    def map(self, shares: Sequence) -> list:
        """[fn(share) for share in shares], for at most `count` shares: share 0 in this
        process, share w in child w. Every reply is read, so the children are ready
        for the next map, before the error of the lowest failing share is raised. A
        child that has exited fails its share with MovaError("a forked worker process
        exited"); an error that pickle cannot carry comes back as a MovaError with its text.
        """
        conns = [conn for _process, conn in self.children[: len(shares) - 1]]
        for conn, share in zip(conns, shares[1:], strict=True):
            with contextlib.suppress(OSError):  # the child has exited: its receive below fails
                conn.send(share)
        replies = [self._reply(shares[0])]
        for conn in conns:
            try:
                replies.append(conn.recv())
            except (EOFError, OSError):
                replies.append((False, MovaError("a forked worker process exited")))
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _ok, value in replies]

    def _reply(self, share) -> tuple[bool, object]:
        try:
            return True, self.fn(share)
        except Exception as exc:
            return False, exc

    def _fork(self):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        here, there = context.Pipe()
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            process = context.Process(target=self._serve, args=(there, here), daemon=True)
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        there.close()
        return process, here

    def _serve(self, conn, parent_end) -> None:
        """A child: reply to each share until EOF on its pipe."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        parent_end.close()
        for _process, older in self.children:  # the caller's ends of the older children's pipes
            older.close()
        if self.in_child is not None:
            self.in_child()
        while True:
            try:
                ok, value = self._reply(conn.recv())
            except EOFError:
                return
            try:
                conn.send((ok, value if ok else sendable(value)))
            except OSError:  # the caller is gone
                return


def fork_map(fn: Callable, ranges: Sequence[tuple[int, int]]) -> list:
    """[fn(lo, hi) for (lo, hi) in ranges]: the first range in this process, each
    other range in a forked child, as one `Workers.map`."""
    with Workers(lambda bounds: fn(*bounds), len(ranges)) as workers:
        return workers.map(ranges)
