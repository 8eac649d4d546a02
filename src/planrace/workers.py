"""Forked worker processes that produce items while this process goes on.

A worker is a forked child that runs a generator and writes its items
through a pipe in marshalled batches; the parent reads them as they come.
The sweep draws its cells in one (harness.sweep) and the catalog build
sorts a field's values in one (Scenario.build_catalog).
"""

from __future__ import annotations

import marshal
import os
import signal
import threading

from .errors import PlanraceError

# Items per batch a worker writes to its pipe; the first batches reach the
# reading process after a few items.
BATCH = 32


def can_overlap() -> bool:
    """Whether a forked worker can run alongside this process: os.fork
    exists, this process runs no other thread (whose locks a forked child
    could never take) and it may run on more than one CPU. On one CPU a
    worker cannot overlap this process and only adds its own cost."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def forked(produce, args: tuple, name: str, last: str):
    """produce(*args)'s items, produced by a forked worker process.

    The worker starts before this returns. The reader stops at the item it
    knows to be the last: a worker that fails, or whose stream ends before
    the reader stops, makes the iteration raise a PlanraceError that calls
    it `name` and the missing item `last`. Closing the result kills and
    reaps the worker, however the reader stopped. When no pipe or process
    can be had, the result is produce(*args) itself, run in this process.
    """
    try:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except OSError:
        return produce(*args)
    if pid == 0:
        os.close(read_fd)
        _work(write_fd, produce, args)
    os.close(write_fd)
    return _Worker(pid, open(read_fd, "rb"), name, last)


def _work(write_fd: int, produce, args: tuple) -> None:
    """The forked worker: write produce(*args)'s items to the pipe in
    marshalled batches, or the error that stopped it as a str; never
    returns."""
    code = 1
    try:
        with open(write_fd, "wb") as out:
            try:
                batch = []
                for item in produce(*args):
                    batch.append(item)
                    if len(batch) == BATCH:
                        marshal.dump(batch, out)
                        out.flush()
                        batch = []
                marshal.dump(batch, out)
                code = 0
            except Exception as exc:
                marshal.dump(f"{type(exc).__name__}: {exc}", out)
    finally:
        # skip the forking process's cleanup: its exit handlers, its
        # buffered output and the frames above this one are not the worker's
        os._exit(code)


class _Worker:
    """A running worker's items, read from its pipe (see forked)."""

    def __init__(self, pid: int, stream, name: str, last: str):
        self._pid = pid
        self._stream = stream
        self._name = name
        self._last = last

    def __iter__(self):
        while True:
            try:
                batch = marshal.load(self._stream)
            except (EOFError, ValueError):  # the end, or a batch cut short
                break
            if isinstance(batch, str):
                raise PlanraceError(f"{self._name} failed: {batch}")
            yield from batch
        code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        self._pid = None
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise PlanraceError(f"{self._name} stopped before {self._last} ({how})")

    def close(self) -> None:
        self._stream.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
