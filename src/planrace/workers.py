"""A forked worker: one call run in a child process, whose bytes result, or
the error that stopped it, comes back marshalled through a pipe. A collection
sorts its second field in one while it sorts the first (Collection.sort_fields).
"""

from __future__ import annotations

import marshal
import os
import signal
import threading

from .errors import PlanraceError


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


def forked(produce, args: tuple, name: str):
    """A forked worker, already started, that computes produce(*args), a
    bytes object; None when no pipe or process can be had. Its result() is
    that object, or a PlanraceError that calls the worker `name`; closing it
    kills and reaps the worker."""
    try:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except OSError:
        return None
    if pid == 0:  # the worker: write its result, or the error that stopped it as a str
        os.close(read_fd)
        code = 1
        try:
            with open(write_fd, "wb") as out:
                try:
                    marshal.dump(produce(*args), out)
                    code = 0
                except Exception as exc:
                    marshal.dump(f"{type(exc).__name__}: {exc}", out)
        finally:
            # skip the forking process's cleanup: its exit handlers, its
            # buffered output and the frames above this one are not the worker's
            os._exit(code)
    os.close(write_fd)
    return _Worker(pid, open(read_fd, "rb"), name)


class _Worker:
    """A running worker's result, read from its pipe (see forked)."""

    def __init__(self, pid: int, stream, name: str):
        self._pid = pid
        self._stream = stream
        self._name = name

    def result(self) -> bytes:
        try:
            result = marshal.load(self._stream)
        except (EOFError, ValueError):  # no result, or one cut short
            code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            self._pid = None
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise PlanraceError(f"{self._name} stopped before its result ({how})") from None
        if isinstance(result, str):
            raise PlanraceError(f"{self._name} failed: {result}")
        return result

    def close(self) -> None:
        self._stream.close()
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
