"""Test helpers that see across `os.fork`: what a merge's helper processes did.

A helper process changes no list or event of the test, so the tests record
to a file that every process appends to, synchronise through a pipe, and
learn which helpers started from a patched `os.fork`.
"""

from __future__ import annotations

import ast
import contextlib
import fcntl
import os
import select
import tempfile
from unittest import mock


@contextlib.contextmanager
def forks():
    """Yields the pids of the processes this process forks inside the block, in order."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", fork):
        yield pids


def no_child_left() -> bool:
    """Whether this process has no child, exited or running, left to reap."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class Records:
    """Tuples that any process appends, each led by its pid, to one O_APPEND file."""

    def __init__(self):
        self._file = tempfile.TemporaryFile()
        fd = self._file.fileno()
        fcntl.fcntl(fd, fcntl.F_SETFL, fcntl.fcntl(fd, fcntl.F_GETFL) | os.O_APPEND)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def add(self, *fields) -> None:
        os.write(self._file.fileno(), f"{(os.getpid(), *fields)!r}\n".encode())

    def read(self) -> list[tuple]:
        """Every tuple added so far, in the order of the appends."""
        fd = self._file.fileno()
        text = os.pread(fd, os.fstat(fd).st_size, 0).decode()
        return [ast.literal_eval(line) for line in text.splitlines()]


class Event:
    """A `threading.Event` for forked processes: `set` writes to a pipe that no one reads."""

    def __init__(self):
        self._read, self._write = os.pipe()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self._read)
        os.close(self._write)

    def set(self) -> None:
        os.write(self._write, b"!")

    def wait(self, timeout: float) -> bool:
        return bool(select.select([self._read], [], [], timeout)[0])

    def is_set(self) -> bool:
        return self.wait(0)
