"""Run a job's chunks on every CPU the process may use, in order.

run_chunks cuts range(total) into chunks and deals them round-robin to this
process and to one forked child per other CPU in its affinity mask.  This
process runs its own chunks and reads each child's as their turn comes, so
the caller gets every item in order, as if one process had run them all.
A child sends each finished chunk, pickled, over a pipe; a write blocks
while the pipe is full, so a child finishes at most one chunk ahead of what
this process has read.

The children are os.fork'ed, not fresh interpreters: a child starts with
the job and its inputs (and any wrapper installed on the job's names) in
place, with no pickling of the job and no import of the package.  A fork
is unsafe while another Python thread runs, as that thread could hold a
lock the child needs, so then every chunk runs in this process.  The
engine imports this module only for a Monte Carlo run of two or more
chunks, so importing the package compiles none of it.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from collections.abc import Callable, Iterable, Iterator
from typing import BinaryIO

__all__ = ["run_chunks"]


def _workers(chunks: int) -> int:
    """Processes to deal chunks to: this one, plus a child per other CPU in
    its affinity mask.  1 (all in process) for a single chunk or CPU, where
    os.fork or the mask is missing, or while another Python thread runs."""
    if chunks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _fork(job: Callable[[int, int], Iterable], chunks: list[tuple[int, int]], siblings: list) -> tuple[int, BinaryIO]:
    """Fork a child that runs job(start, stop) on each of chunks; return
    (pid, reader), where reader gives each chunk's items, pickled, in turn.

    On an error the child sends the exception in place of the chunk.  It
    leaves only by os._exit, never by returning into its caller's frames,
    whose handlers (like the CLI's) would act on the caller's files.
    """
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns of any other OS thread, also numpy's BLAS
        # pool, which parks itself at a fork; _workers rules out Python threads.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        for _, reader in siblings:
            reader.close()
        out = os.fdopen(write_fd, "wb")
        try:
            for start, stop in chunks:
                pickle.dump(list(job(start, stop)), out)
                out.flush()
            status = 0
        except BaseException as exc:
            pickle.dump(exc, out)
            out.flush()
    finally:
        os._exit(status)


def run_chunks(job: Callable[[int, int], Iterable], total: int, size: int) -> Iterator:
    """The items of job(start, stop) for each chunk [start, stop) of
    range(total) in turn, chunks being size long but the last.

    A child's exception is raised here, with its message.  Closing the
    generator, or an error, kills and reaps the children.
    """
    chunks = [(start, min(start + size, total)) for start in range(0, total, size)]
    workers = _workers(len(chunks))
    if workers == 1:
        yield from job(0, total)
        return
    children: list[tuple[int, BinaryIO]] = []
    try:
        for w in range(1, workers):
            children.append(_fork(job, chunks[w::workers], children))
        for c, (start, stop) in enumerate(chunks):
            if c % workers == 0:
                yield from job(start, stop)
                continue
            pid, reader = children[c % workers - 1]
            try:
                items = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {pid} exited before sending items {start}..{stop - 1}") from None
            if isinstance(items, BaseException):
                raise items
            yield from items
    finally:
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
