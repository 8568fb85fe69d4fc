"""Two processes for one job: a forked child does half of the work.

Parsing and formatting long runs of floats is bound by CPython's float
parser and formatter, one value at a time, and ``predict`` decides one
point at a time. ``model.load_model`` and ``model.save_model`` split a
large model file in two, and ``model.score_file`` splits a large libsvm
file or one of many points, parsing and deciding each half in one
process: this process does one half and a child, forked for that job
alone, does the other with the same code and sends its result back
through a pipe. :func:`worth_splitting` decides all three splits. The
child is always reaped, and a failure on either side makes the caller
redo the whole job on the sequential path, so outputs and errors are the
same either way. ``data.load_libsvm`` never splits: on the largest file
the benchmark trains on (904 KB) its split saved nothing that
``train``'s end-to-end time showed.

This module is the package's only caller of ``os.fork``. The program has
no threads of its own, and the child runs only already-imported code. A
scoring child also calls BLAS, for the products of each decision, after
a fork from a process whose BLAS may keep worker threads. A test
(``tests/test_scoring.py``) trains, predicts and evaluates a landmark and
a cosine model in fresh interpreters at one and at two OpenBLAS threads,
under different ``PYTHONHASHSEED`` values, with every split forced on and
off, and finds the model, prediction, metrics and ``eval`` bytes
identical, and ``eval``'s block scores equal to ``predict``'s.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
from typing import IO, Callable, Iterator

import numpy as np

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # not Linux
    F_SETPIPE_SZ = None

# Splitting pays once the half moved to the child takes longer than the
# split's fixed cost. On a 2-core x86 host (numpy loaded, one BLAS thread)
# that cost was about 7 ms: fork 1.4 ms, the child's start 1.3 ms, its exit
# 1.3 ms, plus moving its result and waiting for the slower half. The
# parsers read about 17 MB/s of libsvm text and 21 MB/s of model floats,
# so in alternating timed runs the split first won at 256 KiB for parsing
# libsvm files alone (sparse and dense rows) and for saves, and between 320
# and 480 KiB for model loads; at 128 KiB it lost everywhere. Smaller model
# files stay sequential.
MIN_BYTES = 384 * 1024
# A smaller libsvm file scored one point at a time (5-10 µs a decision) is
# split from this many kernel values or cosines, points times s or d: split
# against unsplit, it broke even between 64 000 and 100 000 on dense and
# sparse rows and won from 128 000 on. Dense blocks (0.3-0.7 µs a point) are
# BLAS-bound: below MIN_BYTES their split won at most 13 of 20 pairs up to
# 5 120 000 values (19 of 20 only at 10 240 000), so a file scored in
# blocks splits by its size alone.
MIN_EVALS = 100_000
# Largest buffer the parent copies a child's result through.
BOUNCE_BYTES = 1 << 16
# Pipe capacity asked for: a child's whole result fits, so the child exits
# (and its address space is torn down) while the parent is still busy.
PIPE_BYTES = 1 << 20


class ChildFailed(Exception):
    """The child exited without sending its whole half."""


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def available() -> bool:
    """Whether a forked child can run beside this process."""
    return hasattr(os, "fork") and usable_cpus() >= 2


def worth_splitting(nbytes: int, evals: int = 0) -> bool:
    """Whether a file of ``nbytes``, or ``evals`` kernel values or cosines of
    points scored one at a time, is split between this process and a child."""
    return (nbytes >= MIN_BYTES or evals >= MIN_EVALS) and available()


@contextlib.contextmanager
def child(work: Callable[[IO[bytes]], None]) -> Iterator[IO[bytes]]:
    """Fork a child that runs ``work(pipe)``; yield the pipe's read end.

    The child ends with ``os._exit``, so it runs no exit handlers and
    flushes no inherited buffers: exit 0 once ``work`` returns, 1 if it
    raises anything. Leaving the block reaps the child. On an exception
    (``KeyboardInterrupt`` too) the child is killed first and the exception
    goes on; otherwise the parent waits for it and raises
    :class:`ChildFailed` unless it exited 0.
    """
    read_fd, write_fd = os.pipe()
    if F_SETPIPE_SZ is not None:
        with contextlib.suppress(OSError):
            fcntl(write_fd, F_SETPIPE_SZ, PIPE_BYTES)
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            # a collection could finalize an inherited file object and flush it
            gc.disable()
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                work(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    finished = False
    try:
        with open(read_fd, "rb") as pipe:
            yield pipe
        finished = True
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise ChildFailed(f"the child process ended with status {status}")


def read_exact(pipe: IO[bytes], out: np.ndarray) -> None:
    """Fill the contiguous array ``out`` with the next bytes from ``pipe``."""
    view = memoryview(out).cast("B")
    got = 0
    while got < view.nbytes:
        count = pipe.readinto(view[got:])
        if not count:
            raise ChildFailed("the child's result ended early")
        got += count
