"""The worker pool of `classify --jobs N`: forked copies of the calling
process, so each worker inherits whatever the caller built before the fork,
such as a bundle's compiled scanners.

The workers share one task pipe of item indices. Each index is one write of
INDEX_BYTES bytes, far fewer than PIPE_BUF, so one read of that many takes
one whole index, and a worker takes the next item only when it is free.
When the pipe runs empty, a worker sends its (index, value) rows back as one
pickle on a pipe of its own and exits.
"""

import contextlib
import gc
import os
import pickle
import signal
import sys
from collections.abc import Callable, Sequence
from typing import BinaryIO, TypeVar

INDEX_BYTES = 4

T = TypeVar("T")
R = TypeVar("R")


def _work(
    fn: Callable[[T], R], items: Sequence[T], tasks: BinaryIO, tasks_writer: BinaryIO, results: int
) -> None:
    """A worker's whole life: fn(items[i]) for each index i read from
    `tasks` until it is empty, then the (i, value) rows as one pickle to
    the pipe end `results`. Never returns into its caller: whatever
    happens, it flushes stdio and ends the process, with status 0 only
    once the rows are sent."""
    status = 1
    try:
        tasks_writer.close()  # or the task pipe would never run empty
        rows = []
        while index := tasks.read(INDEX_BYTES):
            i = int.from_bytes(index, "little")
            rows.append((i, fn(items[i])))
        with open(results, "wb") as fh:
            pickle.dump(rows, fh, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _failure(pid: int, status: int) -> str | None:
    """How a worker that ended with wait status `status` failed, or None when it exited 0."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"worker {pid} was killed by signal {-code}"
    return f"worker {pid} exited with status {code}" if code else None


def fork_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """[fn(item) for item in items], computed by `workers` forked workers
    that take the items one at a time. fn's values must pickle.

    A worker that dies or exits non-zero, as one does when fn raises,
    fails the call with ChildProcessError, which names its pid and its
    signal or exit status. Where os.fork does not exist this is a
    ValueError. No worker outlives the call, whatever it raises."""
    if not hasattr(os, "fork"):
        raise ValueError("--jobs above 1 needs os.fork, which this platform does not have")
    sys.stdout.flush()  # or each worker would write this process's buffered output again
    sys.stderr.flush()
    tasks_out, tasks_in = os.pipe()
    tasks, tasks_writer = open(tasks_out, "rb", buffering=0), open(tasks_in, "wb", buffering=0)
    pipes: dict[int, BinaryIO] = {}  # worker pid -> the read end of its result pipe, until it is reaped
    try:
        # frozen, what the workers inherit is never traversed by their
        # collections, so its pages stay shared instead of being copied
        gc.freeze()
        try:
            for _ in range(workers):
                results_out, results_in = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, tasks, tasks_writer, results_in)
                os.close(results_in)
                pipes[pid] = open(results_out, "rb")
        finally:
            gc.unfreeze()
        tasks.close()
        # written only now that every worker reads, so a long list cannot fill the pipe first
        with contextlib.suppress(BrokenPipeError):  # no worker is left; their statuses say why
            for i in range(len(items)):
                tasks_writer.write(i.to_bytes(INDEX_BYTES, "little"))
        tasks_writer.close()
        values: list = [None] * len(items)
        failures = []
        for pid, pipe in list(pipes.items()):
            with pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del pipes[pid]
            if problem := _failure(pid, status):
                failures.append(problem)
                continue
            for i, value in pickle.loads(sent):
                values[i] = value
        if failures:
            raise ChildProcessError("; ".join(failures))
        return values
    except BaseException:
        for pid in pipes:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid, pipe in pipes.items():
            pipe.close()
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise
    finally:
        tasks.close()
        tasks_writer.close()
