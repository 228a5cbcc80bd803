"""Forked children that replay a stream and send ints back through pipes,
each int as one fixed-width big-endian record: the one module of the package
that forks or knows the pipe record format."""

from __future__ import annotations

import io
import itertools
import os
import threading


def part_count(work: int, least: int) -> int:
    """Processes to split `work` units over: one per usable CPU, each with
    at least `least` units, and 1 where fork is missing or unsafe (other
    threads)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, work // least))


class Replayed:
    """The items of a stream in order, each with the int a forked child
    computed for it, or None where this process computes it.

    stream() gives the same items in every process that calls it, from a
    seeded rng of its own or one that the fork copied.  The items are cut
    into chunks of `chunk`, and chunk j belongs to process j % workers: this
    one for 0, child w - 1 for w.  Each child calls stream(), draws every
    item and writes compute(x) for the items of its own chunks, a chunk at a
    time.  This process calls stream() once, draws each item only when
    iterated, and reads a child's chunk at its first item: whole, or short
    where the child exits with status 0 after whole records, as where the
    stream ends inside the chunk.  Items of this process's chunks, and those
    a child that ended did not send, come with None.

    Used as a context manager around the iteration.  Entering starts the
    workers - 1 children, and the kernel places each; no CPU set is read or
    changed.  With workers = 1 nothing is forked.  Leaving kills and reaps
    every child, on every exit path.  A child leaves by os._exit, so it
    never returns into the caller, runs no atexit handler and flushes none
    of the parent's buffers.
    """

    def __init__(self, stream, compute, workers: int, chunk: int, width: int):
        self.stream = stream
        self.compute = compute
        self.workers = workers
        self.chunk = chunk
        self.width = width
        self.children: list[tuple[int, io.BufferedReader] | None] = []

    def __enter__(self):
        try:
            for w in range(1, self.workers):
                self.children.append(self._start(w))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for j in range(len(self.children)):
            self._reap(j)

    def __iter__(self):
        chunk, workers = self.chunk, self.workers
        for i, x in enumerate(self.stream()):
            k = i % chunk
            if k == 0:
                w = i // chunk % workers
                records = (self._read(w - 1) or []) if w else []
            yield x, records[k] if k < len(records) else None

    def _start(self, worker: int) -> tuple[int, io.BufferedReader] | None:
        """(pid, read end) of a child writing the records of process
        `worker`'s chunks to a pipe, or None if it cannot be started."""
        try:
            r, w = os.pipe()
        except OSError:
            return None
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
        if pid == 0:
            try:
                os.close(r)
                items = iter(self.stream())
                for j in itertools.count():
                    block = list(itertools.islice(items, self.chunk))
                    if not block:
                        break
                    if j % self.workers == worker:
                        data = b"".join(self.compute(x).to_bytes(self.width, "big") for x in block)
                        done = 0
                        while done < len(data):
                            done += os.write(w, data[done:])
                os._exit(0)
            finally:
                os._exit(1)
        os.close(w)
        return pid, open(r, "rb")

    def _read(self, j: int) -> list[int] | None:
        """The ints of child j's next chunk, or None if it ended before
        writing them; short if it exited with status 0 after whole records.
        A child that ended is reaped and reads as None from then on."""
        child = self.children[j]
        if child is None:
            return None
        width, size = self.width, self.chunk * self.width
        data = child[1].read(size)  # a buffered read waits for them all
        if len(data) < size:
            status = self._reap(j)
            if status != 0 or len(data) % width:
                return None
        return [int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width)]

    def _reap(self, j: int) -> int | None:
        """Close child j's pipe, kill it and wait for it, if it is still
        here; its wait status, or None if it was gone."""
        import signal

        child, self.children[j] = self.children[j], None
        if child is None:
            return None
        pid, r = child
        r.close()
        os.kill(pid, signal.SIGKILL)
        return os.waitpid(pid, 0)[1]
