"""Forked children that send ints back through pipes, each int as one
fixed-width big-endian record: the one module of the package that forks or
knows the pipe record format."""

from __future__ import annotations

import functools
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


class Forked:
    """Forked children that each write the ints of one producer (it yields
    lists of them) to a pipe while this process reads them, a count at a time.

    Used as a context manager around the work of this process.  Entering
    starts one child per producer, and the kernel places each; no CPU set is
    read or changed.  Leaving kills and reaps every child, on every exit path.
    A child leaves by os._exit, so it never returns into the caller, runs no
    atexit handler and flushes none of the parent's buffers.
    """

    def __init__(self, producers, width: int):
        self.producers = producers
        self.width = width
        self.children: list[tuple[int, io.BufferedReader] | None] = []

    def __enter__(self):
        try:
            for produce in self.producers:
                self.children.append(self._start(produce))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for j in range(len(self.children)):
            self._reap(j)

    def _start(self, produce) -> tuple[int, io.BufferedReader] | None:
        """(pid, read end) of a child writing the records of produce() to a
        pipe, or None if it cannot be started."""
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
                for values in produce():
                    data = b"".join(v.to_bytes(self.width, "big") for v in values)
                    done = 0
                    while done < len(data):
                        done += os.write(w, data[done:])
                os._exit(0)
            finally:
                os._exit(1)
        os.close(w)
        return pid, open(r, "rb")

    def read(self, j: int, count: int, short: bool = False) -> list[int] | None:
        """The next `count` ints from child j (from 0), or None if it ended
        before writing them; with `short`, the ints it wrote if it exited
        with status 0 after whole records.  A child that ended is reaped and
        reads as None from then on."""
        child = self.children[j]
        if child is None:
            return None
        width = self.width
        data = child[1].read(count * width)  # a buffered read waits for them all
        if len(data) < count * width:
            status = self._reap(j)
            if not short or status != 0 or len(data) % width:
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


class Replayed(Forked):
    """The items of a stream in order, each with the int a forked child
    computed for it, or None where this process computes it.

    stream() gives the same items in every process that calls it, from a
    seeded rng of its own or one that the fork copied.  The items are cut
    into chunks of `chunk`, and chunk j belongs to process j % workers: this
    one for 0, child w - 1 for w.  Each child calls stream(), draws every
    item and sends compute(x) for the items of its own chunks.  This process
    calls stream() once, draws each item only when iterated, and reads a
    child's chunk at its first item: whole, or short where the stream ends
    inside it and the child exits with status 0.  Items of this process's
    chunks, and those a child that ended did not send, come with None.
    With workers = 1 nothing is forked.
    """

    def __init__(self, stream, compute, workers: int, chunk: int, width: int):
        self.stream = stream
        self.workers = workers
        self.chunk = chunk
        producers = [
            functools.partial(_replay, stream, compute, w, workers, chunk) for w in range(1, workers)
        ]
        super().__init__(producers, width)

    def __iter__(self):
        chunk, workers = self.chunk, self.workers
        for i, x in enumerate(self.stream()):
            k = i % chunk
            if k == 0:
                w = i // chunk % workers
                records = (self.read(w - 1, chunk, short=True) or []) if w else []
            yield x, records[k] if k < len(records) else None


def _replay(stream, compute, worker: int, workers: int, chunk: int):
    """compute(x) for the items x of the chunks of stream() that belong to
    process `worker`, in lists of one chunk."""
    items = iter(stream())
    for j in itertools.count():
        block = list(itertools.islice(items, chunk))
        if not block:
            return
        if j % workers == worker:
            yield [compute(x) for x in block]
