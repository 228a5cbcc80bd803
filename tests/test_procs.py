import itertools
import os
import threading

import pytest

from juna import _procs, params
from juna._procs import Replayed

from conftest import _assert_left_clean, _process_state


def _identity(x):
    return x


def test_a_child_sends_each_of_its_chunks_in_turn():
    # chunks of 3 over 2 processes: the child sends items 3-5 and 9-11, and
    # this process reads each chunk at its first item
    before = _process_state()
    with Replayed(lambda: iter(range(12)), lambda x: x + 1, 2, 3, 2) as items:
        assert [record for _, record in items] == [None] * 3 + [4, 5, 6] + [None] * 3 + [10, 11, 12]
    _assert_left_clean(before)


@pytest.mark.parametrize("width", [1, 3, 30])
def test_records_hold_every_value_of_their_width(width):
    top = 2 ** (8 * width) - 1
    stream = [5, 6, top, 0, 0, top, 7, 8, 1, 0]
    before = _process_state()
    with Replayed(lambda: iter(stream), _identity, 3, 2, width) as items:
        assert list(items) == [(5, None), (6, None), (top, top), (0, 0), (0, 0), (top, top),
                               (7, None), (8, None), (1, 1), (0, 0)]
    _assert_left_clean(before)


def test_a_short_child_reads_none_is_reaped_and_reads_none_again():
    # chunks of 4 over 2 processes: the child sends its first chunk, 4-7,
    # fails inside its second, 12-15, and its third, 20-23, reads None too
    def compute(x):
        if x == 13:
            raise RuntimeError("the child exits with status 1")
        return x

    before = _process_state()
    with Replayed(lambda: iter(range(24)), compute, 2, 4, 4) as items:
        records = []
        for x, record in items:
            records.append(record)
            if x == 12:
                assert items.children == [None]  # reaped at the short read
        assert records == [None] * 4 + [4, 5, 6, 7] + [None] * 16
    _assert_left_clean(before)


def test_a_short_read_keeps_what_a_child_sent_before_exiting_with_status_0():
    # chunks of 2 over 3 processes, and a stream that ends one item earlier
    # in the children: the second child sends 10 alone of its last chunk,
    # 10-11, and exits with status 0; the first sends its chunk 2-3 and
    # fails inside its next, 8-9
    parent = os.getpid()

    def stream():
        return iter(range(12 if os.getpid() == parent else 11))

    def compute(x):
        if x == 8:
            raise RuntimeError("the child exits with status 1")
        return x * 10

    before = _process_state()
    with Replayed(stream, compute, 3, 2, 4) as items:
        assert list(items) == [(0, None), (1, None), (2, 20), (3, 30), (4, 40), (5, 50),
                               (6, None), (7, None), (8, None), (9, None), (10, 100),
                               (11, None)]
        assert items.children == [None, None]  # both reaped at their short reads
    _assert_left_clean(before)


def test_a_value_too_wide_for_its_record_reads_none():
    before = _process_state()
    with Replayed(lambda: iter([0, 0, 1, 256]), _identity, 2, 2, 1) as items:
        assert list(items) == [(0, None), (0, None), (1, None), (256, None)]
        assert items.children == [None]
    _assert_left_clean(before)


def test_leaving_early_kills_and_reaps_every_child():
    before = _process_state()
    with pytest.raises(RuntimeError):
        with Replayed(itertools.count, _identity, 3, 1000, 8) as items:
            for x, record in items:
                if x == 1005:
                    assert record == 1005
                    raise RuntimeError("the parent fails while its children write")
    _assert_left_clean(before)


def test_one_worker_forks_nothing_and_pins_nothing(monkeypatch):
    before = _process_state()
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    with Replayed(lambda: iter(range(5)), _identity, 1, 2, 4) as items:
        assert list(items) == [(x, None) for x in range(5)]
        assert items.children == []
        assert _process_state() == before
    _assert_left_clean(before)


def test_replayed_chunks_belong_to_process_j_mod_workers():
    # chunks of 2 over 3 processes: this one has items 0, 1, 6, 7; the
    # children send x * x for theirs, and the last chunk, 10 alone, is the
    # short one the second child sends before it exits
    before = _process_state()
    with Replayed(lambda: iter(range(11)), lambda x: x * x, 3, 2, 1) as items:
        assert list(items) == [(0, None), (1, None), (2, 4), (3, 9), (4, 16), (5, 25),
                               (6, None), (7, None), (8, 64), (9, 81), (10, 100)]
    _assert_left_clean(before)


def test_replayed_items_of_a_child_that_ended_come_with_none():
    parent = os.getpid()

    def compute(x):
        if x == 6 and os.getpid() != parent:
            os._exit(0)
        return x + 100

    before = _process_state()
    with Replayed(lambda: iter(range(10)), compute, 2, 2, 1) as items:
        assert list(items) == [(0, None), (1, None), (2, 102), (3, 103), (4, None),
                               (5, None), (6, None), (7, None), (8, None), (9, None)]
        assert items.children == [None]
    _assert_left_clean(before)


def test_part_count_reads_cpus_values_threads_and_fork(monkeypatch):
    monkeypatch.setattr(_procs.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert [_procs.part_count(n, params.MIN_PART) for n in (96, 1023, 1024, 4096)] == [1, 1, 2, 4]
    monkeypatch.delattr(_procs.os, "sched_getaffinity")
    monkeypatch.setattr(_procs.os, "cpu_count", lambda: 3)
    assert _procs.part_count(4096, params.MIN_PART) == 3
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _procs.part_count(4096, params.MIN_PART) == 1  # fork copies no other thread
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(_procs.os, "fork")
    assert _procs.part_count(4096, params.MIN_PART) == 1
