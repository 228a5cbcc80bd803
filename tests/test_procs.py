import os
import threading

import pytest

from juna import _procs, params
from juna._procs import Forked, Replayed

from conftest import _assert_left_clean, _process_state


def _yields(*lists):
    """A producer that yields each of lists in turn."""

    def produce():
        yield from lists

    return produce


def test_a_read_spans_the_lists_a_child_yields():
    before = _process_state()
    with Forked([_yields([1, 2, 3], [4, 5], [6])], 2) as children:
        assert children.read(0, 4) == [1, 2, 3, 4]
        assert children.read(0, 2) == [5, 6]
        assert children.read(0, 0) == []
    _assert_left_clean(before)


@pytest.mark.parametrize("width", [1, 3, 30])
def test_records_hold_every_value_of_their_width(width):
    top = 2 ** (8 * width) - 1
    before = _process_state()
    with Forked([_yields([top, 0, 1]), _yields([0], [top])], width) as children:
        assert children.read(1, 2) == [0, top]
        assert children.read(0, 3) == [top, 0, 1]
    _assert_left_clean(before)


def test_a_short_child_reads_none_is_reaped_and_reads_none_again():
    before = _process_state()
    with Forked([_yields([7, 8]), _yields([9] * 3)], 4) as children:
        assert children.read(0, 3) is None
        assert children.children[0] is None  # reaped at the short read
        assert children.read(0, 1) is None
        assert children.read(1, 3) == [9, 9, 9]
    _assert_left_clean(before)


def test_a_value_too_wide_for_its_record_reads_none():
    before = _process_state()
    with Forked([_yields([1, 256])], 1) as children:
        assert children.read(0, 2) is None
    _assert_left_clean(before)


def test_leaving_early_kills_and_reaps_every_child():
    def endless():
        while True:
            yield [1] * 1000

    before = _process_state()
    with pytest.raises(RuntimeError):
        with Forked([endless, endless], 8) as children:
            assert children.read(1, 5) == [1] * 5
            raise RuntimeError("the parent fails while its children write")
    _assert_left_clean(before)


def test_no_producer_forks_nothing_and_pins_nothing(monkeypatch):
    before = _process_state()
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    with Forked([], 4):
        assert _process_state() == before
    _assert_left_clean(before)


def test_replayed_chunks_belong_to_process_j_mod_workers():
    # chunks of 2 over 3 processes: this one has items 0, 1, 6, 7; the
    # children send x * x for theirs, and the last chunk, 10 alone, is short
    # of the 2 records read, so it comes with None
    before = _process_state()
    with Replayed(lambda: iter(range(11)), lambda x: x * x, 3, 2, 1) as items:
        assert list(items) == [(0, None), (1, None), (2, 4), (3, 9), (4, 16), (5, 25),
                               (6, None), (7, None), (8, 64), (9, 81), (10, None)]
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
