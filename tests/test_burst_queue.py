"""Unit tests for the Burst and BurstQueue data structures."""

import pytest

from repro.controller.access import AccessType, MemoryAccess
from repro.core.burst import Burst, BurstQueue
from repro.errors import SchedulerError
from repro.mapping.base import DecodedAddress


def _read(row, arrival=0, col=0):
    return MemoryAccess(
        AccessType.READ, row << 13 | col << 6,
        DecodedAddress(0, 0, 0, row, col), arrival,
    )


def test_burst_groups_same_row():
    a, b = _read(3, 0), _read(3, 5)
    burst = Burst(a)
    burst.append(b)
    assert burst.row == 3
    assert len(burst) == 2
    assert burst.head is a
    assert burst.first_arrival == 0


def test_burst_rejects_other_row():
    burst = Burst(_read(3))
    with pytest.raises(SchedulerError):
        burst.append(_read(4))


def test_queue_add_read_joins_existing_burst():
    """Figure 4: same-row reads join, other rows open new bursts."""
    queue = BurstQueue()
    queue.add_read(_read(1, 0))
    queue.add_read(_read(2, 1))
    joined = queue.add_read(_read(1, 2))
    assert len(queue.bursts) == 2
    assert joined is queue.bursts[0]
    assert len(queue.bursts[0]) == 2


def test_bursts_kept_in_first_arrival_order():
    queue = BurstQueue()
    queue.add_read(_read(1, 0))
    queue.add_read(_read(2, 1))
    queue.add_read(_read(3, 2))
    queue.add_read(_read(1, 3))  # joins burst 0, order unchanged
    assert queue.check_sorted()
    assert [b.row for b in queue.bursts] == [1, 2, 3]


def test_finish_head_read_signals_end_of_burst():
    queue = BurstQueue()
    queue.add_read(_read(1, 0))
    queue.add_read(_read(1, 1))
    queue.add_read(_read(2, 2))
    assert queue.finish_head_read() is False  # burst row1 not empty
    assert queue.finish_head_read() is True   # row1 burst done
    assert queue.bursts[0].row == 2
    assert queue.finish_head_read() is True
    assert not queue.bursts


def test_finish_on_empty_queue_raises():
    with pytest.raises(SchedulerError):
        BurstQueue().finish_head_read()


def test_len_counts_accesses_not_bursts():
    queue = BurstQueue()
    queue.add_read(_read(1, 0))
    queue.add_read(_read(1, 1))
    queue.add_read(_read(2, 2))
    assert len(queue) == 3
    assert bool(queue)
    assert not BurstQueue()


def test_reads_within_burst_stay_in_issue_order():
    """§7: reads inside bursts are served in the order issued."""
    queue = BurstQueue()
    first, second = _read(1, 0, col=7), _read(1, 4, col=2)
    queue.add_read(first)
    queue.add_read(second)
    assert queue.bursts[0].head is first
    queue.finish_head_read()
    assert queue.bursts[0].head is second
