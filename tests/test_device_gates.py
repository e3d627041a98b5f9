"""Every device gate rejects an illegal command on the issue path.

Each gate is written once, at the level that owns it: the rank's
(refresh fence, tRRD, tFAW, tWTR, bank-group tCCD_L / tWTR_L) in
:class:`~repro.dram.rank.Rank`, the bank's (state, open row, tRCD, tRC,
per-bank refresh) in :class:`~repro.dram.bank.Bank`.  A command applied
through ``Channel.issue_*`` must pass both halves, so each row below
breaks exactly one gate and expects :class:`ProtocolError`, then issues
the same command once the gate has cleared to show that gate was the
reason.
"""

from __future__ import annotations

import pytest

from repro.dram.channel import Channel
from repro.dram.timing import DDR2_800, DDR5_4800
from repro.errors import ProtocolError

D2 = DDR2_800
D5 = DDR5_4800


def _trrd(ch):
    ch.issue_activate(0, 0, 0, 1)
    return (
        lambda: ch.issue_activate(D2.tRRD - 1, 0, 1, 1),
        lambda: ch.issue_activate(D2.tRRD, 0, 1, 1),
    )


def _tfaw(ch):
    for bank in range(4):
        ch.issue_activate(bank * D2.tRRD, 0, bank, 1)
    assert 4 * D2.tRRD < D2.tFAW
    return (
        lambda: ch.issue_activate(4 * D2.tRRD, 0, 4, 1),
        lambda: ch.issue_activate(D2.tFAW, 0, 4, 1),
    )


def _refresh_fence(ch):
    rank = ch.ranks[0]
    rank.refresh_pending = True

    def clear_then_activate():
        rank.refresh_pending = False
        ch.issue_activate(1, 0, 0, 1)

    return lambda: ch.issue_activate(0, 0, 0, 1), clear_then_activate


def _bank_not_idle(ch):
    ch.issue_activate(0, 0, 0, 1)
    return (
        lambda: ch.issue_activate(D2.tRC, 0, 0, 2),
        lambda: (
            ch.issue_precharge(D2.tRC + 1, 0, 0),
            ch.issue_activate(D2.tRC + 1 + D2.tRP, 0, 0, 2),
        ),
    )


def _bank_trc(ch):
    ch.issue_activate(0, 0, 0, 1)
    ch.issue_precharge(D2.tRAS, 0, 0)
    assert D2.tRAS + D2.tRP == D2.tRC
    return (
        lambda: ch.issue_activate(D2.tRC - 1, 0, 0, 2),
        lambda: ch.issue_activate(D2.tRC, 0, 0, 2),
    )


def _refresh_pb_window(ch):
    done = ch.issue_refresh_pb(0, 0, 0)
    return (
        lambda: ch.issue_activate(done - 1, 0, 0, 1),
        lambda: ch.issue_activate(done, 0, 0, 1),
    )


def _refresh_pb_pending(ch):
    bank = ch.ranks[0].banks[0]
    bank.set_refresh_pending(None)

    def refresh_then_activate():
        done = ch.issue_refresh_pb(1, 0, 0)
        ch.issue_activate(done, 0, 0, 1)

    return lambda: ch.issue_activate(0, 0, 0, 1), refresh_then_activate


def _column_wrong_row(ch):
    ch.issue_activate(0, 0, 0, 1)
    return (
        lambda: ch.issue_column(D2.tRCD, 0, 0, 2, True),
        lambda: ch.issue_column(D2.tRCD + 1, 0, 0, 1, True),
    )


def _column_idle_bank(ch):
    return (
        lambda: ch.issue_column(0, 0, 0, 1, True),
        lambda: (
            ch.issue_activate(1, 0, 0, 1),
            ch.issue_column(1 + D2.tRCD, 0, 0, 1, True),
        ),
    )


def _column_before_trcd(ch):
    ch.issue_activate(0, 0, 0, 1)
    return (
        lambda: ch.issue_column(D2.tRCD - 1, 0, 0, 1, True),
        lambda: ch.issue_column(D2.tRCD, 0, 0, 1, True),
    )


def _twtr(ch):
    ch.issue_activate(0, 0, 0, 1)
    ch.issue_activate(D2.tRRD, 0, 1, 1)
    data_end = ch.issue_column(D2.tRRD + D2.tRCD, 0, 0, 1, False)
    ready = data_end + D2.tWTR
    return (
        lambda: ch.issue_column(ready - 1, 0, 1, 1, True),
        lambda: ch.issue_column(ready, 0, 1, 1, True),
    )


def _tccd_long(ch):
    # Banks 0 and 4 share bank group 0 (bank % bank_groups).
    ch.issue_activate(0, 0, 0, 1)
    ch.issue_activate(D5.tRRD, 0, 4, 1)
    ch.issue_column(D5.tRCD, 0, 0, 1, True)
    ready = D5.tRCD + D5.ccd_long
    assert D5.tRRD + D5.tRCD < ready   # bank 4's own tRCD has cleared
    return (
        lambda: ch.issue_column(ready - 1, 0, 4, 1, True),
        lambda: ch.issue_column(ready, 0, 4, 1, True),
    )


def _twtr_long(ch):
    ch.issue_activate(0, 0, 0, 1)
    ch.issue_activate(D5.tRRD, 0, 4, 1)
    data_end = ch.issue_column(D5.tRCD, 0, 0, 1, False)
    ready = data_end + D5.wtr_long
    assert data_end + D5.tWTR < ready - 1   # the short tWTR has cleared
    return (
        lambda: ch.issue_column(ready - 1, 0, 4, 1, True),
        lambda: ch.issue_column(ready, 0, 4, 1, True),
    )


GATES = [
    # activate, rank-level
    ("act-tRRD", D2, _trrd),
    ("act-tFAW", D2, _tfaw),
    ("act-rank-refresh-fence", D2, _refresh_fence),
    # activate, bank-level
    ("act-bank-not-idle", D2, _bank_not_idle),
    ("act-bank-tRC", D2, _bank_trc),
    ("act-refpb-window", D2, _refresh_pb_window),
    ("act-refpb-pending", D2, _refresh_pb_pending),
    # column, bank-level
    ("col-wrong-row", D2, _column_wrong_row),
    ("col-idle-bank", D2, _column_idle_bank),
    ("col-before-tRCD", D2, _column_before_trcd),
    # column, rank-level
    ("col-tWTR", D2, _twtr),
    ("col-tCCD_L", D5, _tccd_long),
    ("col-tWTR_L", D5, _twtr_long),
]


@pytest.mark.parametrize(
    "timing, setup",
    [(timing, setup) for _, timing, setup in GATES],
    ids=[name for name, _, _ in GATES],
)
def test_illegal_command_raises_and_legal_one_issues(timing, setup):
    channel = Channel(timing, 0, ranks=1, banks=8)
    illegal, legal = setup(channel)
    with pytest.raises(ProtocolError):
        illegal()
    legal()
