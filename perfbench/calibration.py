"""Host-speed calibration: time on this host, restated in reference seconds.

A shared host runs the benchmark through slow phases of seconds to
minutes, when a neighbour on the same physical core or memory system
stretches every instruction: over one minute on a 2-vCPU host the same
pure-Python loop read 39 ms in one two-second window and 67 ms in the
next.  Those phases swing a whole ten-second run by 30% and more, and
no amount of repetition inside a run removes them.

What does remove them is a fixed piece of work timed by the same thread
right next to the work being measured.  :func:`calibrate` runs such a
loop -- dictionary updates and integer arithmetic, the interpreter work
the simulator itself is made of -- and :func:`reference_seconds`
rescales a measured time by how long the loop took next to it::

    reference_s = host_s * REFERENCE_S / calibration_s

``REFERENCE_S`` is a constant: the loop's time on the reference machine
(2-vCPU x86-64, Python 3.11.7) in a quiet phase.  A reference second is
therefore a second of that machine at its quiet speed, and a rate per
reference second is what a user of that machine would see.  Interleaved
this way, fig7 cells timed over 90 s of a noisy phase spread 1% between
15-second windows, against 14% for the raw times.

The loop runs no simulator code, so a change to the simulator moves the
measured times and not the calibration.  The calibration must run in
the thread that does the measured work: a calibration loop in another
process, even one on a fixed vCPU, did not track the work at all.
"""

from __future__ import annotations

import time

#: Iterations of the calibration loop (about 4 ms on the reference machine).
LOOPS = 20000
#: Seconds the loop takes on the reference machine in a quiet phase.
REFERENCE_S = 0.0037


def calibrate(clock=time.process_time) -> float:
    """Seconds ``clock`` reads for one run of the fixed calibration loop."""
    start = clock()
    table = {}
    total = 0
    for i in range(LOOPS):
        slot = i & 1023
        table[slot] = table.get(slot, 0) + i
        total += i * 3 % 7
    elapsed = clock() - start
    if total < 0:  # never true; keeps the loop's result live
        raise AssertionError(total)
    return elapsed


def reference_seconds(host_s: float, calibration_s: float) -> float:
    """``host_s`` measured next to a calibration of ``calibration_s``."""
    return host_s * REFERENCE_S / calibration_s
