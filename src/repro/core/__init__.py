"""Burst scheduling — the paper's contribution (§3).

Burst scheduling is a two-level out-of-order access reordering
mechanism:

* **Access level** (Figures 4 and 5): reads are clustered into
  :class:`~repro.core.burst.Burst` objects — groups of accesses to the
  same row of the same bank — held in per-bank read queues, while
  writes wait in per-bank write queues drawing on the shared pool.
  Each bank's arbiter picks the *ongoing* access, prioritising reads,
  optionally letting reads **preempt** ongoing writes (Burst_RP) and
  **piggybacking** row-hit writes at the end of bursts (Burst_WP), with
  a static write-occupancy **threshold** arbitrating between the two
  (Burst_TH; the paper's best value is 52 of 64).
* **Transaction level** (Table 2 / Figure 6): a per-channel transaction
  scheduler issues one SDRAM command per cycle using a static priority:
  column accesses to the last bank first, then column accesses in the
  last rank, then precharges/activates, then column accesses in other
  ranks — keeping row hits back to back on the data bus while
  overlapping the overhead transactions.
"""

from repro.core.burst import Burst, BurstQueue
from repro.core.dynamic import DynamicThresholdBurstScheduler
from repro.core.scheduler import BurstScheduler
from repro.core.validate import HazardMonitor

__all__ = [
    "Burst",
    "BurstQueue",
    "BurstScheduler",
    "DynamicThresholdBurstScheduler",
    "HazardMonitor",
]
