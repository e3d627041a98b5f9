"""CPU-side substrate: the out-of-order core limit model.

The paper runs SPEC CPU2000 on a detailed M5 Alpha core; what reaches
the memory controller is the L2 miss stream, and what couples the
controller back to execution time is (a) read latency at the reorder
buffer head, (b) the memory-level parallelism the ROB/LSQ allow, and
(c) stalls when the controller's pool or write queue saturates.

:class:`~repro.cpu.core.OoOCore` is the USIMM-style ROB/LSQ limit
model (196-entry ROB, 32-entry LSQ, 8-wide, 4 GHz) that replays a miss
trace closed-loop against a memory system.  With
``CPUConfig.lsq_entries=1`` it keeps one load outstanding, the
contrast case of the §2 premise ablation.
"""

from repro.cpu.core import CoreResult, OoOCore

__all__ = [
    "CoreResult",
    "OoOCore",
]
