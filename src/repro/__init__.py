"""repro — reproduction of *A Burst Scheduling Access Reordering
Mechanism* (Jun Shao and Brian T. Davis, HPCA 2007).

The package implements the paper's burst scheduling memory controller
together with everything it is evaluated against and on top of: a
cycle-accurate DDR2 SDRAM model, the BkInOrder/RowHit/Intel baseline
schedulers, address mapping schemes, an out-of-order CPU limit model,
synthetic SPEC CPU2000 workload profiles, and an experiment harness
that regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import MemorySystem, baseline_config
    from repro.cpu.core import OoOCore
    from repro.workloads.spec2000 import make_benchmark_trace

    system = MemorySystem(baseline_config(), "Burst_TH")
    OoOCore(system, make_benchmark_trace("swim", 5000, seed=1)).run()
    print(system.stats.report())

See ``examples/quickstart.py`` for a narrated tour and DESIGN.md for
the full system inventory.
"""

from repro.controller.access import AccessType, EnqueueStatus, MemoryAccess
from repro.controller.registry import MECHANISMS, mechanism_names
from repro.controller.system import MemorySystem
from repro.core.scheduler import BurstScheduler
from repro.dram.timing import DDR2_800, DDR_266, FIG1_DEVICE, TimingParams
from repro.errors import ReproError
from repro.sim.config import CPUConfig, SystemConfig, baseline_config
from repro.sim.engine import OpenLoopDriver, run_requests
from repro.sim.stats import SimStats

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "BurstScheduler",
    "CPUConfig",
    "DDR2_800",
    "DDR_266",
    "EnqueueStatus",
    "FIG1_DEVICE",
    "MECHANISMS",
    "MemoryAccess",
    "MemorySystem",
    "OpenLoopDriver",
    "ReproError",
    "SimStats",
    "SystemConfig",
    "TimingParams",
    "baseline_config",
    "mechanism_names",
    "run_requests",
    "__version__",
]

