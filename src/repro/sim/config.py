"""System configuration — the paper's Table 3 baseline machine.

The baseline represents "a typical desktop workstation in the near
future" (from 2007): a 4 GHz 8-wide out-of-order CPU over 4 GB of DDR2
PC2-6400 organised as 2 channels x 4 ranks x 4 banks (32 banks total),
open-page row policy, page-interleaved address mapping, and a memory
access pool of 256 entries of which at most 64 may be writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict

from repro.dram.timing import DDR2_800, TimingParams
from repro.errors import ConfigError

#: Row-buffer management policies: the two static ones of paper §2 /
#: Table 1 plus the history-based predictor of paper ref [22].
OPEN_PAGE = "open_page"
CLOSE_PAGE_AUTOPRECHARGE = "close_page_autoprecharge"
PREDICTIVE = "predictive"
ROW_POLICIES = (OPEN_PAGE, CLOSE_PAGE_AUTOPRECHARGE, PREDICTIVE)

#: Refresh mechanisms: all-bank auto-refresh (the DDR2 baseline), JEDEC
#: per-bank refresh, and the two refresh/access parallelization
#: mechanisms of Chang et al. (HPCA 2014) built on top of REFpb.
REFRESH_POLICIES = ("REFab", "REFpb", "DARP", "SARP")


@dataclass(frozen=True)
class CPUConfig:
    """The processor-side limits of Table 3 that reach the memory system.

    Only the parameters that couple the CPU to memory scheduling are
    modelled (see DESIGN.md §2): issue/retire width, reorder buffer and
    load/store queue occupancy limits, and the clock ratio between the
    4 GHz core and the 400 MHz memory bus.
    """

    freq_ghz: float = 4.0
    width: int = 8
    rob_entries: int = 196
    lsq_entries: int = 32

    def __post_init__(self) -> None:
        if self.width <= 0 or self.rob_entries <= 0 or self.lsq_entries <= 0:
            raise ConfigError("CPU width/ROB/LSQ must be positive")
        if self.freq_ghz <= 0:
            raise ConfigError("CPU frequency must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Full machine configuration (paper Table 3).

    ``threshold`` is the Burst_TH write-queue occupancy threshold; the
    paper's experimentally best value is 52 out of a 64-entry write
    queue (§5.4).
    """

    timing: TimingParams = DDR2_800
    channels: int = 2
    ranks: int = 4
    banks: int = 4
    rows: int = 16384
    row_bytes: int = 8192
    line_bytes: int = 64
    pool_size: int = 256
    write_queue_size: int = 64
    threshold: int = 52
    row_policy: str = OPEN_PAGE
    mapping: str = "page_interleave"
    #: Subarrays per bank (SARP geometry); rows split into equal
    #: contiguous groups.  Only SARP distinguishes them.
    subarrays: int = 8
    #: Refresh mechanism, one of :data:`REFRESH_POLICIES`.
    refresh_policy: str = "REFab"
    #: Independent workload streams (tenants) sharing the controller in
    #: fleet mode.  1 is the single-stream paper machine; the QoS
    #: scheduler ``Burst_QW`` sizes its per-tenant quota from this.
    sources: int = 1
    cpu: CPUConfig = field(default_factory=CPUConfig)

    def __post_init__(self) -> None:
        for label, value in (
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("banks", self.banks),
            ("rows", self.rows),
            ("row_bytes", self.row_bytes),
            ("line_bytes", self.line_bytes),
            ("pool_size", self.pool_size),
            ("write_queue_size", self.write_queue_size),
        ):
            if value <= 0:
                raise ConfigError(f"{label} must be positive, got {value}")
        if self.row_policy not in ROW_POLICIES:
            raise ConfigError(
                f"row_policy must be one of {ROW_POLICIES}, "
                f"got {self.row_policy!r}"
            )
        if self.row_bytes % self.line_bytes:
            raise ConfigError("row_bytes must be a multiple of line_bytes")
        if self.write_queue_size > self.pool_size:
            raise ConfigError("write queue cannot exceed the access pool")
        if not 0 <= self.threshold <= self.write_queue_size:
            raise ConfigError(
                f"threshold must lie in [0, {self.write_queue_size}], "
                f"got {self.threshold}"
            )
        for label, value in (
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("banks", self.banks),
            ("rows", self.rows),
        ):
            if value & (value - 1):
                raise ConfigError(
                    f"{label} must be a power of two for address mapping, "
                    f"got {value}"
                )
        if self.subarrays <= 0 or self.subarrays & (self.subarrays - 1):
            raise ConfigError(
                f"subarrays must be a positive power of two, "
                f"got {self.subarrays}"
            )
        if self.subarrays > self.rows:
            raise ConfigError(
                f"subarrays ({self.subarrays}) cannot exceed rows "
                f"({self.rows})"
            )
        if self.refresh_policy not in REFRESH_POLICIES:
            raise ConfigError(
                f"refresh_policy must be one of {REFRESH_POLICIES}, "
                f"got {self.refresh_policy!r}"
            )
        if self.sources <= 0:
            raise ConfigError(
                f"sources must be positive, got {self.sources}"
            )
        if self.sources > self.write_queue_size:
            raise ConfigError(
                f"sources ({self.sources}) cannot exceed the write "
                f"queue ({self.write_queue_size}): every tenant needs "
                f"a non-zero write-queue quota"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def columns_per_row(self) -> int:
        """Cache-line-sized columns in one row (128 for 8KB/64B)."""
        return self.row_bytes // self.line_bytes

    @property
    def subarray_rows(self) -> int:
        """Rows per subarray (both fields are powers of two)."""
        return self.rows // self.subarrays

    @property
    def total_channels(self) -> int:
        """Physical channels the system instantiates.

        DDR5 DIMMs expose ``timing.sub_channels`` fully independent
        sub-channels each (own command/data bus, banks, refresh); the
        memory system, the address mapping and the oracles all operate
        on this product rather than the raw ``channels`` DIMM count.
        """
        return self.channels * self.timing.sub_channels

    @property
    def total_banks(self) -> int:
        """All banks across channels and ranks (32 in the baseline)."""
        return self.total_channels * self.ranks * self.banks

    @property
    def capacity_bytes(self) -> int:
        """Total memory capacity implied by the geometry (4 GB)."""
        return self.total_banks * self.rows * self.row_bytes

    @property
    def cpu_cycles_per_mem_cycle(self) -> int:
        """CPU clocks per memory clock (10 for 4 GHz over DDR2-800)."""
        ratio = self.cpu.freq_ghz * 1000.0 / self.timing.clock_mhz
        return max(1, round(ratio))

    def with_threshold(self, threshold: int) -> "SystemConfig":
        """A copy with a different Burst_TH threshold (§5.4 sweeps)."""
        return replace(self, threshold=threshold)

    # ------------------------------------------------------------------
    # Stable serialization (persistent result cache keys)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the full configuration.

        Nested frozen dataclasses (timing, CPU) flatten to plain
        dictionaries, so the result survives ``json.dumps`` and feeds
        :meth:`fingerprint`.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict` (revalidates on construction)."""
        payload = dict(data)
        payload["timing"] = TimingParams(**payload["timing"])
        payload["cpu"] = CPUConfig(**payload["cpu"])
        return cls(**payload)

    def fingerprint(self) -> str:
        """Stable short hash of the configuration.

        Unlike ``hash()`` (randomized per process for strings), this
        digest is identical across processes and invocations, so it is
        safe to use in on-disk cache keys.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def baseline_config(**overrides) -> SystemConfig:
    """The Table 3 baseline machine; keyword overrides for variants."""
    return replace(SystemConfig(), **overrides) if overrides else SystemConfig()


__all__ = [
    "CLOSE_PAGE_AUTOPRECHARGE",
    "CPUConfig",
    "OPEN_PAGE",
    "REFRESH_POLICIES",
    "ROW_POLICIES",
    "SystemConfig",
    "baseline_config",
]
