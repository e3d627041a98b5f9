"""SDRAM timing parameter sets.

All values are expressed in *memory clock cycles* of the device bus
clock (e.g. 400 MHz for DDR2-800).  Because the devices are double data
rate, a burst of ``burst_length`` beats occupies ``burst_length // 2``
clock cycles on the data bus.

The names follow Micron datasheet conventions (see paper reference
[10]):

========  =====================================================
tCL       column read command to first data beat
tCWL      column write command to first data beat
tRCD      row activate to column command
tRP       bank precharge to row activate
tRAS      row activate to bank precharge (minimum row open time)
tRC       row activate to next row activate, same bank (tRAS+tRP)
tWR       end of write data to precharge (write recovery)
tWTR      end of write data to read command, same rank
tRTP      read command to precharge
tRRD      activate to activate, different banks of the same rank
tFAW      rolling window for four activates within one rank
tCCD      column command to column command, same rank
tRTRS     rank-to-rank data bus turnaround (DDR2, paper ref [8])
tREFI     average refresh interval (refresh becomes due)
tRFC      refresh cycle time (rank busy after REFRESH)
tRFCpb    per-bank refresh cycle time (bank busy after REFpb)
tRREFD    REFpb-to-REFpb spacing, different banks, same rank
tCCD_L    column to column, same bank group (DDR4/DDR5)
tCCD_S    column to column, different bank groups
tWTR_L    end of write data to read command, same bank group
tWTR_S    end of write data to read command, different groups
========  =====================================================

``tRFCpb``/``tRREFD`` govern the per-bank refresh commands (LPDDR
REFpb semantics, adopted by the HPCA 2014 refresh-parallelism work):
a REFpb occupies only its target bank for ``tRFCpb`` cycles and
consecutive REFpb commands on one rank must be ``tRREFD`` apart.
When left unset they derive from the all-bank numbers — see
:attr:`TimingParams.refpb_recovery` / :attr:`TimingParams.refpb_spacing`.

Devices with ``bank_groups > 1`` (DDR4 onward) split the column gaps:
back-to-back columns within one bank group must honour the *long* gap
``tCCD_L`` while columns to different groups need only the *short*
``tCCD_S``, and likewise for the write-to-read turnaround
``tWTR_L``/``tWTR_S``.  By convention the base ``tCCD``/``tWTR``
fields hold the short values (they remain the floor every column pair
pays) and the ``_L``/``_S`` overrides default to them, so pre-DDR4
presets need no changes.  ``sub_channels`` models DDR5's two fully
independent 32-bit sub-channels per DIMM: the memory system
instantiates ``channels * sub_channels`` physical channels, each with
its own command/data bus, banks, refresh machinery and oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class TimingParams:
    """A complete set of SDRAM timing constraints, in memory cycles.

    Instances are immutable; the standard devices used by the paper are
    provided as module-level presets (:data:`DDR2_800`, :data:`DDR_266`
    and :data:`FIG1_DEVICE`).  ``tREFI`` may be ``None`` to disable
    refresh entirely, which the unit tests use to obtain deterministic
    latencies (paper Table 1 assumes idle buses and no refresh).

    Derived values (``tRC``, ``data_cycles``, ``ccd_long`` ...) are
    ``cached_property``: computed once per instance into ``__dict__``,
    which ``replace``, ``asdict``, ``==`` and ``hash`` never read.
    """

    name: str
    tCL: int
    tRCD: int
    tRP: int
    tRAS: int
    burst_length: int
    tCWL: int
    tWR: int
    tWTR: int
    tRTP: int
    tRRD: int
    tCCD: int
    tRTRS: int
    tFAW: Optional[int] = None
    tREFI: Optional[int] = None
    tRFC: int = 0
    #: Per-bank refresh recovery / spacing.  ``None`` derives both from
    #: the all-bank numbers (see ``refpb_recovery`` / ``refpb_spacing``)
    #: so every preset and every ``replace()``-built variant stays
    #: self-consistent; experiments sweeping densities set them
    #: explicitly.
    tRFCpb: Optional[int] = None
    tRREFD: Optional[int] = None
    #: Bank-group architecture (DDR4/DDR5).  With ``bank_groups == 1``
    #: every group rule is inert; otherwise banks stripe across groups
    #: by ``bank_index % bank_groups`` and the split column gaps below
    #: apply.  The base ``tCCD``/``tWTR`` hold the *short* values; the
    #: ``_L``/``_S`` overrides default to them (see module docstring).
    bank_groups: int = 1
    tCCD_L: Optional[int] = None
    tCCD_S: Optional[int] = None
    tWTR_L: Optional[int] = None
    tWTR_S: Optional[int] = None
    #: Independent sub-channels per DIMM (DDR5 splits the 64-bit bus
    #: into two 32-bit halves with separate command/data paths).  The
    #: memory system builds ``channels * sub_channels`` physical
    #: channels.
    sub_channels: int = 1
    clock_mhz: int = 400

    def __post_init__(self) -> None:
        positive = {
            "tCL": self.tCL,
            "tRCD": self.tRCD,
            "tRP": self.tRP,
            "tRAS": self.tRAS,
            "burst_length": self.burst_length,
            "tCWL": self.tCWL,
        }
        for label, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{label} must be positive, got {value}")
        non_negative = {
            "tRTP": self.tRTP,
            "tRRD": self.tRRD,
            "tCCD": self.tCCD,
            "tRTRS": self.tRTRS,
        }
        for label, value in non_negative.items():
            if value < 0:
                raise ConfigError(f"{label} must be >= 0, got {value}")
        # Write recovery and write-to-read turnaround of zero would
        # let a precharge or read overlap in-flight write data — no
        # real device allows it, and a typo'd profile that slips one
        # through produces schedules only the oracle might reject.
        if self.tWR < 1:
            raise ConfigError(f"tWR must be >= 1, got {self.tWR}")
        if self.tWTR < 1:
            raise ConfigError(f"tWTR must be >= 1, got {self.tWTR}")
        if self.burst_length % 2:
            raise ConfigError(
                f"burst_length must be even on DDR devices, "
                f"got {self.burst_length}"
            )
        if self.tRAS < self.tRCD:
            raise ConfigError(
                f"tRAS ({self.tRAS}) must cover tRCD ({self.tRCD})"
            )
        # A row must stay open long enough to activate it AND issue
        # the earliest read-then-precharge sequence the state machine
        # will attempt; a shorter tRAS is self-contradictory.
        if self.tRAS < self.tRCD + self.tRTP:
            raise ConfigError(
                f"tRAS ({self.tRAS}) must cover tRCD + tRTP "
                f"({self.tRCD} + {self.tRTP})"
            )
        # Four activates tRRD apart already span 4*tRRD cycles, so a
        # smaller four-activate window could never bind and is a typo.
        if self.tFAW is not None and self.tFAW < 4 * self.tRRD:
            raise ConfigError(
                f"tFAW ({self.tFAW}) must be >= 4*tRRD ({4 * self.tRRD})"
            )
        if self.tREFI is not None:
            if self.tREFI <= 0:
                raise ConfigError(f"tREFI must be positive, got {self.tREFI}")
            if self.tRFC <= 0:
                raise ConfigError(
                    "tRFC must be positive when refresh is enabled"
                )
            if self.tRFC >= self.tREFI:
                raise ConfigError(
                    f"tRFC ({self.tRFC}) must be < tREFI ({self.tREFI})"
                )
        if self.tRFCpb is not None:
            if self.tRFCpb <= 0:
                raise ConfigError(
                    f"tRFCpb must be positive, got {self.tRFCpb}"
                )
            if self.tRFC and self.tRFCpb > self.tRFC:
                raise ConfigError(
                    f"tRFCpb ({self.tRFCpb}) must be <= tRFC ({self.tRFC})"
                )
        if self.tRREFD is not None and self.tRREFD <= 0:
            raise ConfigError(
                f"tRREFD must be positive, got {self.tRREFD}"
            )
        for label, value in (
            ("bank_groups", self.bank_groups),
            ("sub_channels", self.sub_channels),
        ):
            if value < 1 or value & (value - 1):
                raise ConfigError(
                    f"{label} must be a positive power of two, got {value}"
                )
        for label, value in (
            ("tCCD_L", self.tCCD_L),
            ("tCCD_S", self.tCCD_S),
            ("tWTR_L", self.tWTR_L),
            ("tWTR_S", self.tWTR_S),
        ):
            if value is not None and value < 0:
                raise ConfigError(f"{label} must be >= 0, got {value}")
        if self.ccd_long < self.ccd_short:
            raise ConfigError(
                f"tCCD_L ({self.ccd_long}) must be >= tCCD_S "
                f"({self.ccd_short})"
            )
        if self.wtr_long < self.wtr_short:
            raise ConfigError(
                f"tWTR_L ({self.wtr_long}) must be >= tWTR_S "
                f"({self.wtr_short})"
            )

    @cached_property
    def tRC(self) -> int:
        """Activate-to-activate on the same bank."""
        return self.tRAS + self.tRP

    @cached_property
    def data_cycles(self) -> int:
        """Clock cycles one burst occupies on the data bus (DDR)."""
        return self.burst_length // 2

    @cached_property
    def refpb_recovery(self) -> int:
        """Effective tRFCpb: cycles a bank is busy after a REFpb.

        A per-bank refresh restores one bank's worth of rows, so when
        no explicit ``tRFCpb`` is given it derives as half the all-bank
        ``tRFC`` (JEDEC LPDDR4 sits near that ratio).  Zero when the
        device has refresh disabled.
        """
        if self.tRFCpb is not None:
            return self.tRFCpb
        if self.tREFI is None or self.tRFC <= 0:
            return 0
        return max(1, (self.tRFC + 1) // 2)

    @cached_property
    def refpb_spacing(self) -> int:
        """Effective tRREFD: min gap between REFpb commands on a rank.

        Derives as the activate-to-activate spacing ``tRRD`` when no
        explicit ``tRREFD`` is given — a REFpb is an internally
        generated activate burst on one bank.
        """
        if self.tRREFD is not None:
            return self.tRREFD
        return max(1, self.tRRD)

    @cached_property
    def ccd_long(self) -> int:
        """Effective tCCD_L: column gap within one bank group.

        Falls back to the base ``tCCD`` so pre-bank-group devices
        (``bank_groups == 1``) see a single uniform column gap.
        """
        return self.tCCD if self.tCCD_L is None else self.tCCD_L

    @cached_property
    def ccd_short(self) -> int:
        """Effective tCCD_S: column gap across bank groups."""
        return self.tCCD if self.tCCD_S is None else self.tCCD_S

    @cached_property
    def wtr_long(self) -> int:
        """Effective tWTR_L: write-to-read gap within one bank group."""
        return self.tWTR if self.tWTR_L is None else self.tWTR_L

    @cached_property
    def wtr_short(self) -> int:
        """Effective tWTR_S: write-to-read gap across bank groups."""
        return self.tWTR if self.tWTR_S is None else self.tWTR_S

    @cached_property
    def read_to_precharge(self) -> int:
        """Read command to earliest precharge of the same bank."""
        return max(self.tRTP, self.data_cycles)

    @cached_property
    def write_to_precharge(self) -> int:
        """Write command to earliest precharge of the same bank."""
        return self.tCWL + self.data_cycles + self.tWR

    def row_hit_latency(self) -> int:
        """Command-to-last-data-beat latency of a row hit (Table 1)."""
        return self.tCL + self.data_cycles

    def row_empty_latency(self) -> int:
        """Latency of an access to a precharged bank (Table 1)."""
        return self.tRCD + self.tCL + self.data_cycles

    def row_conflict_latency(self) -> int:
        """Latency of an access conflicting with an open row (Table 1)."""
        return self.tRP + self.tRCD + self.tCL + self.data_cycles


#: DDR2 PC2-6400 with 5-5-5 timings at 400 MHz — the paper's baseline
#: main memory (Table 3).  tREFI is 7.8 us and tRFC 127.5 ns expressed
#: in 2.5 ns cycles.
DDR2_800 = TimingParams(
    name="DDR2-800 PC2-6400 5-5-5",
    tCL=5,
    tRCD=5,
    tRP=5,
    tRAS=18,
    burst_length=8,
    tCWL=4,
    tWR=6,
    tWTR=3,
    tRTP=3,
    tRRD=3,
    tCCD=2,
    tRTRS=2,
    tFAW=18,
    tREFI=3120,
    tRFC=51,
    clock_mhz=400,
)

#: DDR PC-2100 with 2-2-2 timings at 133 MHz — the older generation the
#: paper's §6 compares against (row conflict 6 cycles vs 15).
DDR_266 = TimingParams(
    name="DDR-266 PC-2100 2-2-2",
    tCL=2,
    tRCD=2,
    tRP=2,
    tRAS=6,
    burst_length=4,
    tCWL=1,
    tWR=2,
    tWTR=1,
    tRTP=2,
    tRRD=2,
    tCCD=1,
    tRTRS=0,
    tFAW=None,
    tREFI=1040,
    tRFC=10,
    clock_mhz=133,
)

#: DDR-400 PC-3200 3-3-3 at 200 MHz — between the generations the
#: paper's §6 compares.
DDR_400 = TimingParams(
    name="DDR-400 PC-3200 3-3-3",
    tCL=3,
    tRCD=3,
    tRP=3,
    tRAS=8,
    burst_length=4,
    tCWL=1,
    tWR=3,
    tWTR=2,
    tRTP=2,
    tRRD=2,
    tCCD=1,
    tRTRS=1,
    tFAW=None,
    tREFI=1560,
    tRFC=21,
    clock_mhz=200,
)

#: DDR2-533 PC2-4200 4-4-4 at 266 MHz.
DDR2_533 = TimingParams(
    name="DDR2-533 PC2-4200 4-4-4",
    tCL=4,
    tRCD=4,
    tRP=4,
    tRAS=12,
    burst_length=8,
    tCWL=3,
    tWR=4,
    tWTR=2,
    tRTP=2,
    tRRD=2,
    tCCD=2,
    tRTRS=2,
    tFAW=13,
    tREFI=2080,
    tRFC=34,
    clock_mhz=266,
)

#: A DDR3-1333 9-9-9 device (2009 mainstream) — the §6 extrapolation:
#: bus frequency keeps outpacing the core timing parameters, so access
#: latency in cycles keeps growing (row conflict: 6 cycles on DDR-266,
#: 15 on DDR2-800, 27 here) and reordering matters even more.
DDR3_1333 = TimingParams(
    name="DDR3-1333 9-9-9",
    tCL=9,
    tRCD=9,
    tRP=9,
    tRAS=24,
    burst_length=8,
    tCWL=7,
    tWR=10,
    tWTR=5,
    tRTP=5,
    tRRD=4,
    tCCD=4,
    tRTRS=2,
    tFAW=20,
    tREFI=5200,
    tRFC=74,
    clock_mhz=666,
)

#: DDR3-1600 11-11-11 at 800 MHz — the mature end of the DDR3 ladder.
#: The nanosecond-constant secondaries (tWR 15 ns, tWTR/tRTP 7.5 ns,
#: tFAW 30 ns, tREFI 7.8 us, tRFC 110 ns) land at ever-larger cycle
#: counts, continuing the §6 trend (row conflict 33 cycles).
DDR3_1600 = TimingParams(
    name="DDR3-1600 11-11-11",
    tCL=11,
    tRCD=11,
    tRP=11,
    tRAS=28,
    burst_length=8,
    tCWL=8,
    tWR=12,
    tWTR=6,
    tRTP=6,
    tRRD=5,
    tCCD=4,
    tRTRS=2,
    tFAW=24,
    tREFI=6240,
    tRFC=88,
    clock_mhz=800,
)

#: DDR5-4800 40-39-39 at 2400 MHz — the modern endpoint of the §6
#: ladder (row conflict 118 cycles).  DDR5 introduces every structural
#: feature the generation profiles model: BL16 bursts (8 data cycles),
#: four bank groups with split tCCD_L/tCCD_S and tWTR_L/tWTR_S column
#: gaps, two independent sub-channels per DIMM, and same-bank refresh
#: (explicit tRFCpb/tRREFD driving the PR-7 per-bank refresh
#: machinery).  Values follow the JEDEC DDR5-4800B speed bin for a
#: 16 Gb device: tRAS 32 ns, tWR 30 ns, tRTP 7.5 ns, tWTR_L 10 ns,
#: tREFI1 3.9 us, tRFC 295 ns, tRFCsb 130 ns.
DDR5_4800 = TimingParams(
    name="DDR5-4800 40-39-39",
    tCL=40,
    tRCD=39,
    tRP=39,
    tRAS=76,
    burst_length=16,
    tCWL=38,
    tWR=72,
    tWTR=6,
    tRTP=18,
    tRRD=8,
    tCCD=8,
    tRTRS=2,
    tFAW=32,
    tREFI=9360,
    tRFC=708,
    tRFCpb=312,
    tRREFD=32,
    bank_groups=4,
    tCCD_L=12,
    tWTR_L=24,
    sub_channels=2,
    clock_mhz=2400,
)

#: The §6 device-generation ladder, oldest first.
GENERATIONS = (
    DDR_266,
    DDR_400,
    DDR2_533,
    DDR2_800,
    DDR3_1333,
    DDR3_1600,
    DDR5_4800,
)

#: Preset identifier -> profile for every :data:`GENERATIONS` member,
#: derived by reflection so appending a profile to the ladder enrolls
#: it everywhere that offers generations by name (the CLI's
#: ``--device`` choices, the sweep benchmarks) with no second list to
#: keep in sync.
GENERATION_PRESETS = {
    name: preset
    for preset in GENERATIONS
    for name, value in list(globals().items())
    if value is preset
}

#: The teaching device of the paper's Figure 1: 2-2-2 timings with a
#: burst length of 4 (2 data cycles), no refresh, relaxed secondary
#: constraints.  With it, four accesses (two row empties followed by
#: two row conflicts) take 28 cycles in order and 16 out of order.
FIG1_DEVICE = TimingParams(
    name="Figure-1 2-2-2 BL4",
    tCL=2,
    tRCD=2,
    tRP=2,
    tRAS=4,
    burst_length=4,
    tCWL=1,
    tWR=1,
    tWTR=1,
    tRTP=2,
    tRRD=1,
    tCCD=1,
    tRTRS=0,
    tFAW=None,
    tREFI=None,
    tRFC=0,
    clock_mhz=100,
)

__all__ = [
    "DDR2_533",
    "DDR2_800",
    "DDR3_1333",
    "DDR3_1600",
    "DDR5_4800",
    "DDR_266",
    "DDR_400",
    "FIG1_DEVICE",
    "GENERATIONS",
    "GENERATION_PRESETS",
    "TimingParams",
]
