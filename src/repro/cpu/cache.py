"""Set-associative write-back cache with LRU replacement.

Matches the cache organisation of the paper's Table 3 baseline
(128KB 2-way L1 caches, 2MB 16-way L2, all with 64B lines).  The model
is functional (hit/miss and writeback content, no latency): its job is
to turn reference streams into the main-memory access streams the
schedulers see, "filtered by cache(s)" as §2 puts it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss/writeback counters of one cache."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level: write-back, write-allocate, true-LRU."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError("cache geometry must be positive")
        if size_bytes % (assoc * line_bytes):
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line ({assoc}*{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{name}: set count must be a power of two")
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # One OrderedDict per set: tag -> dirty flag; LRU at the front.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    def _tag_to_address(self, set_index: int, tag: int) -> int:
        line = (tag << (self.num_sets.bit_length() - 1)) | set_index
        return line << self._line_shift

    def access(self, address: int, is_write: bool) -> Tuple[bool, Optional[int]]:
        """Reference one line.

        Returns ``(hit, writeback_address)``: on a miss the line is
        allocated (write-allocate) and, if the victim was dirty, its
        line address is returned for the next level to absorb.
        """
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        line = address >> self._line_shift
        set_index = line & self._set_mask
        cache_set = self._sets[set_index]
        tag = line >> (self.num_sets.bit_length() - 1)
        if tag in cache_set:
            cache_set.move_to_end(tag)
            if is_write:
                cache_set[tag] = True
            return True, None
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        writeback = None
        if len(cache_set) >= self.assoc:
            victim_tag, dirty = cache_set.popitem(last=False)
            if dirty:
                stats.writebacks += 1
                writeback = self._tag_to_address(set_index, victim_tag)
        cache_set[tag] = is_write
        return False, writeback

    def state_dict(self) -> dict:
        """Per-set [tag, dirty] lists in LRU→MRU order, plus counters.

        OrderedDict insertion order *is* the replacement state, so the
        per-set lists preserve it exactly; restoring re-inserts in the
        same order and byte-identical victim selection follows.
        """
        return {
            "sets": [
                [[tag, dirty] for tag, dirty in cache_set.items()]
                for cache_set in self._sets
            ],
            "stats": {
                "reads": self.stats.reads,
                "writes": self.stats.writes,
                "read_misses": self.stats.read_misses,
                "write_misses": self.stats.write_misses,
                "writebacks": self.stats.writebacks,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self._sets = [
            OrderedDict((tag, dirty) for tag, dirty in entries)
            for entries in state["sets"]
        ]
        self.stats = CacheStats(**state["stats"])

    def contains(self, address: int) -> bool:
        """Presence probe without LRU/statistics side effects."""
        line = address >> self._line_shift
        return (
            line >> (self.num_sets.bit_length() - 1)
        ) in self._sets[line & self._set_mask]

    def flush(self) -> List[int]:
        """Empty the cache; returns dirty line addresses in LRU order."""
        dirty: List[int] = []
        for set_index, cache_set in enumerate(self._sets):
            for tag, is_dirty in cache_set.items():
                if is_dirty:
                    dirty.append(self._tag_to_address(set_index, tag))
            cache_set.clear()
        return dirty


__all__ = ["Cache", "CacheStats"]
