"""Per-layer timing of the simulator, installed from outside it.

The tracer wraps the public entry points of each simulator layer (the
CPU model, the open-loop driver, the memory system, every scheduler,
the device's ``issue_*`` commands and every refresh engine) with a
timing shim.  Nothing in ``src/repro`` knows it is being traced: the
wrappers are class attributes swapped in by :meth:`Tracer.install` and
swapped back by :meth:`Tracer.uninstall`.

Per-cycle calls are aggregated, not recorded one by one: every layer
keeps its *self* time (its duration minus the time of traced calls it
made) and a call count.  Calls a layer makes into itself (a scheduler's
``super().schedule()``, ``Channel.issue`` dispatching to an
``issue_*``) fold into the outer call, so counts stay per logical
operation.  Spans are kept only per cell, with a parent link to their
pass, and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional


class Layer:
    """Aggregated self time and counters of one traced layer."""

    __slots__ = ("name", "self_s", "calls", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_s = 0.0
        self.calls = 0
        #: Layer-specific tally (issued passes, rejects, cycles, ...).
        self.count = 0


class Tracer:
    """Installs timing wrappers and keeps per-cell spans in memory."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: Open frames: ``[layer, seconds spent in traced children]``.
        self.stack: List[list] = []
        self.spans: List[dict] = []
        self._patches: List[tuple] = []
        self._open: Dict[int, tuple] = {}
        self._next_id = 1

    def layer(self, name: str) -> Layer:
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer(name)
        return found

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time ``owner.attr`` as layer ``name``.

        ``before(layer, args)`` and ``after(layer, args, result)`` update
        the layer's counters; they run outside the timed interval.
        """
        fn = owner.__dict__[attr]
        layer = self.layer(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)  # self-call: the outer call counts
            if before is not None:
                before(layer, args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.self_s += elapsed - frame[1]
                layer.calls += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(layer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def wrap_family(self, root: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``attr`` on ``root`` and every subclass that defines it."""
        seen = set()
        todo = [root]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, **hooks)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark measures."""
        from repro.controller.access import EnqueueStatus
        from repro.controller.base import Scheduler
        from repro.controller.system import MemorySystem
        from repro.cpu.core import OoOCore
        from repro.dram import refresh
        from repro.dram.channel import Channel
        from repro.sim.engine import OpenLoopDriver

        # Every mechanism module, so the subclass walk finds them all.
        import repro.controller.ahb  # noqa: F401
        import repro.controller.fcfs  # noqa: F401
        import repro.controller.inorder  # noqa: F401
        import repro.controller.intel  # noqa: F401
        import repro.controller.rowhit  # noqa: F401
        import repro.core.bpw  # noqa: F401
        import repro.core.dynamic  # noqa: F401
        import repro.core.qos  # noqa: F401
        import repro.core.scheduler  # noqa: F401

        def tally(layer, args, result):
            layer.count += 1 if result else 0

        def channel_ticks(layer, args, result):
            layer.count += len(args[0].channels)

        def rejected(layer, args, result):
            layer.count += result is EnqueueStatus.REJECTED_FULL

        def skipped(layer, args):
            gap = args[1] - args[0].cycle
            if gap > 0:
                layer.count += gap

        def issued(layer, args, result):
            scheduler, cycle = args[0], args[1]
            layer.count += scheduler.channel.last_command_cycle == cycle

        def completed(layer, args, result):
            layer.count += len(result)

        self.wrap(OoOCore, "run", "cpu.run")
        self.wrap(OoOCore, "step", "cpu.step")
        self.wrap(OoOCore, "_fetch", "cpu.fetch")
        self.wrap(OoOCore, "_retire", "cpu.retire")
        self.wrap(OpenLoopDriver, "run", "engine.run")
        self.wrap(OpenLoopDriver, "step", "engine.step")
        self.wrap(MemorySystem, "__init__", "system.init")
        self.wrap(MemorySystem, "tick", "system.tick", after=channel_ticks)
        self.wrap(MemorySystem, "next_event_cycle", "system.lookout")
        self.wrap(MemorySystem, "skip_to", "system.skip_to", before=skipped)
        self.wrap(MemorySystem, "enqueue", "system.enqueue", after=rejected)
        self.wrap(MemorySystem, "make_access", "system.make_access")
        self.wrap_family(Scheduler, "schedule", "sched.schedule", after=issued)
        self.wrap_family(Scheduler, "next_wakeup", "sched.next_wakeup")
        self.wrap_family(Scheduler, "enqueue", "sched.enqueue")
        self.wrap_family(
            Scheduler, "pop_completions", "sched.completions", after=completed
        )
        for attr in (
            "issue",
            "issue_activate",
            "issue_precharge",
            "issue_column",
            "issue_refresh",
            "issue_refresh_pb",
        ):
            self.wrap(Channel, attr, "dram.issue")
        for cls in (
            refresh.RefreshController,
            refresh.PerBankRefresher,
            refresh.DARPRefresher,
            refresh.SARPRefresher,
        ):
            if "tick" in cls.__dict__:
                self.wrap(cls, "tick", "refresh.tick", after=tally)
            if "next_wakeup" in cls.__dict__:
                self.wrap(cls, "next_wakeup", "refresh.next_wakeup")
        return self

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, tuple]:
        return {
            name: (layer.self_s, layer.calls, layer.count)
            for name, layer in self.layers.items()
        }

    def open_span(self, name: str, parent: Optional[int] = None, **attrs) -> int:
        """Start a span; returns its id for :meth:`close_span`/parents."""
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = (
            name, parent, attrs, time.perf_counter(), self.snapshot()
        )
        return span_id

    def close_span(self, span_id: int) -> float:
        """End a span; records the layer deltas it covered."""
        end = time.perf_counter()
        name, parent, attrs, start, before = self._open.pop(span_id)
        layers = {}
        for layer_name, (self_s, calls, count) in self.snapshot().items():
            base = before.get(layer_name, (0.0, 0, 0))
            if calls != base[1]:
                layers[layer_name] = {
                    "self_s": self_s - base[0],
                    "calls": calls - base[1],
                    "count": count - base[2],
                }
        self.spans.append(dict(
            attrs, id=span_id, parent=parent, name=name,
            start=start, end=end, layers=layers,
        ))
        return end - start

    def write_spans(self, path) -> None:
        """Dump every closed span as ND-JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")
