"""CPU core model: cycle accounting plus memory-access timing.

A :class:`Core` does not fetch real instructions; software components
(the kernel model, RPC handlers, network stacks) *charge* it costs:

* ``execute(instructions)`` — straight-line code at the core's CPI;
* ``load_line/store_line`` — precise coherent accesses to device-homed
  lines via the :class:`~repro.hw.coherence.CoherenceFabric`;
* ``cache_access/dram_access`` — parametric costs for ordinary memory.

The core keeps three wall-clock buckets — *busy* (retiring
instructions), *stalled* (waiting on a memory/coherence fill), and
*idle* (halted) — which the energy model (E6) and the CPU-efficiency
results (E2-E4) are computed from.  A blocked load on a NIC-homed line
accrues *stall* time: the paper's point is that this is cheaper than
busy-spinning, which accrues *busy* time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.engine import Simulator
from ..sim.trace import Tracer
from .coherence import CoherenceFabric
from .params import CacheParams, CoreParams

__all__ = ["CoreCounters", "Core"]


@dataclass
class CoreCounters:
    """Wall-clock buckets plus instruction/transaction counts."""

    busy_ns: float = 0.0
    stall_ns: float = 0.0
    instructions: int = 0
    loads: int = 0
    stores: int = 0

    def active_ns(self) -> float:
        return self.busy_ns + self.stall_ns

    def idle_ns(self, total_ns: float) -> float:
        return max(0.0, total_ns - self.active_ns())

    def snapshot(self) -> "CoreCounters":
        return CoreCounters(
            busy_ns=self.busy_ns,
            stall_ns=self.stall_ns,
            instructions=self.instructions,
            loads=self.loads,
            stores=self.stores,
        )

    def delta(self, earlier: "CoreCounters") -> "CoreCounters":
        return CoreCounters(
            busy_ns=self.busy_ns - earlier.busy_ns,
            stall_ns=self.stall_ns - earlier.stall_ns,
            instructions=self.instructions - earlier.instructions,
            loads=self.loads - earlier.loads,
            stores=self.stores - earlier.stores,
        )


class Core:
    """One CPU core: a clock, a cache cost model, and counters."""

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        core_params: CoreParams,
        cache_params: CacheParams,
        fabric: Optional[CoherenceFabric] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.id = core_id
        self.params = core_params
        self.cache = cache_params
        self.fabric = fabric
        self.tracer = tracer
        self.counters = CoreCounters()
        #: label of the software context currently charged (set by the OS)
        self.context: str = "idle"
        #: start time of an in-progress coherent-load stall, if any
        self._stall_open_since: Optional[float] = None

    def stall_ns_now(self) -> float:
        """Accumulated stall time including any stall still in progress
        (a blocked load parked at the NIC counts from its start)."""
        open_stall = (
            self.sim.now - self._stall_open_since
            if self._stall_open_since is not None
            else 0.0
        )
        return self.counters.stall_ns + open_stall

    def busy_ns_now(self) -> float:
        return self.counters.busy_ns

    # -- cost charging ----------------------------------------------------

    def instructions_ns(self, instructions: float) -> float:
        """Duration of ``instructions`` at this core's CPI, in ns."""
        return self.params.frequency.cycles_to_ns(instructions * self.params.cpi)

    def execute(self, instructions: float):
        """Charge straight-line code; generator."""
        duration = self.instructions_ns(instructions)
        self.counters.instructions += int(instructions)
        self.counters.busy_ns += duration
        yield self.sim.timeout(duration)
        return None

    def busy_ns(self, duration: float):
        """Charge an explicit busy interval (e.g. a copy loop); generator."""
        self.counters.busy_ns += duration
        yield self.sim.timeout(duration)
        return None

    # -- parametric ordinary-memory costs -----------------------------------

    def cache_hit(self, level: str = "l1"):
        """Charge an ordinary cached access (busy time); generator."""
        cycles = {
            "l1": self.cache.l1_hit_cycles,
            "l2": self.cache.l2_hit_cycles,
            "llc": self.cache.llc_hit_cycles,
        }[level]
        duration = self.params.frequency.cycles_to_ns(cycles)
        self.counters.loads += 1
        self.counters.busy_ns += duration
        yield self.sim.timeout(duration)
        return None

    def dram_access(self):
        """Charge a DRAM miss (stall time); generator."""
        self.counters.loads += 1
        self.counters.stall_ns += self.cache.dram_ns
        yield self.sim.timeout(self.cache.dram_ns)
        return None

    def cross_core_transfer(self):
        """Charge pulling a line from another core's cache; generator."""
        self.counters.loads += 1
        self.counters.stall_ns += self.cache.cross_core_ns
        yield self.sim.timeout(self.cache.cross_core_ns)
        return None

    # -- precise coherent accesses ------------------------------------------

    def load_line(self, addr: int):
        """Coherent load through the fabric; generator returning bytes.

        Stall time covers the whole fill, including any time the home
        device defers the answer (the Lauberhorn blocked load).
        """
        if self.fabric is None:
            raise RuntimeError(f"core {self.id} has no coherence fabric")
        self.counters.loads += 1
        start = self.sim.now
        self._stall_open_since = start
        try:
            data = yield from self.fabric.load(self.id, addr)
        finally:
            self._stall_open_since = None
        elapsed = self.sim.now - start
        if elapsed == 0.0:
            # Local cache hit: charge L1 latency as busy time.
            duration = self.params.frequency.cycles_to_ns(self.cache.l1_hit_cycles)
            self.counters.busy_ns += duration
            yield self.sim.timeout(duration)
        else:
            self.counters.stall_ns += elapsed
        return data

    def store_line(self, addr: int, data: bytes):
        """Coherent store through the fabric; generator."""
        if self.fabric is None:
            raise RuntimeError(f"core {self.id} has no coherence fabric")
        self.counters.stores += 1
        start = self.sim.now
        yield from self.fabric.store(self.id, addr, data)
        elapsed = self.sim.now - start
        if elapsed == 0.0:
            duration = self.params.frequency.cycles_to_ns(self.cache.l1_hit_cycles)
            self.counters.busy_ns += duration
            yield self.sim.timeout(duration)
        else:
            self.counters.stall_ns += elapsed
        return None

    def posted_store_line(self, addr: int, data: bytes):
        """Write-combining store of a line to its home device; generator.

        The core only pays the store-buffer drain; the payload lands at
        the device one transfer later (no ownership round trip) — the
        CPU->device half of [21]'s PIO protocol.
        """
        if self.fabric is None:
            raise RuntimeError(f"core {self.id} has no coherence fabric")
        self.counters.stores += 1
        drain_ns = 25.0
        self.counters.busy_ns += drain_ns
        yield self.sim.timeout(drain_ns)
        # Fire-and-forget delivery (posted_write is synchronous from the
        # core's perspective).
        for _ in self.fabric.posted_write(self.id, addr, data):
            pass  # pragma: no cover - posted_write yields nothing
        return None

    def load_lines(self, addrs):
        """Streamed coherent loads with memory-level parallelism.

        Fills are issued in batches of ``cache.mlp``; within a batch the
        round trips overlap, so a batch costs one fill latency rather
        than ``mlp``.  Generator returning the line contents in order.
        """
        if self.fabric is None:
            raise RuntimeError(f"core {self.id} has no coherence fabric")
        results: dict[int, bytes] = {}
        start = self.sim.now
        self._stall_open_since = start
        try:
            batch_size = max(1, self.cache.mlp)
            addr_list = list(addrs)
            for base in range(0, len(addr_list), batch_size):
                batch = addr_list[base : base + batch_size]
                # One countdown per batch: the last fill to land fires it.
                joined = self.sim.event()
                pending = len(batch)
                for addr in batch:
                    self.counters.loads += 1

                    def one(addr=addr):
                        nonlocal pending
                        data = yield from self.fabric.load(self.id, addr)
                        results[addr] = data
                        pending -= 1
                        if not pending:
                            joined.succeed()

                    self.sim.start(one())
                yield joined
        finally:
            self._stall_open_since = None
        self.counters.stall_ns += self.sim.now - start
        return [results[addr] for addr in addrs]

    def evict_line(self, addr: int):
        """Cache-maintenance eviction of a coherent line; generator.

        Clean lines cost one pipeline flush's worth of busy time; dirty
        lines additionally write back over the link (fabric-charged).
        """
        if self.fabric is None:
            raise RuntimeError(f"core {self.id} has no coherence fabric")
        flush_ns = self.params.frequency.cycles_to_ns(self.cache.l1_hit_cycles)
        self.counters.busy_ns += flush_ns
        yield self.sim.timeout(flush_ns)
        start = self.sim.now
        yield from self.fabric.evict(self.id, addr)
        self.counters.stall_ns += self.sim.now - start
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.id} ctx={self.context!r}>"
