"""A MESI-style coherence fabric for device-homed cache lines.

This is the mechanism the whole paper rests on: with a cache-coherent
peripheral interconnect (ECI, CXL.mem 3.0), the NIC *homes* a set of
cache lines.  A CPU load of such a line travels to the device, and the
device chooses when to answer — so a core's ordinary ``load``
instruction becomes a blocking wait for the next RPC (the "stalled
load" of Section 5.1), with no spinning and no interrupt.  The device
can likewise *fetch exclusive* a line to pull a freshly written RPC
response straight out of the CPU's cache.

The fabric tracks, per line: the home device, the home's copy of the
data, and which caches hold the line in which MESI state.  Ordinary
DRAM is a home too (:class:`MemoryHome`) — it simply answers fills
after a fixed latency.

Timing model (one `transfer` = one line-sized message on the link):

* cache hit: no fabric involvement (the core model charges L1 cost);
* fill from home:  request flit one way + home service time + line
  transfer back;
* upgrade (S->M) or write-allocate: request + invalidations + ack;
* device recall (fetch exclusive): request to holder + line back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..sim.clock import bytes_time_ns
from ..sim.engine import Event, SimulationError, Simulator
from .address import Region
from .params import InterconnectParams

__all__ = [
    "LineState",
    "CoherenceError",
    "FillResponse",
    "HomeDevice",
    "MemoryHome",
    "CoherenceFabric",
    "CoherenceStats",
]


class CoherenceError(SimulationError):
    """Protocol violation in the coherence fabric."""


class LineState(enum.Enum):
    """MESI state of a line in one cache."""

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


@dataclass(slots=True)
class FillResponse:
    """What a home returns for a fill: payload plus grant state."""

    data: bytes
    exclusive: bool = True


class HomeDevice:
    """Interface a device implements to home coherent lines.

    ``service_fill`` may return an already-succeeded event (immediate
    answer, e.g. DRAM) or a pending one (the Lauberhorn blocked load).
    """

    def service_fill(
        self, core_id: int, addr: int, for_write: bool
    ) -> Event:  # pragma: no cover - interface
        """Return an Event that fires with a :class:`FillResponse`."""
        raise NotImplementedError

    def on_writeback(self, addr: int, data: bytes) -> None:
        """A modified line was written back to the home copy."""

    def service_time_ns(self) -> float:
        """Fixed per-request service latency inside the device."""
        return 0.0


@dataclass
class CoherenceStats:
    """Fabric-level transaction counters (bus-traffic proxy for E6)."""

    fills: int = 0
    upgrades: int = 0
    invalidations: int = 0
    recalls: int = 0
    writebacks: int = 0
    line_transfers: int = 0

    def total_transactions(self) -> int:
        return self.fills + self.upgrades + self.recalls + self.writebacks


@dataclass
class _Line:
    home: HomeDevice
    data: bytearray
    # cache/core id -> state (only non-INVALID holders are stored)
    holders: dict[int, LineState] = field(default_factory=dict)
    # core ids with a fill outstanding (blocked loads waiting on home)
    pending_fills: set[int] = field(default_factory=set)

    def owner(self) -> Optional[int]:
        for core, state in self.holders.items():
            if state in (LineState.EXCLUSIVE, LineState.MODIFIED):
                return core
        return None


class MemoryHome(HomeDevice):
    """DRAM as a home: answers every fill after a fixed latency."""

    def __init__(self, sim: Simulator, latency_ns: float = 90.0):
        self.sim = sim
        self.latency_ns = latency_ns

    def service_fill(self, core_id: int, addr: int, for_write: bool) -> Event:
        event = Event(self.sim)
        event.succeed(FillResponse(data=b"", exclusive=True))
        return event

    def service_time_ns(self) -> float:
        return self.latency_ns


class CoherenceFabric:
    """Tracks device-homed lines and mediates CPU<->device transfers."""

    def __init__(self, sim: Simulator, interconnect: InterconnectParams):
        if not interconnect.coherent:
            raise CoherenceError(
                f"interconnect {interconnect.name!r} is not cache-coherent"
            )
        self.sim = sim
        self.params = interconnect
        self.line_bytes = interconnect.line_bytes
        self.stats = CoherenceStats()
        self._lines: dict[int, _Line] = {}
        self._regions: list[tuple[Region, HomeDevice]] = []

    # -- registration ---------------------------------------------------

    def register_home(self, region: Region, device: HomeDevice) -> None:
        """Declare ``device`` the home of every line in ``region``."""
        for existing, _dev in self._regions:
            if existing.overlaps(region):
                raise CoherenceError(
                    f"region {region} overlaps existing home {existing}"
                )
        self._regions.append((region, device))
        for addr in region.lines(self.line_bytes):
            self._lines[addr] = _Line(
                home=device, data=bytearray(self.line_bytes)
            )

    def is_homed(self, addr: int) -> bool:
        return self._line_addr(addr) in self._lines

    def _line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _line(self, addr: int) -> _Line:
        line = self._lines.get(self._line_addr(addr))
        if line is None:
            raise CoherenceError(f"address {addr:#x} has no registered home")
        return line

    def holder_state(self, core_id: int, addr: int) -> LineState:
        line = self._lines.get(self._line_addr(addr))
        if line is None:
            return LineState.INVALID
        return line.holders.get(core_id, LineState.INVALID)

    # -- timing helpers ---------------------------------------------------

    def _transfer_ns(self) -> float:
        """Time for one line-sized payload on the link."""
        self.stats.line_transfers += 1
        return self.params.one_way_ns + bytes_time_ns(
            self.line_bytes, self.params.bandwidth_bps
        )

    def _request_ns(self) -> float:
        """Time for a dataless request/ack flit one way."""
        return self.params.one_way_ns

    # -- CPU-side operations (generators; drive via sim.process) ---------

    def load(self, core_id: int, addr: int):
        """Core ``core_id`` loads the line at ``addr``.

        Generator yielding sim events; returns the line's bytes.  If the
        core already holds the line this is a pure cache hit and costs
        nothing at the fabric level (the core model charges L1 latency).
        A miss goes to the home, which may *defer* the answer — this is
        the Lauberhorn blocked load.
        """
        line = self._line(addr)
        state = line.holders.get(core_id, LineState.INVALID)
        if state is not LineState.INVALID:
            return bytes(line.data)

        self.stats.fills += 1
        line.pending_fills.add(core_id)
        try:
            yield self.sim.timeout(self._request_ns())
            service = line.home.service_time_ns()
            if service:
                yield self.sim.timeout(service)
            response: FillResponse = yield line.home.service_fill(
                core_id, addr, for_write=False
            )
            yield self.sim.timeout(self._transfer_ns())
        finally:
            line.pending_fills.discard(core_id)

        if response.data:
            self._install_home_data(line, response.data)
        grant_exclusive = response.exclusive and not line.holders
        line.holders[core_id] = (
            LineState.EXCLUSIVE if grant_exclusive else LineState.SHARED
        )
        if not grant_exclusive:
            # Demote any exclusive holder to shared.
            for holder, holder_state in list(line.holders.items()):
                if holder != core_id and holder_state in (
                    LineState.EXCLUSIVE,
                    LineState.MODIFIED,
                ):
                    if holder_state is LineState.MODIFIED:
                        self.stats.writebacks += 1
                    line.holders[holder] = LineState.SHARED
        return bytes(line.data)

    def store(self, core_id: int, addr: int, data: bytes):
        """Core ``core_id`` writes ``data`` into the line at ``addr``.

        Generator; acquires ownership if needed (request + invalidation
        round trip), then updates the line.  Writes shorter than the
        line are merged at the line offset implied by ``addr``.
        """
        line = self._line(addr)
        state = line.holders.get(core_id, LineState.INVALID)
        if state in (LineState.EXCLUSIVE, LineState.MODIFIED):
            pass  # silent upgrade, local write
        else:
            self.stats.upgrades += 1
            yield self.sim.timeout(self._request_ns())
            # Home invalidates all other holders.
            for holder in list(line.holders):
                if holder != core_id:
                    del line.holders[holder]
                    self.stats.invalidations += 1
            if state is LineState.INVALID:
                # Write-allocate: line travels to the requester.
                yield self.sim.timeout(self._transfer_ns())
            else:
                yield self.sim.timeout(self._request_ns())  # upgrade ack
        line.holders[core_id] = LineState.MODIFIED
        self._merge(line, addr, data)
        return None

    def evict(self, core_id: int, addr: int):
        """Core drops the line (capacity/context eviction); generator."""
        line = self._line(addr)
        state = line.holders.pop(core_id, LineState.INVALID)
        if state is LineState.MODIFIED:
            self.stats.writebacks += 1
            yield self.sim.timeout(self._transfer_ns())
            line.home.on_writeback(self._line_addr(addr), bytes(line.data))
        return None

    def posted_write(self, core_id: int, addr: int, data: bytes):
        """Write-combining (non-temporal) store straight to the home.

        The mechanism [21] uses for the CPU->device direction: the core
        does not acquire ownership; the line-sized payload is pushed to
        the home asynchronously.  Generator returning immediately after
        the store buffer drains; the home copy updates (and
        ``on_writeback`` fires) one transfer later.
        """
        line = self._line(addr)
        # Any cached copies are stale after this write.
        for holder in list(line.holders):
            del line.holders[holder]
            self.stats.invalidations += 1

        def deliver(_event) -> None:
            self._merge(line, addr, data)
            line.home.on_writeback(self._line_addr(addr), bytes(line.data))

        self.sim.timeout(self._transfer_ns()).add_callback(deliver)
        return None
        yield  # pragma: no cover - generator form for API symmetry

    # -- device-side operations ------------------------------------------

    def device_recall(self, addr: int):
        """The home pulls the line back, invalidating all holders.

        Generator returning the freshest data (the paper's *fetch
        exclusive* used to extract the RPC response from the CPU cache).
        """
        line = self._line(addr)
        self.stats.recalls += 1
        owner = line.owner()
        yield self.sim.timeout(self._request_ns())
        if owner is not None and line.holders.get(owner) is LineState.MODIFIED:
            # Dirty data travels back over the link.
            yield self.sim.timeout(self._transfer_ns())
        for holder in list(line.holders):
            del line.holders[holder]
            self.stats.invalidations += 1
        return bytes(line.data)

    def device_claim(self, addr: int) -> tuple[bytes, bool]:
        """Fetch-exclusive with decoupled timing: the invalidation takes
        effect immediately (interconnect channel ordering guarantees it
        reaches holders before any later message from this home), and
        the *data* transfer time is charged by the caller via
        :meth:`claim_transfer_ns`.

        Returns ``(data, was_dirty)``.  Used by the Lauberhorn response
        extraction so it can overlap with the next delivery without the
        stale-line race.
        """
        line = self._line(addr)
        self.stats.recalls += 1
        was_dirty = any(
            state is LineState.MODIFIED for state in line.holders.values()
        )
        for holder in list(line.holders):
            del line.holders[holder]
            self.stats.invalidations += 1
        if was_dirty:
            self.stats.line_transfers += 1
        return bytes(line.data), was_dirty

    def claim_transfer_ns(self, was_dirty: bool) -> float:
        """Wire time before claimed data is usable at the home: the
        recall request one way, plus the dirty line coming back."""
        delay = self.params.one_way_ns
        if was_dirty:
            delay += self.params.one_way_ns + bytes_time_ns(
                self.line_bytes, self.params.bandwidth_bps
            )
        return delay

    def device_write(self, addr: int, data: bytes) -> None:
        """The home updates its copy (no holders may exist).

        Used by the NIC to stage a CONTROL line before answering a
        pending fill; instantaneous because it is local to the device.
        """
        line = self._line(addr)
        if line.holders:
            raise CoherenceError(
                f"device_write to {addr:#x} while held by {sorted(line.holders)}"
            )
        self._merge(line, addr, data)

    def device_peek(self, addr: int) -> bytes:
        """Read the home copy without coherence actions (device-local)."""
        return bytes(self._line(addr).data)

    def pending_loaders(self, addr: int) -> frozenset[int]:
        """Cores with a fill outstanding on this line (for Tryagain)."""
        return frozenset(self._line(addr).pending_fills)

    def has_holders(self, addr: int) -> bool:
        """True when any cache holds the line (device must recall before
        rewriting it)."""
        return bool(self._line(addr).holders)

    # -- internals ---------------------------------------------------------

    def _install_home_data(self, line: _Line, data: bytes) -> None:
        if len(data) > self.line_bytes:
            raise CoherenceError(
                f"fill data of {len(data)} B exceeds line size {self.line_bytes}"
            )
        line.data[: len(data)] = data

    def _merge(self, line: _Line, addr: int, data: bytes) -> None:
        offset = addr % self.line_bytes
        if offset + len(data) > self.line_bytes:
            raise CoherenceError(
                f"write of {len(data)} B at offset {offset} crosses line boundary"
            )
        line.data[offset : offset + len(data)] = data
