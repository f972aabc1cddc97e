"""E1 — Figure 2: 64-byte message round-trip latencies.

The paper's only measured plot: the CPU<->NIC interaction latency for a
64 B message, comparing the coherent ECI path against DMA-over-PCIe on
the same machine (Enzian) and on a modern PC server.  "Figure 2 shows
the dramatically better interaction latency possible using even the
(comparatively slow) ECI vs. DMA over PCIe."

We reproduce it as microbenchmarks of the raw mechanisms:

* **coherent** (ECI / CXL 3.0): the CPU writes the message into a
  device-homed line it owns (local), then issues a blocked load on the
  response line; the device recalls the request line and answers the
  fill — the protocol of [21]/Figure 4, with an immediately-available
  response.
* **DMA** (PCIe Gen3 / Gen5): the CPU writes a descriptor, rings a
  doorbell (posted MMIO); the device DMA-reads descriptor + 64 B
  message, then DMA-writes a 64 B response + completion; the CPU
  polls the completion word in DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.coherence import FillResponse, HomeDevice
from ..hw.machine import Machine
from ..hw.params import (
    ENZIAN,
    ENZIAN_PCIE,
    MODERN_SERVER,
    MODERN_SERVER_CXL,
    MachineParams,
)
from ..sim.engine import Event
from .grid import Grid, printed
from .report import fmt_ns, print_table

__all__ = ["GRID", "RoundTripResult", "run_fig2", "render_fig2",
           "coherent_roundtrip_ns", "dma_roundtrip_ns"]

MESSAGE_BYTES = 64


@dataclass(frozen=True)
class RoundTripResult:
    """One bar of Figure 2."""

    label: str
    mechanism: str
    round_trip_ns: float


class _PingDevice(HomeDevice):
    """A device home answering response-line loads after a fixed
    processing delay (the request arrives via a posted line write)."""

    def __init__(self, machine: Machine, request_addr: int, process_ns: float = 50.0):
        self.machine = machine
        self.sim = machine.sim
        self.fabric = machine.fabric
        self.request_addr = request_addr
        self.process_ns = process_ns
        self.requests_seen = 0

    def on_writeback(self, addr: int, data: bytes) -> None:
        if addr == self.request_addr:
            self.requests_seen += 1

    def service_fill(self, core_id: int, addr: int, for_write: bool) -> Event:
        event = Event(self.sim)
        if addr == self.request_addr:
            event.succeed(FillResponse(data=b""))
            return event

        def respond():
            yield self.sim.timeout(self.process_ns)
            event.succeed(FillResponse(data=b"\x01" * MESSAGE_BYTES))

        self.sim.start(respond())
        return event


def coherent_roundtrip_ns(params: MachineParams, n: int = 8) -> float:
    """Mean steady-state coherent-path round trip."""
    machine = Machine(params)
    line = machine.fabric.line_bytes
    from ..hw.address import Region

    region = machine.alloc.allocate(2 * line, "ping")
    request_addr, response_addr = region.base, region.base + line
    device = _PingDevice(machine, request_addr)
    machine.fabric.register_home(Region(request_addr, 2 * line, "ping"), device)
    core = machine.cores[0]
    samples: list[float] = []

    def cpu():
        for index in range(n):
            start = machine.sim.now
            # Push the 64 B message with a write-combining store — no
            # ownership round trip ([21]'s CPU->device direction).
            yield from core.posted_store_line(
                request_addr, b"\x42" * MESSAGE_BYTES
            )
            # Blocked load on the response line.
            yield from core.load_line(response_addr)
            samples.append(machine.sim.now - start)
            # Release the response line so the next load misses.
            yield from core.evict_line(response_addr)

    machine.sim.process(cpu())
    machine.run()
    # Skip the cold first iteration (write-allocate of the request line).
    steady = samples[1:] or samples
    return sum(steady) / len(steady)


def dma_roundtrip_ns(params: MachineParams, n: int = 8) -> float:
    """Mean DMA-descriptor-path round trip with CPU completion polling."""
    machine = Machine(params)
    link = machine.link
    nic_params = params.nic
    core = machine.cores[0]
    samples: list[float] = []

    def one_roundtrip():
        start = machine.sim.now
        # Driver: write descriptor (cached memory) + payload staging.
        yield from core.execute(60)
        # Doorbell (posted MMIO write).
        yield from link.mmio_write(core)
        yield machine.sim.timeout(link.posted_delay_ns())
        # Device: fetch descriptor, fetch message.
        yield from link.dma_read(nic_params.descriptor_bytes)
        yield from link.dma_read(MESSAGE_BYTES)
        yield machine.sim.timeout(nic_params.descriptor_process_ns)
        # Device: write response + completion descriptor.
        yield from link.dma_write(MESSAGE_BYTES)
        yield from link.dma_write(nic_params.descriptor_bytes)
        # CPU: poll the completion word (one DRAM miss when it lands),
        # then read the response from DRAM.
        yield from core.dram_access()
        yield from core.dram_access()
        samples.append(machine.sim.now - start)

    def cpu():
        for _ in range(n):
            yield from one_roundtrip()

    machine.sim.process(cpu())
    machine.run()
    return sum(samples) / len(samples)


def run_fig2() -> list[RoundTripResult]:
    """Regenerate Figure 2's bars (plus the CXL 3.0 projection)."""
    return [
        RoundTripResult(
            "Enzian / ECI (coherent)", "coherent",
            coherent_roundtrip_ns(ENZIAN),
        ),
        RoundTripResult(
            "Enzian / PCIe Gen3 DMA", "dma",
            dma_roundtrip_ns(ENZIAN_PCIE),
        ),
        RoundTripResult(
            "Modern server / PCIe Gen5 DMA", "dma",
            dma_roundtrip_ns(MODERN_SERVER),
        ),
        RoundTripResult(
            "Modern server / CXL 3.0 (coherent, projected)", "coherent",
            coherent_roundtrip_ns(MODERN_SERVER_CXL),
        ),
    ]


def render_fig2(results: list[RoundTripResult]) -> None:
    print_table(
        ["configuration", "mechanism", "64 B round trip"],
        [(r.label, r.mechanism, fmt_ns(r.round_trip_ns)) for r in results],
        title="Figure 2 — 64-byte message round-trip latencies",
    )


GRID = Grid(
    name="e1", title="Figure 2 — 64 B round-trip latencies",
    points=(("main", "fig2_roundtrip:run_fig2", {}),),
    assemble=printed((RoundTripResult, render_fig2)),
)
