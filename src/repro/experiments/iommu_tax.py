"""E16 — Section 3: the price of not trusting the NIC.

"the introduction of IOMMUs and SMMUs has led to a philosophy that, as
far as possible the NIC should not be trusted as a device.  This is an
anomaly, given that devices like disks, CPU cores, GPUs, and DRAM are,
for the most part, trusted."

This experiment puts a number on the anomaly: the per-DMA cost of
IOMMU translation for an *untrusted* descriptor NIC, across the IOTLB
pressure regimes a real receive ring produces:

* **trusted (no IOMMU)** — the paper's position for the NIC;
* **IOTLB-resident** — a small buffer pool that fits the 64-entry
  IOTLB: only lookup costs;
* **IOTLB-thrashing** — a 1024-descriptor ring cycling through more
  pages than the IOTLB holds: every access walks the page table;
* **strict unmap** — thrashing plus strict DMA-API semantics
  (invalidate on every completion), as hardened kernels configure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.iommu import PAGE_BYTES, Iommu, IommuParams
from ..hw.machine import Machine
from ..hw.params import ENZIAN_PCIE
from .grid import Grid, printed
from .report import fmt_ns, print_table

__all__ = ["GRID", "IommuTaxResult", "render_iommu_tax", "run_iommu_tax"]

MESSAGE_BYTES = 64
BUFFER_BASE = 0x8000_0000


@dataclass(frozen=True)
class IommuTaxResult:
    config: str
    rtt_ns: float
    iotlb_hit_rate: float


def _dma_rtt(
    iommu_enabled: bool,
    pool_pages: int,
    strict: bool,
    n: int = 256,
) -> tuple[float, float]:
    """Mean DMA round trip over ``n`` IOs cycling a ``pool_pages`` pool."""
    machine = Machine(ENZIAN_PCIE)
    link = machine.link
    if iommu_enabled:
        link.iommu = Iommu(machine.sim, IommuParams())
    nic = machine.params.nic
    core = machine.cores[0]
    samples: list[float] = []

    def run():
        for index in range(n):
            addr = BUFFER_BASE + (index % pool_pages) * PAGE_BYTES
            start = machine.sim.now
            yield from core.execute(60)          # descriptor write
            yield from link.mmio_write(core)     # doorbell
            yield machine.sim.timeout(link.posted_delay_ns())
            yield from link.dma_read(nic.descriptor_bytes, addr=addr)
            yield from link.dma_read(MESSAGE_BYTES, addr=addr)
            yield machine.sim.timeout(nic.descriptor_process_ns)
            yield from link.dma_write(MESSAGE_BYTES, addr=addr)
            yield from link.dma_write(nic.descriptor_bytes, addr=addr)
            yield from core.dram_access()        # completion poll
            if strict and link.iommu is not None:
                # Strict DMA API: unmap + IOTLB invalidate per IO, paid
                # by the driver on the CPU.
                link.iommu.invalidate(addr, MESSAGE_BYTES)
                yield from core.execute(600)
            samples.append(machine.sim.now - start)

    machine.sim.process(run())
    machine.run()
    # Skip the pool-cold first pass.
    steady = samples[pool_pages:] or samples
    rtt = sum(steady) / len(steady)
    hit_rate = link.iommu.stats.hit_rate if link.iommu else 1.0
    return rtt, hit_rate


def run_iommu_tax() -> list[IommuTaxResult]:
    configs = [
        ("trusted NIC (no IOMMU)",
         _dma_rtt(iommu_enabled=False, pool_pages=1024, strict=False)),
        ("IOMMU, IOTLB-resident pool (16 pages)",
         _dma_rtt(iommu_enabled=True, pool_pages=16, strict=False)),
        ("IOMMU, thrashing ring (1024 pages)",
         _dma_rtt(iommu_enabled=True, pool_pages=1024, strict=False)),
        ("IOMMU, thrashing + strict unmap",
         _dma_rtt(iommu_enabled=True, pool_pages=1024, strict=True)),
    ]
    return [
        IommuTaxResult(config=name, rtt_ns=rtt, iotlb_hit_rate=hit)
        for name, (rtt, hit) in configs
    ]


def render_iommu_tax(results: list[IommuTaxResult]) -> None:
    print_table(
        ["configuration", "64 B DMA RTT", "IOTLB hit rate"],
        [(r.config, fmt_ns(r.rtt_ns), f"{r.iotlb_hit_rate:.2f}")
         for r in results],
        title="Section 3 — the IOMMU tax on an untrusted NIC",
    )
    base = results[0].rtt_ns
    worst = results[-1].rtt_ns
    print(f"\nnot trusting the NIC costs up to "
          f"{(worst - base) / base * 100:.0f}% per small DMA here; "
          "the trusted, coherent Lauberhorn path pays none of it.")


GRID = Grid(
    name="e16", title="Section 3 — the IOMMU tax",
    points=(("main", "iommu_tax:run_iommu_tax", {}),),
    assemble=printed((IommuTaxResult, render_iommu_tax)),
)
