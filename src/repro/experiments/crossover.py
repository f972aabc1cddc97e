"""E5 — Section 6: the line-transfer vs DMA crossover (~4 KiB).

"For large messages, the direct, low-latency approach becomes less
efficient and it is best to revert back to DMA-based transfers since
throughput comes to dominate over latency.  The trade-off will depend
on the platform, empirically for Enzian this happens at about 4KiB."

We sweep request payload size and measure client-observed RTT twice:
once forcing cache-line delivery (threshold = infinity) and once
forcing DMA fallback (threshold = 0).  The handler returns a tiny ack
so the receive direction dominates.  The reported crossover is the
smallest size at which DMA wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..hw.params import ENZIAN, MachineParams
from ..sim.clock import MS
from ..workloads.distributions import args_for_payload
from .grid import Grid
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, deploy_service

__all__ = ["GRID", "CrossoverPoint", "assemble_crossover", "render_crossover",
           "measure_rtt_for_size"]

DEFAULT_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 6144, 8192, 16384)


@dataclass(frozen=True)
class CrossoverPoint:
    payload_bytes: int
    line_rtt_ns: float
    dma_rtt_ns: float

    @property
    def dma_wins(self) -> bool:
        return self.dma_rtt_ns < self.line_rtt_ns


def measure_rtt_for_size(
    payload_bytes: int,
    force_dma: bool,
    params: MachineParams = ENZIAN,
    n: int = 5,
) -> float:
    """Mean steady RTT for one payload size under one delivery mode."""
    # AUX capacity must cover the largest line-delivered payload.
    line = params.interconnect.line_bytes
    n_aux = min(255, -(-payload_bytes // line) + 2)
    bed = build_lauberhorn_testbed(
        params=params,
        n_aux=n_aux,
        dma_threshold_bytes=(0 if force_dma else 1 << 30),
    )
    # Only the *request* direction is being forced; tiny acks must not
    # take the response DMA staging path.
    bed.nic.response_dma_threshold_bytes = 1 << 30
    service, method = deploy_service(bed, "lauberhorn", lambda args: ["ok"],
                                     name="sink", cost_instructions=100)
    client = bed.clients[0]
    args = args_for_payload(payload_bytes)
    rtts: list[float] = []

    def driver():
        yield bed.sim.timeout(10_000)
        for _ in range(n + 1):
            result = yield from client.call(
                args=args, **bed.call_args(service, method)
            )
            rtts.append(result.rtt_ns)

    bed.sim.process(driver())
    bed.machine.run(until=4000 * MS)
    steady = rtts[1:]
    return sum(steady) / len(steady)


def assemble_crossover(
    sizes, line_rtts, dma_rtts,
) -> tuple[list[CrossoverPoint], Optional[int]]:
    """Combine per-(size, mode) RTTs into the sweep result."""
    points = [
        CrossoverPoint(payload_bytes=size, line_rtt_ns=line, dma_rtt_ns=dma)
        for size, line, dma in zip(sizes, line_rtts, dma_rtts)
    ]
    crossover = next((p.payload_bytes for p in points if p.dma_wins), None)
    return points, crossover


def render_crossover(
    points: list[CrossoverPoint], crossover: Optional[int]
) -> None:
    sizes = [p.payload_bytes for p in points]
    print_table(
        ["payload", "line path RTT", "DMA path RTT", "winner"],
        [
            (f"{p.payload_bytes} B", fmt_ns(p.line_rtt_ns),
             fmt_ns(p.dma_rtt_ns), "DMA" if p.dma_wins else "lines")
            for p in points
        ],
        title=f"Section 6 — delivery-mechanism crossover on {ENZIAN.name}",
    )
    print(f"\ncrossover: DMA first wins at "
          f"{crossover if crossover else '>' + str(sizes[-1])} B "
          f"(paper: ~4 KiB on Enzian)")


def _assemble(values: list, smoke: bool):
    points, crossover = assemble_crossover(
        DEFAULT_SIZES, values[0::2], values[1::2]
    )
    render_crossover(points, crossover)
    return points, crossover


GRID = Grid(
    name="e5", title="Section 6 — DMA crossover",
    points=tuple(
        (f"{mode}@{size}", "crossover:measure_rtt_for_size",
         {"payload_bytes": size, "force_dma": force_dma})
        for size in DEFAULT_SIZES
        for mode, force_dma in (("line", False), ("dma", True))
    ),
    assemble=_assemble,
)
