"""E18 — sensitivity: how fast must the coherent interconnect be?

The paper's bet is that coherent-interconnect round trips are (and will
stay) fast enough to beat descriptor DMA.  This experiment stresses the
bet: sweep the coherent link's one-way latency from CXL-class (125 ns)
through ECI-class (350 ns) to pessimistic (1.4 µs), measuring the
Lauberhorn hot-path RPC RTT at each point against a fixed PCIe bypass
baseline on the same machine class, and reports the **break-even**
one-way latency — the headroom behind "even the (comparatively slow)
ECI" winning.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..hw.params import ENZIAN, ENZIAN_PCIE
from ..sim.clock import MS
from .grid import Grid
from .report import fmt_ns, print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    deploy_service,
)

__all__ = ["GRID", "SensitivityPoint", "lauberhorn_rtt_at",
           "bypass_baseline_rtt", "assemble_sensitivity",
           "render_sensitivity"]

HANDLER_COST = 500
#: coherent-link one-way latencies swept, in ns
ONE_WAY_SWEEP = (125, 250, 350, 500, 700, 1000, 1400)


@dataclass(frozen=True)
class SensitivityPoint:
    one_way_ns: float
    lauberhorn_rtt_ns: float
    bypass_rtt_ns: float

    @property
    def lauberhorn_wins(self) -> bool:
        return self.lauberhorn_rtt_ns < self.bypass_rtt_ns


def _machine_with_link_latency(one_way_ns: float):
    interconnect = dataclasses.replace(
        ENZIAN.interconnect,
        one_way_ns=one_way_ns,
        mmio_read_ns=2 * one_way_ns,
        mmio_write_ns=one_way_ns,
    )
    return dataclasses.replace(ENZIAN, interconnect=interconnect)


def lauberhorn_rtt_at(one_way_ns: float, n: int = 8) -> float:
    """One sweep point: Lauberhorn RTT with the link at ``one_way_ns``."""
    bed = build_lauberhorn_testbed(params=_machine_with_link_latency(one_way_ns))
    return _measure(bed, "lauberhorn", n)


def bypass_baseline_rtt(n: int = 8) -> float:
    """The fixed PCIe-bypass baseline every sweep point compares against."""
    return _measure(build_bypass_testbed(params=ENZIAN_PCIE), "bypass", n)


def _measure(bed, stack: str, n: int) -> float:
    """Deploy the small-RPC service on ``bed``; mean steady RTT."""
    service, method = deploy_service(bed, stack, lambda a: [1],
                                     cost_instructions=HANDLER_COST)
    client = bed.clients[0]
    rtts: list[float] = []

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n + 1):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            rtts.append(result.rtt_ns)

    bed.sim.process(driver())
    bed.machine.run(until=500 * MS)
    steady = rtts[1:]
    return sum(steady) / len(steady)


def assemble_sensitivity(
    one_way_sweep, lauberhorn_rtts, bypass_rtt,
) -> tuple[list[SensitivityPoint], Optional[float]]:
    """Combine per-point RTTs into the sweep result + break-even point."""
    points = [
        SensitivityPoint(
            one_way_ns=float(one_way),
            lauberhorn_rtt_ns=rtt,
            bypass_rtt_ns=bypass_rtt,
        )
        for one_way, rtt in zip(one_way_sweep, lauberhorn_rtts)
    ]
    break_even = next(
        (p.one_way_ns for p in points if not p.lauberhorn_wins), None
    )
    return points, break_even


def render_sensitivity(
    points: list[SensitivityPoint], break_even: Optional[float]
) -> None:
    print_table(
        ["coherent one-way", "lauberhorn RTT", "bypass/PCIe RTT", "winner"],
        [
            (fmt_ns(p.one_way_ns), fmt_ns(p.lauberhorn_rtt_ns),
             fmt_ns(p.bypass_rtt_ns),
             "lauberhorn" if p.lauberhorn_wins else "bypass")
            for p in points
        ],
        title="Sensitivity — coherent-link latency vs the PCIe bypass "
              "baseline (small RPC)",
    )
    if break_even is None:
        print("\nLauberhorn wins across the whole sweep "
              f"(up to {fmt_ns(points[-1].one_way_ns)} one-way).")
    else:
        print(f"\nbreak-even one-way latency ≈ {fmt_ns(break_even)} "
              "(ECI is 350 ns; CXL 3.0 ~125 ns — ample headroom).")


def _assemble(values: list, smoke: bool):
    points, break_even = assemble_sensitivity(
        ONE_WAY_SWEEP, values[1:], values[0]
    )
    render_sensitivity(points, break_even)
    return points, break_even


GRID = Grid(
    name="e18", title="Sensitivity — coherent-link latency",
    points=(("bypass", "sensitivity:bypass_baseline_rtt", {}),) + tuple(
        (f"lauberhorn@{one_way}", "sensitivity:lauberhorn_rtt_at",
         {"one_way_ns": float(one_way)})
        for one_way in ONE_WAY_SWEEP
    ),
    assemble=_assemble,
)
