"""The full design space of Section 2, side by side.

Four server architectures for the same echo workload:

* **linux**      — DMA NIC, interrupts, softirq, sockets (Figure 1);
* **snap**       — dedicated engine core + schedulable workers over
  shared-memory channels (Snap, SOSP'19);
* **bypass**     — pinned PMD worker on a user-polled ring
  (DPDK/Arrakis/IX);
* **lauberhorn** — the paper's OS-integrated coherent NIC.

This is the quantitative version of the paper's Section 2 survey: each
point trades flexibility against data-path cost, and Lauberhorn sits
below all of them on both latency and host cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.cycles import CycleWindow
from ..metrics.histogram import LatencyRecorder
from ..sim.clock import MS
from .grid import Grid, rendered
from .report import fmt_ns, print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "StackResult", "STACKS", "measure_stack",
           "render_four_stacks"]

HANDLER_COST = 500


@dataclass(frozen=True)
class StackResult:
    stack: str
    p50_rtt_ns: float
    p99_rtt_ns: float
    busy_ns_per_request: float


def _measure(bed, service, method, n_requests: int) -> StackResult:
    client = bed.clients[0]
    recorder = LatencyRecorder()
    window = CycleWindow(bed.machine)
    state = {}

    def driver():
        yield bed.sim.timeout(10_000)
        yield from client.call(args=[0], **bed.call_args(service, method))
        window.begin()
        events = [
            client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            for i in range(n_requests)
        ]
        for event in events:
            result = yield event
            recorder.record(result.rtt_ns)
        state["cost"] = window.end(n_requests)

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    summary = recorder.summary()
    return summary, state["cost"]


def _build_stack(stack: str):
    """A fresh echo testbed for one of the four architectures."""
    if stack == "linux":
        bed = build_linux_testbed()
    elif stack in ("snap", "bypass"):
        bed = build_bypass_testbed()
    elif stack == "lauberhorn":
        bed = build_lauberhorn_testbed()
    else:
        raise ValueError(f"unknown stack {stack!r}")
    service, method = deploy_service(bed, stack,
                                     cost_instructions=HANDLER_COST)
    return bed, service, method


STACKS = ("linux", "snap", "bypass", "lauberhorn")


def measure_stack(stack: str, n_requests: int = 25) -> StackResult:
    """One design-space point: one architecture, the same echo workload."""
    bed, service, method = _build_stack(stack)
    summary, cost = _measure(bed, service, method, n_requests)
    return StackResult(stack, summary.p50, summary.p99,
                       cost.busy_ns_per_request)


def render_four_stacks(results: list[StackResult]) -> None:
    print_table(
        ["stack", "p50 RTT", "p99 RTT", "busy/req"],
        [(r.stack, fmt_ns(r.p50_rtt_ns), fmt_ns(r.p99_rtt_ns),
          fmt_ns(r.busy_ns_per_request)) for r in results],
        title="Section 2's design space — four stacks, one workload",
    )


GRID = Grid(
    name="e11", title="Section 2 design space — four stacks",
    points=tuple(
        (stack, "four_stacks:measure_stack", {"stack": stack})
        for stack in STACKS
    ),
    assemble=rendered(StackResult, render_four_stacks),
)
