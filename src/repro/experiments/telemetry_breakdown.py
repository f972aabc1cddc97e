"""Telemetry: the NIC-observed per-RPC latency breakdown (Section 6).

Drives a mix of hot (armed user loop) and cold (kernel-dispatched)
traffic and prints the queueing / service / egress percentile breakdown
that the Lauberhorn telemetry ring produces with zero software on the
data path — the "tracing, debugging, and statistics" integration the
paper flags as a benefit of making the NIC part of the OS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..os.nicsched import NicScheduler
from ..sim.clock import MS
from .grid import Grid
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, deploy_service

__all__ = ["GRID", "StageLatency", "TelemetryBreakdown",
           "render_telemetry_breakdown", "run_telemetry_breakdown"]


@dataclass(frozen=True)
class StageLatency:
    """One pipeline stage's percentiles, in ns."""

    p50_ns: float
    p99_ns: float


@dataclass(frozen=True)
class TelemetryBreakdown:
    """What the NIC's telemetry ring reports after the run."""

    #: service name -> pipeline stage -> percentiles
    services: dict[str, dict[str, StageLatency]]
    kernel_dispatch_fraction: float
    #: timelines the ring holds (one per answered RPC)
    completed: int


def run_telemetry_breakdown(n_requests: int = 20) -> TelemetryBreakdown:
    bed = build_lauberhorn_testbed()

    hot, hot_m = deploy_service(bed, "lauberhorn", name="hot")

    # Hand-rolled: deploy_service arms a dedicated loop, and the cold
    # service must wait for a kernel dispatcher instead.
    cold = bed.registry.create_service("cold", udp_port=9001)
    cold_m = bed.registry.add_method(cold, "m", lambda a: list(a),
                                     cost_instructions=500)
    cold_proc = bed.kernel.spawn_process("cold")
    bed.nic.register_service(cold, cold_proc.pid)
    NicScheduler(bed.kernel, bed.nic, bed.registry, n_dispatchers=1,
                 promote=False)

    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n_requests):
            service, method = (hot, hot_m) if i % 2 == 0 else (cold, cold_m)
            yield from client.call(args=[i], **bed.call_args(service, method))

    bed.sim.process(driver())
    bed.machine.run(until=1000 * MS)

    telemetry = bed.nic.telemetry
    return TelemetryBreakdown(
        services={
            service.name: {
                stage: StageLatency(summary.p50, summary.p99)
                for stage, summary in
                telemetry.breakdown(service.service_id).items()
            }
            for service in (hot, cold)
        },
        kernel_dispatch_fraction=telemetry.kernel_dispatch_fraction(),
        completed=len(telemetry.completed),
    )


def render_telemetry_breakdown(result: TelemetryBreakdown) -> None:
    for name, stages in result.services.items():
        print_table(
            ["stage", "p50", "p99"],
            [(stage, fmt_ns(latency.p50_ns), fmt_ns(latency.p99_ns))
             for stage, latency in stages.items()],
            title=f"NIC telemetry — service {name!r}",
        )
    print(f"\nkernel-dispatch fraction: "
          f"{result.kernel_dispatch_fraction:.2f}")


def _assemble(values: list, smoke: bool) -> TelemetryBreakdown:
    value = values[0]
    result = TelemetryBreakdown(
        services={
            name: {stage: StageLatency(**latency)
                   for stage, latency in stages.items()}
            for name, stages in value["services"].items()
        },
        kernel_dispatch_fraction=value["kernel_dispatch_fraction"],
        completed=value["completed"],
    )
    render_telemetry_breakdown(result)
    return result


GRID = Grid(
    name="e13", title="Section 6 — NIC telemetry breakdown",
    points=(("main", "telemetry_breakdown:run_telemetry_breakdown", {}),),
    assemble=_assemble,
)
