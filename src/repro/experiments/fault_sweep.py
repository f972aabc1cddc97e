"""E19 — graceful degradation of the four stacks under injected faults.

The paper's argument is an *operating system* argument: the NIC must
keep behaving like OS infrastructure when the world misbehaves.  This
experiment drives the Section 2 design-space workload (the same echo
service as E11) through the deterministic fault injectors — wire loss,
bit corruption, reordering, duplication, RX-pipeline stalls, DMA
spikes, core hiccups, coherence jitter — at a sweep of loss/stall
rates, with the full runtime-invariant layer armed.

For every point we report how many of the offered requests completed,
the retransmissions the clients needed, tail latency, how many faults
actually fired, and — the headline — that **zero invariants were
violated**: packets are conserved, MESI stays legal, no thread is
lost, and every Lauberhorn CONTROL fill is answered exactly once,
fault schedule or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check import install_checks
from ..faults import FaultPlan, active
from ..metrics.histogram import LatencyRecorder
from ..sim.clock import MS
from .four_stacks import STACKS, _build_stack
from .grid import Grid, rendered
from .report import fmt_ns, print_table

__all__ = ["GRID", "FaultPoint", "FAULT_POINTS", "measure_fault_point",
           "render_fault_sweep"]

#: (label, loss_rate per link-frame, RX ring stall rate per frame).
#: Every point also carries the :meth:`FaultPlan.default` background
#: rates (corruption, reordering, duplication, DMA spikes, core
#: hiccups, coherence jitter).
FAULT_POINTS = (
    ("calm", 0.0, 0.0),
    ("lossy", 0.02, 0.0),
    ("stalling", 0.0, 0.02),
    ("storm", 0.02, 0.02),
)

N_REQUESTS = 100
GAP_NS = 150_000.0
HORIZON_NS = 60 * MS


@dataclass(frozen=True)
class FaultPoint:
    """One (stack, fault mix) measurement."""

    stack: str
    label: str
    loss_rate: float
    stall_rate: float
    offered: int
    completed: int
    retries: int
    p50_rtt_ns: float
    p99_rtt_ns: float
    injected_faults: int
    violations: int
    violation_details: list = field(default_factory=list)


def measure_fault_point(
    stack: str,
    label: str = "custom",
    loss_rate: float = 0.0,
    stall_rate: float = 0.0,
    seed: int = 0,
    n_requests: int = N_REQUESTS,
) -> FaultPoint:
    """Run one stack under one fault mix with all invariants armed."""
    plan = FaultPlan.from_spec(
        f"default,seed={seed},loss={loss_rate},stall={stall_rate}"
    )
    with active(plan):
        bed, service, method = _build_stack(stack)
    registry = install_checks(bed)
    registry.start(HORIZON_NS)

    client = bed.clients[0]
    recorder = LatencyRecorder()
    completed = [0]

    def collect(event):
        completed[0] += 1
        recorder.record(event._value.rtt_ns)

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n_requests):
            event = client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            event.add_callback(collect)
            yield bed.sim.timeout(GAP_NS)

    bed.sim.process(driver())
    bed.machine.run(until=HORIZON_NS)
    violations = registry.finish()

    summary = recorder.summary()
    stats = bed.machine.fault_stats
    return FaultPoint(
        stack=stack,
        label=label,
        loss_rate=loss_rate,
        stall_rate=stall_rate,
        offered=n_requests,
        completed=completed[0],
        retries=client.retries,
        p50_rtt_ns=summary.p50,
        p99_rtt_ns=summary.p99,
        injected_faults=stats.total() if stats is not None else 0,
        violations=len(violations),
        violation_details=[str(v) for v in violations],
    )


def render_fault_sweep(results: list[FaultPoint]) -> None:
    print_table(
        ["stack", "faults", "done", "retries", "p50 RTT", "p99 RTT",
         "injected", "violations"],
        [(r.stack, r.label, f"{r.completed}/{r.offered}", str(r.retries),
          fmt_ns(r.p50_rtt_ns), fmt_ns(r.p99_rtt_ns),
          str(r.injected_faults), str(r.violations)) for r in results],
        title="E19 — fault sweep with runtime invariants armed",
    )
    bad = [r for r in results if r.violations]
    if bad:
        print()
        for r in bad:
            for detail in r.violation_details:
                print(f"  !! {r.stack}/{r.label}: {detail}")


GRID = Grid(
    name="e19", title="Fault sweep — invariants under injected faults",
    points=tuple(
        (f"{stack}@{label}", "fault_sweep:measure_fault_point",
         {"stack": stack, "label": label, "loss_rate": loss,
          "stall_rate": stall})
        for stack in STACKS
        for (label, loss, stall) in FAULT_POINTS
    ),
    assemble=rendered(FaultPoint, render_fault_sweep),
    seeded=True,
)
