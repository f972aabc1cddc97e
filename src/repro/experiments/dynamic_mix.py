"""E4 — the headline trade-off: static vs dynamic workloads.

Sections 1/4: kernel bypass wins on "relatively static" workloads by
pinning processes to cores and queues, but "when the workload is
dynamic with many more end-points than spare cores, the up-front cost
of mapping the NIC's demultiplexing to queues onto the scheduling of
applications on cores quickly becomes cumbersome".  Lauberhorn claims
*both*: bypass-beating latency when stable, kernel-like adaptation when
not.

Setup: ``n_serving`` cores are available for RPC work; ``n_services``
services exist; every ``rotation_ns`` a fresh hot set of
``min(n_serving, n_services)`` services receives all the traffic
(open-loop Poisson).  Three stacks serve it:

* **linux** — one blocking worker per service, workers pinned
  round-robin over the serving cores;
* **bypass** — one queue per service, ``n_serving`` pinned PMD workers
  each sweeping ``n_services / n_serving`` queues;
* **lauberhorn** — one user end-point per service (no dedicated
  threads), ``n_serving`` kernel dispatchers with promotion and
  NIC-initiated preemption.

Reported per (stack, n_services): p50/p99 latency, completed count, and
serving-core CPU busy per request (the energy proxy).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nic.lauberhorn import EndpointKind
from ..os.nicsched import NicScheduler
from ..rpc.server import bypass_worker, linux_udp_worker
from ..sim.clock import MS
from ..workloads.generator import OpenLoopGenerator, ServiceMix, Target
from ..workloads.traces import HotSetSchedule
from .grid import Grid, rendered
from .report import fmt_ns, print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
)

__all__ = ["GRID", "MixResult", "measure_mix_point", "render_dynamic_mix"]

HANDLER_COST = 1000
BASE_PORT = 9000
SERVICE_COUNTS = (2, 8, 32)
MIX_STACKS = ("linux", "bypass", "lauberhorn")


@dataclass(frozen=True)
class MixResult:
    stack: str
    n_services: int
    completed: int
    p50_ns: float
    p99_ns: float
    busy_ns_per_request: float


def _make_services(bed, n_services: int):
    targets = []
    for index in range(n_services):
        service = bed.registry.create_service(
            f"svc{index}", udp_port=BASE_PORT + index
        )
        method = bed.registry.add_method(
            service, "work", lambda args: [args[0]],
            cost_instructions=HANDLER_COST,
        )
        targets.append(Target(service=service, method=method,
                              make_args=lambda rng: [1]))
    return targets


def _run_load(bed, targets, n_serving: int, rate_per_sec: float,
              n_requests: int, rotation_ns: float, seed: int):
    """Drive the rotating-hot-set load; returns (recorder, busy/req)."""
    mix = ServiceMix([t for t in targets])
    schedule = HotSetSchedule(
        n_services=len(targets),
        hot_count=min(n_serving, len(targets)),
        period_ns=rotation_ns,
        seed=seed,
    )
    mix.set_hot_set(schedule.hot_set_at(0))

    def rotator():
        while True:
            yield bed.sim.timeout(rotation_ns)
            mix.set_hot_set(schedule.hot_set_at(bed.sim.now))

    bed.sim.process(rotator())
    generator = OpenLoopGenerator(
        bed.clients[0], mix, bed.server_mac, bed.server_ip,
        rng=bed.machine.rng.stream("dynamic-mix"),
    )
    busy_before = sum(
        bed.machine.cores[c].counters.busy_ns for c in range(n_serving)
    )
    done = bed.sim.process(
        generator.run(rate_per_sec=rate_per_sec, n_requests=n_requests)
    )
    bed.machine.run(until=done)
    busy_after = sum(
        bed.machine.cores[c].counters.busy_ns for c in range(n_serving)
    )
    per_request = (busy_after - busy_before) / max(1, generator.completed)
    return generator, per_request


def _build_stack(stack: str, n_services: int, n_serving: int):
    """A fresh testbed + service targets for one (stack, n_services)."""
    if stack == "linux":
        bed = build_linux_testbed(n_queues=n_serving)
        targets = _make_services(bed, n_services)
        # Hand-rolled: many services share n_serving cores round-robin.
        for index, target in enumerate(targets):
            socket = bed.netstack.bind(target.service.udp_port)
            process = bed.kernel.spawn_process(f"svc{index}")
            bed.kernel.spawn_thread(
                process,
                linux_udp_worker(socket, bed.registry),
                pinned_core=index % n_serving,
            )
        return bed, targets
    if stack == "bypass":
        bed = build_bypass_testbed(n_queues=n_services)
        targets = _make_services(bed, n_services)
        for index, target in enumerate(targets):
            bed.nic.steer_port(target.service.udp_port, index)
        # Hand-rolled: each PMD worker polls several services' queues.
        process = bed.kernel.spawn_process("pmd")
        for worker in range(n_serving):
            queues = [bed.nic.queues[q] for q in
                      range(worker, n_services, n_serving)]
            if not queues:
                continue
            bed.kernel.spawn_thread(
                process,
                bypass_worker(bed.nic, queues, bed.user_netctx, bed.registry),
                pinned_core=worker,
            )
        return bed, targets
    if stack == "lauberhorn":
        bed = build_lauberhorn_testbed()
        targets = _make_services(bed, n_services)
        for index, target in enumerate(targets):
            process = bed.kernel.spawn_process(f"svc{index}")
            bed.nic.register_service(target.service, process.pid)
            bed.nic.create_endpoint(EndpointKind.USER, service=target.service)
        NicScheduler(
            bed.kernel, bed.nic, bed.registry,
            n_dispatchers=n_serving, promote=True,
            dispatcher_cores=list(range(n_serving)),
        )
        return bed, targets
    raise ValueError(f"unknown stack {stack!r}")


def measure_mix_point(
    stack: str,
    n_services: int,
    n_serving: int = 4,
    rate_per_sec: float = 50_000,
    n_requests: int = 300,
    rotation_ns: float = 2 * MS,
    seed: int = 0,
) -> MixResult:
    """One sweep point: one stack serving one service count."""
    bed, targets = _build_stack(stack, n_services, n_serving)
    generator, busy = _run_load(
        bed, targets, n_serving, rate_per_sec, n_requests, rotation_ns, seed
    )
    summary = generator.recorder.summary()
    return MixResult(stack, n_services, generator.completed,
                     summary.p50, summary.p99, busy)


def render_dynamic_mix(
    results: list[MixResult],
    n_serving: int = 4,
    rate_per_sec: float = 50_000,
) -> None:
    print_table(
        ["stack", "services", "completed", "p50", "p99", "busy/req"],
        [
            (r.stack, r.n_services, r.completed, fmt_ns(r.p50_ns),
             fmt_ns(r.p99_ns), fmt_ns(r.busy_ns_per_request))
            for r in results
        ],
        title="Dynamic workloads — rotating hot set over "
              f"{n_serving} serving cores (open loop, "
              f"{rate_per_sec:.0f}/s)",
    )


GRID = Grid(
    name="e4", title="Dynamic workload mix",
    points=tuple(
        (f"{stack}@{count}", "dynamic_mix:measure_mix_point",
         {"stack": stack, "n_services": count})
        for count in SERVICE_COUNTS
        for stack in MIX_STACKS
    ),
    assemble=rendered(MixResult, render_dynamic_mix),
    seeded=True,
)
