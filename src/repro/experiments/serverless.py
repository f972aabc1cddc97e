"""E17 — serverless consolidation: many cold functions, few cores.

The paper's motivating workload class: "data center microservices or
serverless function invocations" with "many more end-points than spare
cores".  This experiment replays a synthetic Zipf-popular, bursty
invocation trace over N functions onto a machine with a small set of
serving cores, comparing:

* **linux** — one blocking worker per function (threads are cheap to
  park, the per-invocation stack cost is not);
* **lauberhorn** — end-points per function, NIC-driven dispatchers
  with promotion: hot functions settle onto the fast path, cold ones
  pay one kernel dispatch.

Reported: invocation latency percentiles, serving-core CPU per
invocation, and (for Lauberhorn) the telemetry ring's cold-dispatch
fraction — how often the NIC had to fall back to the kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..nic.lauberhorn import EndpointKind
from ..os.nicsched import NicScheduler
from ..rpc.server import linux_udp_worker
from ..sim.clock import MS
from ..workloads.generator import Target
from ..workloads.trace_replay import TraceReplayer, generate_trace
from .grid import Grid, rendered
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, build_linux_testbed

__all__ = ["GRID", "ServerlessResult", "measure_serverless_stack",
           "render_serverless"]

HANDLER_COST = 2000  # a small function body
BASE_PORT = 9000
N_SERVING = 4
STACKS = ("linux", "lauberhorn")


@dataclass(frozen=True)
class ServerlessResult:
    stack: str
    n_functions: int
    invocations: int
    p50_ns: float
    p99_ns: float
    busy_ns_per_invocation: float
    kernel_dispatch_fraction: float


def _targets(bed, n_functions: int) -> list[Target]:
    targets = []
    for index in range(n_functions):
        service = bed.registry.create_service(
            f"fn{index}", udp_port=BASE_PORT + index
        )
        method = bed.registry.add_method(
            service, "invoke", lambda args: ["ok"],
            cost_instructions=HANDLER_COST,
        )
        targets.append(Target(service, method))
    return targets


def _replay(bed, targets, trace, n_serving: int):
    replayer = TraceReplayer(
        bed.clients[0], targets, bed.server_mac, bed.server_ip
    )
    busy_before = sum(
        bed.machine.cores[c].counters.busy_ns for c in range(n_serving)
    )
    done = bed.sim.process(replayer.run(trace, random.Random(0)))
    bed.machine.run(until=done)
    busy_after = sum(
        bed.machine.cores[c].counters.busy_ns for c in range(n_serving)
    )
    summary = replayer.recorder.summary()
    per_invocation = (busy_after - busy_before) / max(1, replayer.completed)
    return replayer, summary, per_invocation


def measure_serverless_stack(
    stack: str,
    n_functions: int = 24,
    n_serving: int = N_SERVING,
    duration_ms: float = 8.0,
    rate_per_sec: float = 30_000,
    seed: int = 0,
) -> ServerlessResult:
    """One point: replay the (seed-determined) trace against one stack."""
    trace = generate_trace(
        n_targets=n_functions,
        duration_ns=duration_ms * MS,
        mean_rate_per_sec=rate_per_sec,
        seed=seed,
    )
    if stack == "linux":
        bed = build_linux_testbed(n_queues=n_serving)
        targets = _targets(bed, n_functions)
        # Hand-rolled: many functions share n_serving cores round-robin.
        for index, target in enumerate(targets):
            socket = bed.netstack.bind(target.service.udp_port)
            process = bed.kernel.spawn_process(f"fn{index}")
            bed.kernel.spawn_thread(
                process, linux_udp_worker(socket, bed.registry),
                pinned_core=index % n_serving,
            )
        replayer, summary, per_invocation = _replay(
            bed, targets, trace, n_serving
        )
        return ServerlessResult(
            "linux", n_functions, replayer.completed, summary.p50,
            summary.p99, per_invocation, 1.0,
        )
    if stack == "lauberhorn":
        bed = build_lauberhorn_testbed()
        targets = _targets(bed, n_functions)
        for index, target in enumerate(targets):
            process = bed.kernel.spawn_process(f"fn{index}")
            bed.nic.register_service(target.service, process.pid)
            bed.nic.create_endpoint(EndpointKind.USER, service=target.service)
        NicScheduler(
            bed.kernel, bed.nic, bed.registry,
            n_dispatchers=n_serving, promote=True,
            dispatcher_cores=list(range(n_serving)),
        )
        replayer, summary, per_invocation = _replay(
            bed, targets, trace, n_serving
        )
        return ServerlessResult(
            "lauberhorn", n_functions, replayer.completed, summary.p50,
            summary.p99, per_invocation,
            bed.nic.telemetry.kernel_dispatch_fraction(),
        )
    raise ValueError(f"unknown stack {stack!r}")


def render_serverless(results: list[ServerlessResult]) -> None:
    n_functions = results[0].n_functions if results else 0
    print_table(
        ["stack", "functions", "invocations", "p50", "p99",
         "busy/invoke", "cold-dispatch frac"],
        [
            (r.stack, r.n_functions, r.invocations, fmt_ns(r.p50_ns),
             fmt_ns(r.p99_ns), fmt_ns(r.busy_ns_per_invocation),
             f"{r.kernel_dispatch_fraction:.2f}")
            for r in results
        ],
        title=f"Serverless consolidation — {n_functions} functions, "
              f"{N_SERVING} serving cores, Zipf+bursty trace",
    )


GRID = Grid(
    name="e17", title="Serverless consolidation trace",
    points=tuple(
        (stack, "serverless:measure_serverless_stack", {"stack": stack})
        for stack in STACKS
    ),
    assemble=rendered(ServerlessResult, render_serverless),
    seeded=True,
)
