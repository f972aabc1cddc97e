"""E3 — Figure 5: normal task scheduling vs NIC-driven scheduling.

Figure 5 contrasts the Linux dispatch loop (NIC -> IRQ -> softirq ->
socket -> scheduler -> worker) with Lauberhorn's NIC-driven dispatch,
in three regimes:

* **linux**        — the conventional loop;
* **lauberhorn-hot**  — the process's user-mode loop is stalled on its
  CONTROL lines (Figure 5 ①): zero-software dispatch;
* **lauberhorn-kernel** — no user loop armed; a parked kernel thread
  takes the request, context-switches into the process, and completes
  it in software (Figure 5 ③, promotion off);
* **lauberhorn-promote** — as above, but the dispatcher then stays in
  the process running its user loop, so request 2..n ride the fast
  path (Figure 5 ① after ③).

Reported per configuration: client-observed RTT percentiles and server
CPU busy per request.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.cycles import CycleWindow
from ..metrics.histogram import LatencyRecorder
from ..nic.lauberhorn import EndpointKind
from ..os.nicsched import NicScheduler
from ..sim.clock import MS
from .grid import Grid, printed
from .report import fmt_ns, print_table
from .testbed import (
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "DispatchResult", "render_fig5_dispatch",
           "run_fig5_dispatch"]

HANDLER_COST = 300
N_REQUESTS = 25


@dataclass(frozen=True)
class DispatchResult:
    config: str
    p50_rtt_ns: float
    p99_rtt_ns: float
    busy_ns_per_request: float
    kernel_dispatches: int
    fast_dispatches: int


def _kernel_dispatched(promote: bool):
    """Echo served by NicScheduler's parked dispatcher (hand-rolled:
    ``deploy_service`` arms a dedicated loop instead)."""
    bed = build_lauberhorn_testbed()
    service = bed.registry.create_service("echo", udp_port=9000)
    method = bed.registry.add_method(
        service, "echo", lambda args: list(args), cost_instructions=HANDLER_COST
    )
    process = bed.kernel.spawn_process("echo")
    bed.nic.register_service(service, process.pid)
    if promote:
        bed.nic.create_endpoint(EndpointKind.USER, service=service)
    NicScheduler(bed.kernel, bed.nic, bed.registry, n_dispatchers=1,
                 promote=promote)
    return bed, service, method


def _measure(bed, service, method, n_requests: int):
    client = bed.clients[0]
    recorder = LatencyRecorder()
    window = CycleWindow(bed.machine)
    state = {}

    def driver():
        yield bed.sim.timeout(10_000)
        # one warmup round trip
        yield from client.call(args=[0], **bed.call_args(service, method))
        window.begin()
        for i in range(n_requests):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            recorder.record(result.rtt_ns)
        state["cost"] = window.end(n_requests)

    bed.sim.process(driver())
    bed.machine.run(until=4000 * MS)
    summary = recorder.summary()
    return summary, state["cost"]


def run_fig5_dispatch(n_requests: int = N_REQUESTS):
    results: list[DispatchResult] = []

    # Linux dispatch loop.
    bed = build_linux_testbed()
    service, method = deploy_service(bed, "linux",
                                     cost_instructions=HANDLER_COST)
    summary, cost = _measure(bed, service, method, n_requests)
    results.append(DispatchResult(
        "linux", summary.p50, summary.p99, cost.busy_ns_per_request, 0, 0,
    ))

    for config in ("lauberhorn-hot", "lauberhorn-kernel",
                   "lauberhorn-promote"):
        if config == "lauberhorn-hot":
            # Dedicated user loop armed.
            bed = build_lauberhorn_testbed()
            service, method = deploy_service(bed, "lauberhorn",
                                             cost_instructions=HANDLER_COST)
        else:
            bed, service, method = _kernel_dispatched(
                promote=config == "lauberhorn-promote")
        summary, cost = _measure(bed, service, method, n_requests)
        results.append(DispatchResult(
            config, summary.p50, summary.p99, cost.busy_ns_per_request,
            bed.nic.lstats.delivered_kernel, bed.nic.lstats.delivered_fast,
        ))

    return results


def render_fig5_dispatch(results: list[DispatchResult]) -> None:
    print_table(
        ["configuration", "p50 RTT", "p99 RTT", "busy/req",
         "kernel-dispatched", "fast-dispatched"],
        [
            (r.config, fmt_ns(r.p50_rtt_ns), fmt_ns(r.p99_rtt_ns),
             fmt_ns(r.busy_ns_per_request), r.kernel_dispatches,
             r.fast_dispatches)
            for r in results
        ],
        title="Figure 5 — dispatch-loop comparison "
              f"(echo RPC, {N_REQUESTS} requests)",
    )


GRID = Grid(
    name="e3", title="Figure 5 — dispatch comparison",
    points=(("main", "fig5_dispatch:run_fig5_dispatch", {}),),
    assemble=printed((DispatchResult, render_fig5_dispatch)),
)
