"""E14 — peak throughput: requests/second per serving core.

The paper's efficiency claim has a throughput corollary: if dispatch
costs ~zero software, one core's request rate is bounded by the handler
plus the protocol's line round trips, not by a software stack.  This
experiment saturates each stack closed-loop and reports

* single-core peak throughput per stack, and
* Lauberhorn's scaling across 1/2/4 end-points on 1/2/4 cores
  (one armed user loop each — the paper's "hot services <= cores"
  regime).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import SEC
from ..workloads.generator import ClosedLoopGenerator, ServiceMix, Target
from .grid import Grid, printed
from .report import print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "ThroughputResult", "render_lauberhorn_scaling",
           "render_throughput", "run_throughput", "run_lauberhorn_scaling"]

HANDLER_COST = 500
CONCURRENCY = 32


@dataclass(frozen=True)
class ThroughputResult:
    config: str
    n_cores: int
    completed: int
    duration_ns: float

    @property
    def requests_per_sec(self) -> float:
        return self.completed / (self.duration_ns / SEC)

    @property
    def requests_per_sec_per_core(self) -> float:
        return self.requests_per_sec / self.n_cores


def _drive_closed_loop(bed, targets, concurrency: int, n_requests: int):
    generator = ClosedLoopGenerator(
        bed.clients[0],
        ServiceMix(targets),
        bed.server_mac,
        bed.server_ip,
        rng=bed.machine.rng.stream("throughput"),
    )
    start = bed.sim.now
    done = bed.sim.process(generator.run(concurrency, n_requests))
    bed.machine.run(until=done)
    return generator.completed, bed.sim.now - start


def run_throughput(concurrency: int = CONCURRENCY,
                   n_requests: int = 300) -> list[ThroughputResult]:
    results: list[ThroughputResult] = []

    # One worker on core 0 each: a Linux socket worker, a bypass PMD
    # worker, a Lauberhorn user loop.
    for stack, build in (("linux", build_linux_testbed),
                         ("bypass", build_bypass_testbed),
                         ("lauberhorn", build_lauberhorn_testbed)):
        bed = build()
        service, method = deploy_service(bed, stack, lambda a: [1],
                                         cost_instructions=HANDLER_COST,
                                         core=0)
        completed, duration = _drive_closed_loop(
            bed, [Target(service, method)], concurrency, n_requests
        )
        results.append(ThroughputResult(stack, 1, completed, duration))
    return results


def render_throughput(results: list[ThroughputResult]) -> None:
    print_table(
        ["stack", "cores", "requests", "kreq/s/core"],
        [(r.config, r.n_cores, r.completed,
          f"{r.requests_per_sec_per_core / 1e3:.0f}")
         for r in results],
        title=f"Peak closed-loop throughput (concurrency {CONCURRENCY})",
    )


def run_lauberhorn_scaling(core_counts=(1, 2, 4), concurrency: int = 48,
                           n_requests: int = 400):
    """One service per core, each with its own armed end-point."""
    results: list[ThroughputResult] = []
    for n_cores in core_counts:
        bed = build_lauberhorn_testbed()
        targets = []
        for index in range(n_cores):
            service, method = deploy_service(
                bed, "lauberhorn", lambda a: [1], name=f"s{index}",
                udp_port=9000 + index, cost_instructions=HANDLER_COST,
                core=index)
            targets.append(Target(service, method))
        completed, duration = _drive_closed_loop(
            bed, targets, concurrency, n_requests
        )
        results.append(ThroughputResult(
            f"lauberhorn x{n_cores}", n_cores, completed, duration
        ))
    return results


def render_lauberhorn_scaling(results: list[ThroughputResult]) -> None:
    print_table(
        ["config", "cores", "kreq/s", "kreq/s/core"],
        [(r.config, r.n_cores, f"{r.requests_per_sec / 1e3:.0f}",
          f"{r.requests_per_sec_per_core / 1e3:.0f}")
         for r in results],
        title="Lauberhorn end-point scaling",
    )


GRID = Grid(
    name="e14", title="Peak throughput & end-point scaling",
    points=(("throughput", "throughput:run_throughput", {}),
            ("scaling", "throughput:run_lauberhorn_scaling", {})),
    assemble=printed((ThroughputResult, render_throughput),
                     (ThroughputResult, render_lauberhorn_scaling)),
)
