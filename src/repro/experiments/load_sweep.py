"""E15 — latency vs offered load: the hockey-stick curves.

Sweeps the open-loop arrival rate against each stack (one serving core)
and reports p50/p99 — the standard way to show where each architecture
saturates.  The knee should fall in the order of per-request software
cost: Linux first, then bypass, with Lauberhorn sustaining the highest
rate before its (protocol-bound) knee.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.generator import OpenLoopGenerator, ServiceMix, Target
from .grid import Grid, rendered
from .report import fmt_ns, print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "LoadPoint", "measure_load_point", "render_load_sweep"]

HANDLER_COST = 500
SWEEP_RATES = (50e3, 150e3, 300e3, 600e3)
SWEEP_STACKS = ("linux", "bypass", "lauberhorn")


@dataclass(frozen=True)
class LoadPoint:
    stack: str
    rate_per_sec: float
    completed: int
    p50_ns: float
    p99_ns: float


def _build(stack: str):
    if stack == "linux":
        bed = build_linux_testbed()
        bed.nic.set_queue_core(0, 1)  # IRQs off the worker's core
    elif stack == "bypass":
        bed = build_bypass_testbed()
    elif stack == "lauberhorn":
        bed = build_lauberhorn_testbed()
        bed.nic.backlog_capacity = 4096  # queue bursts, don't drop them
    else:
        raise ValueError(f"unknown stack {stack!r}")
    service, method = deploy_service(bed, stack, lambda a: [1],
                                     cost_instructions=HANDLER_COST, core=0)
    return bed, service, method


def measure_load_point(
    stack: str, rate_per_sec: float, n_requests: int = 250,
) -> LoadPoint:
    """One sweep point: one stack at one offered rate, fresh testbed."""
    bed, service, method = _build(stack)
    generator = OpenLoopGenerator(
        bed.clients[0],
        ServiceMix([Target(service, method)]),
        bed.server_mac,
        bed.server_ip,
        rng=bed.machine.rng.stream("sweep"),
    )
    done = bed.sim.process(generator.run(rate_per_sec, n_requests))
    bed.machine.run(until=done)
    summary = generator.recorder.summary()
    return LoadPoint(
        stack=stack,
        rate_per_sec=rate_per_sec,
        completed=generator.completed,
        p50_ns=summary.p50,
        p99_ns=summary.p99,
    )


def render_load_sweep(points: list[LoadPoint]) -> None:
    print_table(
        ["stack", "offered kreq/s", "p50", "p99"],
        [(p.stack, f"{p.rate_per_sec / 1e3:.0f}", fmt_ns(p.p50_ns),
          fmt_ns(p.p99_ns)) for p in points],
        title="Latency vs offered load (one serving core)",
    )


GRID = Grid(
    name="e15", title="Latency vs offered load",
    points=tuple(
        (f"{stack}@{rate:.0f}", "load_sweep:measure_load_point",
         {"stack": stack, "rate_per_sec": rate})
        for stack in SWEEP_STACKS
        for rate in SWEEP_RATES
    ),
    assemble=rendered(LoadPoint, render_load_sweep),
)
