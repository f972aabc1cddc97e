"""E6 — Section 5.1: Tryagain, polling overhead, and energy.

"We avoid this by returning Tryagain dummy messages after 15ms,
reducing the polling overhead (both bus traffic and CPU spinning) to
almost zero and improving energy efficiency."

Two sub-experiments:

* **wait-mechanism energy** — serve a trickle of RPCs (one per ``gap``)
  with each stack and compare the serving core's energy per request:
  the bypass core spins through the gap (busy watts), the Linux worker
  sleeps (idle watts, but pays the interrupt path per request), the
  Lauberhorn loop stalls in a blocked load (stall watts, zero
  instructions).
* **timeout ablation** — tryagain messages per second and bus
  transactions as a function of the timeout value: the 15 ms choice
  makes the keep-alive traffic negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.energy import PowerParams, core_energy
from ..sim.clock import MS, SEC, US
from .grid import Grid, printed
from .report import fmt_ns, print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "EnergyRow", "TimeoutRow", "render_timeout_ablation",
           "render_tryagain_energy", "run_tryagain_energy",
           "run_timeout_ablation"]


@dataclass(frozen=True)
class EnergyRow:
    stack: str
    gap_ns: float
    requests: int
    busy_ns: float
    stall_ns: float
    energy_mj: float
    energy_uj_per_request: float


@dataclass(frozen=True)
class TimeoutRow:
    timeout_ns: float
    tryagains_per_sec: float
    fabric_transactions_per_sec: float


def _serve_trickle(bed, service, method, gap_ns: float, n_requests: int):
    client = bed.clients[0]
    done = {"count": 0}

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n_requests):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            done["count"] += 1
            yield bed.sim.timeout(gap_ns)

    bed.sim.process(driver())
    bed.machine.run(until=(n_requests + 2) * (gap_ns + 100 * US))
    return done["count"]


def run_tryagain_energy(
    gap_ns: float = 5 * MS,
    n_requests: int = 5,
    power: PowerParams = PowerParams(),
) -> list[EnergyRow]:
    """Energy per request for the three wait mechanisms."""
    rows: list[EnergyRow] = []

    def finish(stack, bed, served):
        core = bed.machine.cores[0]
        window = bed.sim.now
        energy = core_energy(core, window, power)
        rows.append(EnergyRow(
            stack=stack,
            gap_ns=gap_ns,
            requests=served,
            busy_ns=core.counters.busy_ns,
            stall_ns=core.stall_ns_now(),
            energy_mj=energy.total_j * 1e3,
            energy_uj_per_request=energy.total_j * 1e6 / max(1, served),
        ))

    # Every worker is pinned to core 0, the core measured: the Linux
    # worker blocks in recvmsg (queue 0's IRQs land on core 0 too), the
    # bypass worker spins, the Lauberhorn loop stalls in a blocked load.
    for stack, build, mechanism in (
        ("linux", build_linux_testbed, "linux (interrupt)"),
        ("bypass", build_bypass_testbed, "bypass (spin)"),
        ("lauberhorn", build_lauberhorn_testbed, "lauberhorn (blocked load)"),
    ):
        bed = build()
        service, method = deploy_service(bed, stack, cost_instructions=300,
                                         core=0)
        served = _serve_trickle(bed, service, method, gap_ns, n_requests)
        finish(mechanism, bed, served)
    return rows


def render_tryagain_energy(rows: list[EnergyRow]) -> None:
    print_table(
        ["mechanism", "gap", "reqs", "core0 busy", "core0 stall",
         "energy", "energy/req"],
        [
            (r.stack, fmt_ns(r.gap_ns), r.requests, fmt_ns(r.busy_ns),
             fmt_ns(r.stall_ns), f"{r.energy_mj:.3f} mJ",
             f"{r.energy_uj_per_request:.1f} uJ")
            for r in rows
        ],
        title="Section 5.1 — wait-mechanism energy "
              f"(1 RPC per {fmt_ns(rows[0].gap_ns)})",
    )


def run_timeout_ablation(
    timeouts_ns=(1 * MS, 5 * MS, 15 * MS, 100 * MS),
    idle_ns: float = 300 * MS,
) -> list[TimeoutRow]:
    """Keep-alive traffic vs Tryagain timeout on a fully idle endpoint."""
    rows: list[TimeoutRow] = []
    for timeout_ns in timeouts_ns:
        bed = build_lauberhorn_testbed(tryagain_timeout_ns=timeout_ns)
        deploy_service(bed, "lauberhorn", name="idle")
        bed.machine.run(until=idle_ns)
        seconds = idle_ns / SEC
        rows.append(TimeoutRow(
            timeout_ns=timeout_ns,
            tryagains_per_sec=bed.nic.lstats.tryagains / seconds,
            fabric_transactions_per_sec=(
                bed.machine.fabric.stats.total_transactions() / seconds
            ),
        ))
    return rows


def render_timeout_ablation(rows: list[TimeoutRow]) -> None:
    print_table(
        ["tryagain timeout", "tryagains/s", "fabric transactions/s"],
        [
            (fmt_ns(r.timeout_ns), f"{r.tryagains_per_sec:.1f}",
             f"{r.fabric_transactions_per_sec:.1f}")
            for r in rows
        ],
        title="Section 5.1 — Tryagain timeout ablation (idle endpoint)",
    )


GRID = Grid(
    name="e6", title="Section 5.1 — Tryagain & energy",
    points=(("energy", "tryagain:run_tryagain_energy", {}),
            ("timeout", "tryagain:run_timeout_ablation", {})),
    assemble=printed((EnergyRow, render_tryagain_energy),
                     (TimeoutRow, render_timeout_ablation)),
)
