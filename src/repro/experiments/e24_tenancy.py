"""E24 — multi-tenant isolation: noisy neighbours on a shared NIC.

The paper's NIC-as-OS argument is only honest under contention:
OSMOSIS (PAPERS.md) shows a shared SmartNIC without per-tenant
isolation lets one tenant's burst wreck everyone else's tail.  E24
measures exactly that on the Lauberhorn demux path: a *calm victim*
tenant (modest open-loop load) shares the NIC with an *aggressor*
running one of three interference patterns, with the
:mod:`repro.tenancy` machinery either accounting-only (``off``) or
enforcing budgets + DWRR + rate limits (``on``):

* **storm** — encrypted near-DMA-threshold payloads faster than the
  RX pipeline can crypt+deserialise them: the serial demux loop
  saturates and the overflow preempts the victim's armed loop with
  Tryagain bounces;
* **dmaflood** — encrypted >4 KiB payloads: every delivery also drags
  the DMA fallback machinery into the picture;
* **rateviol** — a flat-out small-request flood far above the
  tenant's contracted rate, aimed at a deliberately slow handler so
  backlogs (and preemption pressure) build.

Every cell runs under the full invariant battery *plus* the tenant
isolation checks (conservation, budget caps, ledger reconciliation,
DWRR fairness) — a cell only counts with zero violations.  The
headline table is victim p99.9 with isolation vs. without vs. solo:
with budgets + rate limits the victim's tail stays within 2x its solo
run while the unisolated baseline blows far past it, because policed
aggressor frames cost only parse+demux (~40 ns) instead of the full
crypt+deserialise pipeline.

Two sections: ``single`` (one Lauberhorn host, tenant-count x pattern
x isolation grid) and ``fleet`` (2-ToR rack, victim replicated on two
hosts, aggressor pounding one of them).

Artifact: ``results/e24_tenancy.json``; its claims are rows of
:mod:`repro.exp.claims`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..check import install_checks, install_fleet_checks
from ..fleet import HostSpec, build_fleet
from ..metrics.histogram import nearest_rank
from ..net.topology import TopologySpec
from ..sim.clock import MS
from ..tenancy import TenantTable
from ..workloads.distributions import args_for_payload
from ..workloads.generator import OpenLoopGenerator, ServiceMix, Target
from .grid import Grid, artifact_path, write_json_artifact
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, deploy_service

__all__ = ["GRID", "TenancyCell", "TENANCY_ARTIFACT", "SINGLE_LABELS",
           "FLEET_LABELS", "cell_labels", "measure_single_cell",
           "measure_fleet_cell", "render_tenancy", "write_tenancy_artifact"]

#: default location of the JSON artifact (relative to the runner's cwd)
TENANCY_ARTIFACT = "results/e24_tenancy.json"

HORIZON_NS = 50 * MS
FLEET_HORIZON_NS = 60 * MS

#: the calm victim: open-loop Poisson, far below NIC capacity
VICTIM_RATE = 50_000.0
VICTIM_REQUESTS = 100
VICTIM_COST = 500

#: light bystander tenants for the 4-tenant cells
BYSTANDER_RATE = 10_000.0
BYSTANDER_REQUESTS = 20

#: aggressor interference patterns (payload size, inline AEAD, send
#: rate, frame count, handler cost in instructions)
PATTERNS = {
    # RX-pipeline saturation: crypto+deserialise of a 3968 B encrypted
    # payload (~540 ns) outruns its wire time (~320 ns), so the serial
    # demux loop falls behind at 2.5 Mfps and queueing explodes.
    "storm": dict(payload=3968, encrypted=True, rate=2.5e6, count=6000,
                  cost=2000),
    # Same saturation but through the >4 KiB DMA fallback, charging
    # the dma_fallbacks ledger on every delivery.
    "dmaflood": dict(payload=6144, encrypted=True, rate=1.8e6, count=4500,
                     cost=2000),
    # Cheap frames way over the contracted rate into a slow handler:
    # backlog overflow + preemption pressure, not pipeline saturation.
    "rateviol": dict(payload=64, encrypted=False, rate=2.0e6, count=5000,
                     cost=20_000),
}

#: enforcement applied to the aggressor when isolation is ``on``
AGGRESSOR_RATE_LIMIT = 50_000.0
AGGRESSOR_BURST = 16.0
AGGRESSOR_BUDGET = 4

TENANT_COUNTS = (2, 4)

SINGLE_LABELS = tuple(
    ["solo"] + [f"{nt}t-{pattern}-{iso}"
                for nt in TENANT_COUNTS
                for pattern in PATTERNS
                for iso in ("off", "on")]
)
FLEET_LABELS = ("solo", "storm-off", "storm-on")
SECTIONS = ("single", "fleet")


def cell_labels(section: str) -> tuple[str, ...]:
    return {"single": SINGLE_LABELS, "fleet": FLEET_LABELS}[section]


@dataclass(frozen=True)
class TenancyCell:
    """One measured tenancy configuration (JSON-able)."""

    section: str
    label: str
    tenants: list
    pattern: str            # "" for solo cells
    isolated: bool
    n_victim: int
    victim_completed: int
    victim_p50_ns: float
    victim_p99_ns: float
    victim_p999_ns: float
    aggressor_sent: int = 0
    aggressor_completed: int = 0
    #: flat per-tenant ledger (``TenantTable.snapshot`` of host 0)
    ledger: dict = field(default_factory=dict)
    #: tenant invariant violations recorded over the run (must be 0)
    violations: int = 0
    check_samples: int = 0


def _parse_label(label: str) -> tuple[int, str, bool]:
    """``"4t-storm-on"`` -> (4, "storm", True); solo -> (1, "", True)."""
    if label == "solo":
        return 1, "", True
    nt, pattern, iso = label.split("-")
    return int(nt.rstrip("t")), pattern, iso == "on"


def _build_table(n_tenants: int, pattern: str, isolated: bool) -> TenantTable:
    """Victim + aggressor (+ bystanders); ``isolated`` turns on the
    aggressor's budget and rate limit and weights the victim up."""
    table = TenantTable()
    table.create("victim", weight=2.0 if isolated else 1.0)
    if pattern:
        if isolated:
            table.create("aggressor", weight=1.0,
                         ctrl_budget=AGGRESSOR_BUDGET,
                         rate_limit_rps=AGGRESSOR_RATE_LIMIT,
                         rate_burst=AGGRESSOR_BURST)
        else:
            table.create("aggressor", weight=1.0)
    for index in range(max(0, n_tenants - 2)):
        table.create(f"bystander{index}", weight=1.0)
    return table


def _fire_and_forget(sim, client, server_mac, server_ip, service, method,
                     args, rate: float, count: int, rng, done: list,
                     start_delay_ns: float = 200_000.0):
    """Aggressor body: blast ``count`` requests open-loop, never waiting
    for completions (rate-policed frames never complete by design)."""
    gap = 1e9 / rate

    def run():
        yield sim.timeout(start_delay_ns)
        for _ in range(count):
            event = client.send_request(
                server_mac, server_ip, service.udp_port,
                service.service_id, method.method_id, args,
            )
            event.add_callback(lambda ev: done.append(1))
            yield sim.timeout(rng.expovariate(1.0) * gap)

    sim.process(run(), name="e24-aggressor")


def measure_single_cell(label: str, seed: int = 0) -> TenancyCell:
    """Build, tenant-arm, invariant-arm, and drive one single-host cell."""
    n_tenants, pattern, isolated = _parse_label(label)
    bed = build_lauberhorn_testbed(n_clients=4, seed=seed,
                                   preempt_on_backlog=True)
    table = _build_table(n_tenants, pattern, isolated)
    bed.nic.attach_tenants(table)

    victim_service, victim_method = deploy_service(
        bed, "lauberhorn", name="victim", udp_port=9000,
        cost_instructions=VICTIM_COST, core=0, tenant="victim")
    generators = []
    aggressor_sent = 0
    aggressor_done: list = []
    if pattern:
        config = PATTERNS[pattern]
        aggr_service, aggr_method = deploy_service(
            bed, "lauberhorn", name="aggr", udp_port=9100,
            cost_instructions=config["cost"], core=1, tenant="aggressor",
            encrypted=config["encrypted"])
        _fire_and_forget(
            bed.sim, bed.clients[1], bed.server_mac, bed.server_ip,
            aggr_service, aggr_method, args_for_payload(config["payload"]),
            config["rate"], config["count"], random.Random(seed + 17),
            aggressor_done)
        aggressor_sent = config["count"]
    for index in range(n_tenants - 2):
        by_service, by_method = deploy_service(
            bed, "lauberhorn", name=f"bystander{index}",
            udp_port=9200 + index, cost_instructions=VICTIM_COST,
            core=2 + index, tenant=f"bystander{index}")
        gen = OpenLoopGenerator(
            bed.clients[2 + index],
            ServiceMix([Target(by_service, by_method)]),
            bed.server_mac, bed.server_ip, random.Random(seed + 31 + index))
        bed.sim.process(gen.run(BYSTANDER_RATE, BYSTANDER_REQUESTS))
        generators.append(gen)

    checks = install_checks(bed)
    checks.start(HORIZON_NS)
    victim_gen = OpenLoopGenerator(
        bed.clients[0], ServiceMix([Target(victim_service, victim_method)]),
        bed.server_mac, bed.server_ip, random.Random(seed + 1))
    bed.sim.process(victim_gen.run(VICTIM_RATE, VICTIM_REQUESTS))
    bed.sim.run(until=HORIZON_NS)
    checks.finish()

    rtts = victim_gen.recorder.samples
    return TenancyCell(
        section="single",
        label=label,
        tenants=[spec.name for spec in table],
        pattern=pattern,
        isolated=isolated,
        n_victim=VICTIM_REQUESTS,
        victim_completed=victim_gen.completed,
        victim_p50_ns=nearest_rank(rtts, 0.50),
        victim_p99_ns=nearest_rank(rtts, 0.99),
        victim_p999_ns=nearest_rank(rtts, 0.999),
        aggressor_sent=aggressor_sent,
        aggressor_completed=len(aggressor_done),
        ledger=table.snapshot(),
        violations=len(checks.violations),
        check_samples=checks.samples,
    )


FLEET_VICTIM_REQUESTS = 120
FLEET_VICTIM_FLOWS = 8


def measure_fleet_cell(label: str, seed: int = 0) -> TenancyCell:
    """2-ToR rack: the victim service replicated on both Lauberhorn
    hosts, the aggressor pounding host 0 only — cross-host blast
    radius of one noisy tenant."""
    solo = label == "solo"
    isolated = label.endswith("-on")
    pattern = "" if solo else "storm"
    fleet = build_fleet(
        [HostSpec(stack="lauberhorn", tor=0),
         HostSpec(stack="lauberhorn", tor=1)],
        topo=TopologySpec(n_tors=2),
        n_clients=2,
        seed=seed,
    )
    tables = []
    for host in fleet.hosts:
        table = _build_table(2, pattern or "storm", isolated)
        host.nic.attach_tenants(table)
        tables.append(table)

    aggressor_sent = 0
    aggressor_done: list = []
    host0 = fleet.hosts[0]
    aggr_service, aggr_method = deploy_service(
        host0, "lauberhorn", name="aggr", udp_port=9100,
        cost_instructions=PATTERNS["storm"]["cost"], core=1,
        tenant="aggressor", encrypted=PATTERNS["storm"]["encrypted"])
    fleet.deploy(name="victim", udp_port=9000,
                 cost_instructions=VICTIM_COST, tenant="victim")

    checks = install_fleet_checks(fleet)
    checks.start(FLEET_HORIZON_NS)

    rtts: list = []
    completed: list = []

    def victim_loop():
        rng = random.Random(seed + 1)
        gap = 1e9 / VICTIM_RATE
        for k in range(FLEET_VICTIM_REQUESTS):
            event = fleet.send(fleet.clients[0],
                               41000 + (k % FLEET_VICTIM_FLOWS), [k])

            def note(ev):
                completed.append(1)
                rtts.append(ev.value.rtt_ns)

            event.add_callback(note)
            yield fleet.sim.timeout(rng.expovariate(1.0) * gap)

    fleet.sim.process(victim_loop(), name="e24-fleet-victim")
    if not solo:
        config = PATTERNS["storm"]
        _fire_and_forget(
            fleet.sim, fleet.clients[1], host0.server_mac, host0.server_ip,
            aggr_service, aggr_method, args_for_payload(config["payload"]),
            config["rate"], config["count"], random.Random(seed + 17),
            aggressor_done)
        aggressor_sent = config["count"]
    fleet.run(until=FLEET_HORIZON_NS)
    checks.finish()

    return TenancyCell(
        section="fleet",
        label=label,
        tenants=[spec.name for spec in tables[0]],
        pattern=pattern,
        isolated=isolated,
        n_victim=FLEET_VICTIM_REQUESTS,
        victim_completed=len(completed),
        victim_p50_ns=nearest_rank(rtts, 0.50),
        victim_p99_ns=nearest_rank(rtts, 0.99),
        victim_p999_ns=nearest_rank(rtts, 0.999),
        aggressor_sent=aggressor_sent,
        aggressor_completed=len(aggressor_done),
        ledger=tables[0].snapshot(),
        violations=len(checks.violations),
        check_samples=checks.samples,
    )


def render_tenancy(cells: list["TenancyCell"]) -> None:
    titles = {
        "single": "E24 — noisy neighbours on one Lauberhorn host",
        "fleet": "E24 — 2-ToR fleet, aggressor pounding one replica host",
    }
    for section in SECTIONS:
        rows = []
        for cell in cells:
            if cell.section != section:
                continue
            aggr_drops = cell.ledger.get("aggressor.rate_dropped", 0)
            rows.append((
                cell.label,
                f"{cell.victim_completed}/{cell.n_victim}",
                fmt_ns(cell.victim_p50_ns),
                fmt_ns(cell.victim_p99_ns),
                fmt_ns(cell.victim_p999_ns),
                str(cell.aggressor_completed),
                str(int(aggr_drops)),
                str(cell.violations),
            ))
        if rows:
            print_table(
                ["cell", "victim done", "v p50", "v p99", "v p99.9",
                 "aggr done", "policed", "violations"],
                rows,
                title=titles[section],
            )
            print()


def write_tenancy_artifact(cells: list["TenancyCell"],
                           path: str = TENANCY_ARTIFACT) -> dict:
    from ..exp.pool import jsonable

    payload = {
        "experiment": "e24",
        "horizon_ns": HORIZON_NS,
        "fleet_horizon_ns": FLEET_HORIZON_NS,
        "sections": list(SECTIONS),
        "cells": [jsonable(cell) for cell in cells],
    }
    return write_json_artifact(payload, path)


def _assemble(values: list, smoke: bool) -> list[TenancyCell]:
    cells = [TenancyCell(**value) for value in values]
    render_tenancy(cells)
    write_tenancy_artifact(cells)
    print(f"[wrote {artifact_path(TENANCY_ARTIFACT)}: {len(cells)} cells]")
    return cells


GRID = Grid(
    name="e24",
    title="Multi-tenant isolation — budgets, weighted-fair demux & noisy "
          "neighbours",
    points=tuple(
        (f"{section}@{label}",
         f"e24_tenancy:measure_{section}_cell", {"label": label})
        for section in SECTIONS
        for label in cell_labels(section)
    ),
    assemble=_assemble,
    seeded=True,
    # solo plus the 2-tenant storm headline pair
    smoke=("single@solo", "single@2t-storm-off", "single@2t-storm-on"),
)
