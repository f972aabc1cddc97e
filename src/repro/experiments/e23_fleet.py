"""E23 — rack-scale fleets: replica scaling, skew, and NIC placement.

The paper's pitch is a datacenter argument made on one machine; E23 is
the first experiment that actually runs a *rack*: N hosts behind a
ToR/spine topology (:mod:`repro.fleet`), a deterministic ECMP/RSS
balancer spreading flows over service replicas, and the fleet-wide
invariant battery (:func:`repro.check.install_fleet_checks`) armed in
every cell — packet conservation across every switch port, intra-flow
delivery order, and the balancer-vs-replica ledger all must hold for a
cell to count.

Three sections:

* **scaling** — the same flow population against 1/2/4 Lauberhorn
  replicas split across two racks: replica-count scaling curves;
* **skew** — a Zipf(α) hot-key sweep over 4 replicas: how flow-affine
  hashing copes when the flow population is skewed (α = 0 uniform up
  to α = 1.5 heavily skewed);
* **placement** — "which hosts get the coherent NIC": the same
  workload over placements from no Lauberhorn at all, one host, both
  coherent hosts in one rack, split across racks, everywhere, and a
  heterogeneous linux/snap/bypass/lauberhorn mix.

Artifact: ``results/e23_fleet.json``; its claims are rows of
:mod:`repro.exp.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check import install_fleet_checks
from ..fleet import Fleet, HostSpec, build_fleet
from ..metrics.histogram import nearest_rank
from ..net.topology import TopologySpec
from ..sim.clock import MS
from .grid import Grid, artifact_path, write_json_artifact
from .report import fmt_ns, print_table

__all__ = ["GRID", "FleetCell", "FLEET_ARTIFACT", "SCALING_LABELS",
           "SKEW_LABELS", "PLACEMENT_LABELS", "cell_labels",
           "measure_fleet_cell", "render_fleet", "write_fleet_artifact"]

#: default location of the JSON artifact (relative to the runner's cwd)
FLEET_ARTIFACT = "results/e23_fleet.json"

HORIZON_NS = 200 * MS
N_TORS = 2
N_CLIENTS = 2
#: echo handler cost, matching the four-stacks workload
HANDLER_COST = 500

#: replica-count scaling points (all-Lauberhorn, round-robin racks)
SCALING_LABELS = ("r1", "r2", "r4")
_SCALING_REPLICAS = {"r1": 1, "r2": 2, "r4": 4}

#: Zipf skew sweep over 4 Lauberhorn replicas
SKEW_LABELS = ("a0.0", "a0.9", "a1.5")
_SKEW_ALPHA = {"a0.0": 0.0, "a0.9": 0.9, "a1.5": 1.5}

#: "which hosts get the coherent NIC" — 4 hosts, 2 racks
PLACEMENT_LABELS = ("none", "one", "same_rack", "split", "all", "mixed")
_PLACEMENTS: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {
    "none": (("linux", "linux", "linux", "linux"), (0, 1, 0, 1)),
    "one": (("lauberhorn", "linux", "linux", "linux"), (0, 1, 0, 1)),
    "same_rack": (("lauberhorn", "lauberhorn", "linux", "linux"),
                  (0, 0, 1, 1)),
    "split": (("lauberhorn", "linux", "lauberhorn", "linux"), (0, 0, 1, 1)),
    "all": (("lauberhorn", "lauberhorn", "lauberhorn", "lauberhorn"),
            (0, 1, 0, 1)),
    "mixed": (("linux", "snap", "bypass", "lauberhorn"), (0, 0, 1, 1)),
}

SECTIONS = ("scaling", "skew", "placement")


def cell_labels(section: str) -> tuple[str, ...]:
    return {
        "scaling": SCALING_LABELS,
        "skew": SKEW_LABELS,
        "placement": PLACEMENT_LABELS,
    }[section]


@dataclass(frozen=True)
class FleetCell:
    """One measured fleet configuration (JSON-able)."""

    section: str
    label: str
    stacks: list
    tors: list
    n_flows: int
    n_requests: int
    completed: int
    p50_rtt_ns: float
    p99_rtt_ns: float
    mean_rtt_ns: float
    #: requests the balancer routed to each replica, in host order
    routed: list = field(default_factory=list)
    flows_per_replica: list = field(default_factory=list)
    #: max/mean of ``routed`` (1.0 = perfectly even; 0 = no traffic)
    imbalance: float = 0.0
    #: flows whose replica sits in a different rack than the clients
    cross_rack_flows: int = 0
    #: fleet invariant violations recorded over the run (must be 0)
    violations: int = 0
    #: invariant sampler sweeps that ran
    check_samples: int = 0


def _cell_config(section: str, label: str) -> dict:
    """Declarative cell table -> concrete workload parameters."""
    if section == "scaling":
        n = _SCALING_REPLICAS[label]
        return dict(
            stacks=["lauberhorn"] * n,
            tors=[i % N_TORS for i in range(n)],
            n_flows=16, total_requests=128, alpha=0.0,
        )
    if section == "skew":
        return dict(
            stacks=["lauberhorn"] * 4,
            tors=[i % N_TORS for i in range(4)],
            n_flows=32, total_requests=160, alpha=_SKEW_ALPHA[label],
        )
    if section == "placement":
        stacks, tors = _PLACEMENTS[label]
        return dict(
            stacks=list(stacks), tors=list(tors),
            n_flows=16, total_requests=96, alpha=0.0,
        )
    raise ValueError(f"unknown section {section!r}")


def _flow_requests(n_flows: int, total: int, alpha: float) -> list[int]:
    """Split ``total`` requests over flows with Zipf(alpha) weights."""
    weights = [1.0 / (flow + 1) ** alpha for flow in range(n_flows)]
    scale = total / sum(weights)
    counts = [max(1, round(weight * scale)) for weight in weights]
    # Trim rounding overshoot from the tail so totals stay comparable.
    index = n_flows - 1
    while sum(counts) > total and index >= 0:
        if counts[index] > 1:
            counts[index] -= 1
        else:
            index -= 1
    return counts


def _drive(fleet: Fleet, counts: list[int]) -> list[float]:
    """Closed-loop per flow: flow ``f`` sends ``counts[f]`` requests
    back-to-back from client ``f % n_clients`` on port ``41000 + f``."""
    rtts: list[float] = []

    def flow_loop(flow: int, n: int):
        client = fleet.clients[flow % len(fleet.clients)]
        yield fleet.sim.timeout(10_000)
        for k in range(n):
            result = yield fleet.send(client, 41000 + flow, [k])
            rtts.append(result.rtt_ns)

    for flow, n in enumerate(counts):
        fleet.sim.process(flow_loop(flow, n), name=f"e23-flow{flow}")
    fleet.run(until=HORIZON_NS)
    return rtts


def measure_fleet_cell(section: str, label: str, seed: int = 0) -> FleetCell:
    """Build, invariant-arm, and drive one fleet configuration."""
    config = _cell_config(section, label)
    stacks, tors = config["stacks"], config["tors"]
    fleet = build_fleet(
        [HostSpec(stack=stack, tor=tor) for stack, tor in zip(stacks, tors)],
        topo=TopologySpec(n_tors=N_TORS),
        n_clients=N_CLIENTS,
        seed=seed,
    )
    fleet.deploy(cost_instructions=HANDLER_COST)
    checks = install_fleet_checks(fleet)
    checks.start(HORIZON_NS)
    counts = _flow_requests(config["n_flows"], config["total_requests"],
                            config["alpha"])
    rtts = _drive(fleet, counts)
    checks.finish()
    spread = fleet.balancer.spread()
    routed = spread["routed"]
    mean_routed = sum(routed) / len(routed) if routed else 0.0
    cross = sum(
        1 for index in fleet.balancer.affinity.values()
        if fleet.deployments[index].host.tor != 0
    )
    return FleetCell(
        section=section,
        label=label,
        stacks=list(stacks),
        tors=list(tors),
        n_flows=config["n_flows"],
        n_requests=sum(counts),
        completed=len(rtts),
        p50_rtt_ns=nearest_rank(rtts, 0.50),
        p99_rtt_ns=nearest_rank(rtts, 0.99),
        mean_rtt_ns=sum(rtts) / len(rtts) if rtts else 0.0,
        routed=routed,
        flows_per_replica=spread["flows_per_replica"],
        imbalance=(max(routed) / mean_routed if mean_routed else 0.0),
        cross_rack_flows=cross,
        violations=len(checks.violations),
        check_samples=checks.samples,
    )


def render_fleet(cells: list["FleetCell"]) -> None:
    titles = {
        "scaling": "E23 — replica-count scaling (Lauberhorn, 2 racks)",
        "skew": "E23 — Zipf hot-key sweep over 4 replicas",
        "placement": "E23 — coherent-NIC placement grid (4 hosts, 2 racks)",
    }
    for section in SECTIONS:
        rows = []
        for cell in cells:
            if cell.section != section:
                continue
            rows.append((
                cell.label,
                "/".join(sorted(set(cell.stacks),
                                key=cell.stacks.index)),
                f"{cell.completed}/{cell.n_requests}",
                fmt_ns(cell.p50_rtt_ns),
                fmt_ns(cell.p99_rtt_ns),
                f"{cell.imbalance:.2f}",
                str(cell.cross_rack_flows),
                str(cell.violations),
            ))
        if rows:
            print_table(
                ["cell", "stacks", "done", "p50 RTT", "p99 RTT",
                 "imbalance", "x-rack", "violations"],
                rows,
                title=titles[section],
            )
            print()


def write_fleet_artifact(cells: list["FleetCell"],
                         path: str = FLEET_ARTIFACT) -> dict:
    from ..exp.pool import jsonable

    payload = {
        "experiment": "e23",
        "horizon_ns": HORIZON_NS,
        "n_tors": N_TORS,
        "sections": list(SECTIONS),
        "cells": [jsonable(cell) for cell in cells],
    }
    return write_json_artifact(payload, path)


def _assemble(values: list, smoke: bool) -> list[FleetCell]:
    cells = [FleetCell(**value) for value in values]
    render_fleet(cells)
    write_fleet_artifact(cells)
    print(f"[wrote {artifact_path(FLEET_ARTIFACT)}: {len(cells)} cells]")
    return cells


GRID = Grid(
    name="e23",
    title="Rack-scale fleets — replica scaling, skew & coherent-NIC "
          "placement",
    points=tuple(
        (f"{section}@{label}", "e23_fleet:measure_fleet_cell",
         {"section": section, "label": label})
        for section in SECTIONS
        for label in cell_labels(section)
    ),
    assemble=_assemble,
    seeded=True,
    # one cell per headline section
    smoke=("scaling@r2", "placement@mixed"),
)
