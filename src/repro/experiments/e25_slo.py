"""E25 — tenant-scoped SLOs: burn-rate alerts, budgets, and flame diffs.

E24 established *that* a noisy neighbour wrecks a victim tenant's tail
and that the tenancy machinery can contain it.  E25 asks the operator
question on top: does the observability layer *notice in time*?  Each
cell runs the E24 noisy-neighbour shape (calm victim, storm aggressor,
optional bystanders) with an :class:`~repro.obs.slo.SLOTracker` armed:
the victim carries a latency objective (tight or loose), the tracker's
error-budget ledger runs in simulated ns, and multi-window burn-rate
alerts must fire *before* the budget actually exhausts — never in calm
cells, always ahead of exhaustion in violated storm cells.  The storm
starts only after a long calm prefix, exactly the regime burn-rate
alerting is for: the fast window saturates with bad completions while
the cumulative ledger still holds pre-storm credit.

Each armed run also folds its span trees into per-(host, tenant)
flamegraphs (:mod:`repro.obs.flame`) — exact simulated-ns self-time
attribution, validated against the root durations identically — and
reports the victim-vs-aggressor per-request stack diff.  A ``guard``
cell closes the loop: the ``slo_guard`` policy reads the tracker's
``burn_fast`` probe rows out of sampler windows and tightens the
aggressor's admission, E22-style.

Grids: tenant-count x objective-tightness x interference on a single
Lauberhorn host, plus tight-objective calm/storm cells on the 2-ToR
fleet (storm pounding host 0 only — the cross-host tail attribution
case: host0's victim replica pages, host1's stays green).

Every cell runs once, armed.  Arming follows the one-``is None``
convention, extended to SLO/flame, so it moves no simulated result:
``tests/obs/test_arming_is_inert.py`` runs sampled cells bare and
armed (``_drive_single``/``_drive_fleet``) and requires equal victim
RTT lists.  Artifact: ``results/e25_slo.json``; its claims are rows of
:mod:`repro.exp.claims`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..check import install_checks, install_fleet_checks
from ..ctrl import Actuators, AdmissionGate, Controller, PolicySpec
from ..fleet import HostSpec, build_fleet
from ..metrics.histogram import nearest_rank
from ..net.topology import TopologySpec
from ..obs import (
    FlightRecorder,
    SLOSpec,
    SLOTracker,
    TimeSeriesSampler,
    arm_flight,
    arm_testbed,
    bind_testbed_metrics,
    fold_spans,
    speedscope_json,
    tail_report,
    validate_speedscope,
)
from ..sim.clock import MS
from ..tenancy import TenantTable
from ..workloads.distributions import args_for_payload
from ..workloads.generator import OpenLoopGenerator, ServiceMix, Target
from .e24_tenancy import PATTERNS, VICTIM_COST, VICTIM_RATE
from .grid import Grid, artifact_path, write_json_artifact
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, deploy_service

__all__ = ["GRID", "SloCell", "SLO_ARTIFACT", "SINGLE_LABELS",
           "FLEET_LABELS", "cell_labels", "measure_single_cell",
           "measure_fleet_cell", "render_slo", "write_slo_artifact"]

#: default location of the JSON artifact (relative to the runner's cwd)
SLO_ARTIFACT = "results/e25_slo.json"

HORIZON_NS = 50 * MS
FLEET_HORIZON_NS = 60 * MS

#: long calm prefix before the storm.  Alert-before-exhaustion needs
#: the good history inside the slow window to be well under half the
#: *cumulative* good history (windowed burn crosses threshold on
#: ~2f*W goods-in-window bads; cumulative exhaustion on ~f*G total
#: goods), so the prefix is 10 ms of calm traffic against 2 ms / 0.5
#: ms alert windows.
VICTIM_REQUESTS = 600
STORM_DELAY_NS = 10 * MS

#: light bystanders for the 4-tenant cells (sparser than E24's so the
#: calm prefix stays genuinely calm on every core)
BYSTANDER_RATE = 10_000.0
BYSTANDER_REQUESTS = 60

#: objective tightness: "tight" sits above any calm-cell tail but far
#: below storm queueing; "loose" is deliberately unviolatable
TIGHT_THRESHOLD_NS = 20_000.0
LOOSE_THRESHOLD_NS = 5_000_000.0

#: the victim objective: 95% of requests under threshold (5% budget),
#: multi-window burn alerting at 2x sustainable spend
LATENCY_TARGET = 0.95
FAST_WINDOW_NS = 500_000.0
SLOW_WINDOW_NS = 2 * MS
BURN_THRESHOLD = 2.0
MIN_REQUESTS = 8

#: sampler windows double as SLO evaluation instants
WINDOW_NS = 100_000.0
MAX_WINDOWS = 700
FLIGHT_CAPACITY = 512
TAIL_QUANTILE = 0.99

#: slo_guard controller configuration for the guard cell
GUARD_SPEC = "slo_guard,epoch=2,burn=2,hold_step=20000,hold_max=200000"

TENANT_COUNTS = (2, 4)
TIGHTNESS = ("tight", "loose")
INTERFERENCE = ("calm", "storm")

SINGLE_LABELS = tuple(
    [f"{nt}t-{tight}-{noise}"
     for nt in TENANT_COUNTS
     for tight in TIGHTNESS
     for noise in INTERFERENCE]
    + ["2t-tight-storm-guard"]
)
FLEET_LABELS = ("fleet-tight-calm", "fleet-tight-storm")
SECTIONS = ("single", "fleet")


def cell_labels(section: str) -> tuple[str, ...]:
    return {"single": SINGLE_LABELS, "fleet": FLEET_LABELS}[section]


@dataclass(frozen=True)
class SloCell:
    """One measured SLO configuration (JSON-able)."""

    section: str
    label: str
    n_tenants: int
    tightness: str
    interference: str
    guarded: bool
    n_victim: int
    victim_completed: int
    victim_p50_ns: float
    victim_p99_ns: float
    victim_p999_ns: float
    #: trimmed ``SLOTracker.report()`` (per-spec ledgers + alerts)
    slo: dict = field(default_factory=dict)
    #: per-(host, tenant) flame summary with exactness proof material
    flame: dict = field(default_factory=dict)
    #: victim-vs-aggressor per-request mean self-time diff (ns)
    flame_diff: dict = field(default_factory=dict)
    #: speedscope export passed schema validation
    speedscope_ok: bool = False
    #: (host, tenant) attribution of the slow-root population
    tail_groups: dict = field(default_factory=dict)
    #: admission holds the slo_guard applied (guard cell only)
    guard_actuations: int = 0
    violations: int = 0
    check_samples: int = 0


def _parse_label(label: str) -> tuple[int, str, str, bool]:
    """``"4t-tight-storm"`` -> (4, "tight", "storm", False); a fleet
    cell (``"fleet-tight-calm"``) has the victim and aggressor tenants."""
    label = label.replace("fleet-", "2t-")
    guarded = label.endswith("-guard")
    if guarded:
        label = label[: -len("-guard")]
    nt, tightness, interference = label.split("-")
    return int(nt.rstrip("t")), tightness, interference, guarded


def _victim_spec(tightness: str) -> SLOSpec:
    threshold = (TIGHT_THRESHOLD_NS if tightness == "tight"
                 else LOOSE_THRESHOLD_NS)
    return SLOSpec(
        name="victim", tenant="victim",
        latency_threshold_ns=threshold,
        latency_target=LATENCY_TARGET,
        fast_window_ns=FAST_WINDOW_NS,
        slow_window_ns=SLOW_WINDOW_NS,
        burn_threshold=BURN_THRESHOLD,
        min_requests=MIN_REQUESTS,
    )


def _aggressor_spec() -> SLOSpec:
    """Availability-flavoured objective for the aggressor itself:
    storm requests that never finish inside 5 ms count as timeouts."""
    return SLOSpec(
        name="aggr", tenant="aggressor",
        latency_threshold_ns=1 * MS,
        latency_target=0.5,
        availability_target=0.9,
        timeout_ns=5 * MS,
        fast_window_ns=FAST_WINDOW_NS,
        slow_window_ns=SLOW_WINDOW_NS,
        burn_threshold=BURN_THRESHOLD,
        min_requests=MIN_REQUESTS,
    )


def _build_table(n_tenants: int, storm: bool) -> TenantTable:
    """Accounting-only tenancy (no budgets/limits): E25 measures the
    *detection* of interference, so the interference must be raw."""
    table = TenantTable()
    table.create("victim", weight=1.0)
    if storm:
        table.create("aggressor", weight=1.0)
    for index in range(max(0, n_tenants - 2)):
        table.create(f"bystander{index}", weight=1.0)
    return table


def _storm(sim, client, server_mac, server_ip, service, method, rng,
           done: list, gate=None):
    """The E24 storm aggressor, delayed past the calm prefix; with
    ``gate`` the slo_guard's admission hold-off throttles each send."""
    config = PATTERNS["storm"]
    args = args_for_payload(config["payload"])
    gap = 1e9 / config["rate"]

    def run():
        yield sim.timeout(STORM_DELAY_NS)
        for _ in range(config["count"]):
            if gate is not None:
                hold = gate()
                if hold:
                    yield sim.timeout(hold)
            event = client.send_request(
                server_mac, server_ip, service.udp_port,
                service.service_id, method.method_id, args,
            )
            event.add_callback(lambda ev: done.append(1))
            yield sim.timeout(rng.expovariate(1.0) * gap)

    sim.process(run(), name="e25-aggressor")
    return config["count"]


def _trim_slo_report(report: dict) -> dict:
    report = dict(report)
    report["alerts"] = report["alerts"][:32]
    return report


def _flame_summary(profile) -> dict:
    summary = {}
    for group in profile.groups():
        summary[group] = {
            "n_traces": profile.n_traces(group),
            "self_sum_ns": profile.self_sum_ns(group),
            "root_sum_ns": profile.root_sum_ns(group),
            "exact": profile.self_sum_ns(group) == profile.root_sum_ns(group),
            "stacks": {";".join(stack): weight
                       for stack, weight in sorted(
                           profile.stacks(group).items())},
        }
    return summary


def _per_request_diff(profile, group_a: str, group_b: str) -> dict:
    """Victim-vs-aggressor diff of *mean per-request* self time."""
    groups = set(profile.groups())
    if group_a not in groups or group_b not in groups:
        return {}
    n_a = max(1, profile.n_traces(group_a))
    n_b = max(1, profile.n_traces(group_b))
    a = {";".join(s): w / n_a for s, w in profile.stacks(group_a).items()}
    b = {";".join(s): w / n_b for s, w in profile.stacks(group_b).items()}
    return {stack: a.get(stack, 0.0) - b.get(stack, 0.0)
            for stack in sorted(set(a) | set(b))}


def _arm(bed, install, tightness: str, storm: bool,
         horizon_ns: float) -> dict:
    """Arm a cell's testbed or fleet: spans (origin-tagged), flight,
    metrics, the SLO tracker and the ``install`` checks, sampling until
    ``horizon_ns``.  Returns the cell's obs dict (no actuators)."""
    recorder = arm_testbed(bed)
    recorder.tag_origin = True
    flight = FlightRecorder(bed.sim, capacity=FLIGHT_CAPACITY)
    arm_flight(bed, flight, recorder=recorder)
    registry = bind_testbed_metrics(bed)
    sampler = TimeSeriesSampler(bed.sim, registry, window_ns=WINDOW_NS,
                                max_windows=MAX_WINDOWS)
    specs = [_victim_spec(tightness)]
    if storm:
        specs.append(_aggressor_spec())
    tracker = SLOTracker(bed.sim, specs, flight=flight)
    tracker.arm(recorder=recorder, sampler=sampler, registry=registry)
    checks = install(bed)
    checks.flight = flight
    sampler.start(horizon_ns)
    checks.start(horizon_ns)
    return dict(recorder=recorder, flight=flight, sampler=sampler,
                tracker=tracker, checks=checks, actuators=None)


def _drive_single(label: str, seed: int, armed: bool):
    """One single-host cell's run: ``(victim RTTs, completed, obs)``.

    ``armed=False`` builds the bed and its traffic only (``obs`` empty);
    ``True`` adds :func:`_arm` and, in the guard cell, the slo_guard."""
    n_tenants, tightness, interference, guarded = _parse_label(label)
    storm = interference == "storm"
    bed = build_lauberhorn_testbed(n_clients=4, seed=seed,
                                   preempt_on_backlog=True)
    table = _build_table(n_tenants, storm)
    bed.nic.attach_tenants(table)
    victim_service, victim_method = deploy_service(
        bed, "lauberhorn", name="victim", udp_port=9000,
        cost_instructions=VICTIM_COST, core=0, tenant="victim")
    aggr_parts = None
    if storm:
        aggr_service, aggr_method = deploy_service(
            bed, "lauberhorn", name="aggr", udp_port=9100,
            cost_instructions=PATTERNS["storm"]["cost"], core=1,
            tenant="aggressor", encrypted=PATTERNS["storm"]["encrypted"])
        aggr_parts = (aggr_service, aggr_method)
    for index in range(n_tenants - 2):
        by_service, by_method = deploy_service(
            bed, "lauberhorn", name=f"bystander{index}",
            udp_port=9200 + index, cost_instructions=VICTIM_COST,
            core=2 + index, tenant=f"bystander{index}")
        gen = OpenLoopGenerator(
            bed.clients[2 + index],
            ServiceMix([Target(by_service, by_method)]),
            bed.server_mac, bed.server_ip,
            random.Random(seed + 31 + index))
        bed.sim.process(gen.run(BYSTANDER_RATE, BYSTANDER_REQUESTS))

    obs = {}
    gate = None
    if armed:
        obs = _arm(bed, install_checks, tightness, storm, HORIZON_NS)
        if guarded:
            gate = AdmissionGate()
            obs["actuators"] = Actuators(bed.sim, nic=bed.nic, gate=gate)
            Controller(obs["sampler"], obs["actuators"],
                       PolicySpec.from_spec(GUARD_SPEC))

    aggressor_done: list = []
    if storm:
        _storm(bed.sim, bed.clients[1], bed.server_mac, bed.server_ip,
               aggr_parts[0], aggr_parts[1], random.Random(seed + 17),
               aggressor_done, gate=gate)
    victim_gen = OpenLoopGenerator(
        bed.clients[0],
        ServiceMix([Target(victim_service, victim_method)]),
        bed.server_mac, bed.server_ip, random.Random(seed + 1))
    bed.sim.process(victim_gen.run(VICTIM_RATE, VICTIM_REQUESTS))
    bed.sim.run(until=HORIZON_NS)
    if armed:
        obs["sampler"].finish()
        obs["violations"] = obs["checks"].finish()
    return list(victim_gen.recorder.samples), victim_gen.completed, obs


def measure_single_cell(label: str, seed: int = 0) -> SloCell:
    """One single-host cell, armed: SLO tracking, flame folding, and
    tail attribution."""
    return _finish_cell("single", label, VICTIM_REQUESTS,
                        *_drive_single(label, seed, armed=True))


FLEET_VICTIM_REQUESTS = 600
FLEET_VICTIM_FLOWS = 8


def _drive_fleet(label: str, seed: int, armed: bool):
    """One fleet cell's run: ``(victim RTTs, completed, obs)``; see
    :func:`_drive_single`."""
    _, tightness, interference, _ = _parse_label(label)
    storm = interference == "storm"
    fleet = build_fleet(
        [HostSpec(stack="lauberhorn", tor=0),
         HostSpec(stack="lauberhorn", tor=1)],
        topo=TopologySpec(n_tors=2),
        n_clients=2,
        seed=seed,
    )
    for host in fleet.hosts:
        host.nic.attach_tenants(_build_table(2, storm))
    host0 = fleet.hosts[0]
    aggr_parts = None
    if storm:
        aggr_service, aggr_method = deploy_service(
            host0, "lauberhorn", name="aggr", udp_port=9100,
            cost_instructions=PATTERNS["storm"]["cost"], core=1,
            tenant="aggressor", encrypted=PATTERNS["storm"]["encrypted"])
        aggr_parts = (aggr_service, aggr_method)
    fleet.deploy(name="victim", udp_port=9000,
                 cost_instructions=VICTIM_COST, tenant="victim")

    obs = {}
    if armed:
        obs = _arm(fleet, install_fleet_checks, tightness, storm,
                   FLEET_HORIZON_NS)

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

    fleet.sim.process(victim_loop(), name="e25-fleet-victim")
    aggressor_done: list = []
    if storm:
        _storm(fleet.sim, fleet.clients[1], host0.server_mac,
               host0.server_ip, aggr_parts[0], aggr_parts[1],
               random.Random(seed + 17), aggressor_done)
    fleet.run(until=FLEET_HORIZON_NS)
    if armed:
        obs["sampler"].finish()
        obs["violations"] = obs["checks"].finish()
    return list(rtts), len(completed), obs


def measure_fleet_cell(label: str, seed: int = 0) -> SloCell:
    """2-ToR rack, victim replicated on both hosts, storm on host 0:
    the tracker pages on the shared victim objective while the flame
    and tail groups attribute the pain to host0's replica."""
    return _finish_cell("fleet", label, FLEET_VICTIM_REQUESTS,
                        *_drive_fleet(label, seed, armed=True))


def _finish_cell(section, label, n_victim, rtts, completed, obs) -> SloCell:
    n_tenants, tightness, interference, guarded = _parse_label(label)
    recorder = obs["recorder"]
    tracker = obs["tracker"]
    profile = fold_spans(recorder)
    speedscope_ok = False
    if profile.groups():
        try:
            validate_speedscope(speedscope_json(profile))
            speedscope_ok = True
        except ValueError:
            speedscope_ok = False
    host = "host0"
    tail = tail_report(recorder, obs["sampler"], flight=obs["flight"],
                       quantile=TAIL_QUANTILE, max_requests=8)
    actuators = obs.get("actuators")
    return SloCell(
        section=section,
        label=label,
        n_tenants=n_tenants,
        tightness=tightness,
        interference=interference,
        guarded=guarded,
        n_victim=n_victim,
        victim_completed=completed,
        victim_p50_ns=nearest_rank(rtts, 0.50),
        victim_p99_ns=nearest_rank(rtts, 0.99),
        victim_p999_ns=nearest_rank(rtts, 0.999),
        slo=_trim_slo_report(tracker.report()),
        flame=_flame_summary(profile),
        flame_diff=_per_request_diff(profile, f"{host}/victim",
                                     f"{host}/aggressor"),
        speedscope_ok=speedscope_ok,
        tail_groups=tail.get("groups", {}),
        guard_actuations=len(actuators.log) if actuators else 0,
        violations=len(obs["violations"]),
        check_samples=obs["checks"].samples,
    )


def render_slo(cells: list["SloCell"]) -> None:
    titles = {
        "single": "E25 — SLO burn-rate alerting on one Lauberhorn host",
        "fleet": "E25 — 2-ToR fleet, storm on host0's victim replica",
    }
    for section in SECTIONS:
        rows = []
        for cell in cells:
            if cell.section != section:
                continue
            victim = cell.slo.get("specs", {}).get("victim", {})
            alert = victim.get("first_alert_ns")
            exhausted = victim.get("exhausted_ns")
            rows.append((
                cell.label,
                f"{cell.victim_completed}/{cell.n_victim}",
                fmt_ns(cell.victim_p999_ns),
                f"{victim.get('bad', 0)}/{victim.get('total', 0)}",
                fmt_ns(alert) if alert is not None else "-",
                fmt_ns(exhausted) if exhausted is not None else "-",
                (fmt_ns(victim["alert_lead_ns"])
                 if victim.get("alert_lead_ns") is not None else "-"),
                str(cell.violations),
            ))
        if rows:
            print_table(
                ["cell", "victim done", "v p99.9", "bad/total",
                 "first alert", "exhausted", "lead", "violations"],
                rows,
                title=titles[section],
            )
            print()


def write_slo_artifact(cells: list["SloCell"],
                       path: str = SLO_ARTIFACT) -> dict:
    from ..exp.pool import jsonable

    payload = {
        "experiment": "e25",
        "horizon_ns": HORIZON_NS,
        "fleet_horizon_ns": FLEET_HORIZON_NS,
        "storm_delay_ns": STORM_DELAY_NS,
        "objectives": {
            "tight": _victim_spec("tight").as_dict(),
            "loose": _victim_spec("loose").as_dict(),
            "aggressor": _aggressor_spec().as_dict(),
        },
        "sections": list(SECTIONS),
        "cells": [jsonable(cell) for cell in cells],
    }
    return write_json_artifact(payload, path)


def _assemble(values: list, smoke: bool) -> list[SloCell]:
    cells = [SloCell(**value) for value in values]
    render_slo(cells)
    write_slo_artifact(cells)
    print(f"[wrote {artifact_path(SLO_ARTIFACT)}: {len(cells)} cells]")
    return cells


GRID = Grid(
    name="e25",
    title="Tenant SLOs — burn-rate alerts, budget ledgers & flame "
          "attribution",
    points=tuple(
        (f"{section}@{label}",
         f"e25_slo:measure_{section}_cell", {"label": label})
        for section in SECTIONS
        for label in cell_labels(section)
    ),
    assemble=_assemble,
    seeded=True,
    # the tight-objective calm/storm pair
    smoke=("single@2t-tight-calm", "single@2t-tight-storm"),
)
