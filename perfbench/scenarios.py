"""The benchmark's workloads, built from the simulator's public constructors.

Every parameter of what gets simulated lives in this file, so a later
refactor of ``repro.experiments`` cannot change what is measured.  A
workload takes a seed, builds its system and seeded open-loop traffic,
and returns its run step; the run step simulates to a fixed horizon
(through a calibration meter, if given one), runs any post-run
forensics and returns a :class:`Rep`: host-side
phase timings plus the simulated outputs, the simulated counters and
the problems its output checks found.  The simulated systems are fixed
(:data:`SYSTEM_SEED`); the simulated program sees the seed only through
the traffic generated from it: arrival gaps, argument vectors and flow
choices.  The aggressors send at a constant rate.

Workloads (all open loop; measured streams have Poisson arrivals in
simulated time):

* ``echo4.<stack>`` -- one testbed, one echo service, small arguments,
  a 500-instruction handler at 50k req/s, nothing armed;
* ``tenant_storm`` -- one Lauberhorn host with accounting-only tenancy:
  a calm victim, then an encrypted ~4 KB aggressor storm, with spans,
  flight recorder, metrics, sampler, SLO tracker and invariant checks
  armed and the flame/speedscope/tail/SLO forensics run afterwards;
* ``fleet_mixed`` -- a 2-ToR fleet with one host per stack, the victim
  replicated on all four over Zipf-skewed ECMP flows, and an aggressor
  policed at the Lauberhorn demux, with fleet invariant checks armed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass
from functools import partial

from repro.check import install_checks, install_fleet_checks
from repro.experiments.testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)
from repro.fleet import HostSpec, build_fleet
from repro.net.topology import TopologySpec
from repro.obs import (
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
from repro.sim.profile import attach_profile
from repro.tenancy import TenantTable
from repro.workloads.distributions import args_for_payload

__all__ = ["STACKS", "WORKLOADS", "Rep", "Stream"]

STACKS = ("linux", "snap", "bypass", "lauberhorn")
MS = 1_000_000.0  # simulated ns per ms
#: the simulated systems are fixed; only the traffic comes from --seed
SYSTEM_SEED = 0

# -- echo4.<stack> ---------------------------------------------------------
ECHO_RATE = 50_000.0
ECHO_REQUESTS = 1100
ECHO_COST = 500
ECHO_HORIZON_NS = 30 * MS

# -- tenant_storm -----------------------------------------------------------
STORM_HORIZON_NS = 15 * MS
VICTIM_RATE = 100_000.0
VICTIM_REQUESTS = 1100
VICTIM_COST = 500
#: calm prefix before the aggressor starts
STORM_DELAY_NS = 3 * MS
#: the aggressor: 3968 B encrypted payloads (crypto + deserialise ~540 ns
#: outruns their ~320 ns wire time) at 2.5 Mfps
AGGR_PAYLOAD = 3968
AGGR_RATE = 2.5e6
AGGR_COUNT = 1500
AGGR_COST = 2000
#: obs arming: sampler windows, flight ring, tail quantile
WINDOW_NS = 100_000.0
FLIGHT_CAPACITY = 512
TAIL_QUANTILE = 0.99
#: invariant sampling period (the final sweep runs regardless)
CHECK_INTERVAL_NS = 1 * MS
VICTIM_SLO = dict(latency_threshold_ns=20_000.0, latency_target=0.95,
                  fast_window_ns=500_000.0, slow_window_ns=2 * MS,
                  burn_threshold=2.0, min_requests=8)
AGGR_SLO = dict(latency_threshold_ns=1 * MS, latency_target=0.5,
                availability_target=0.9, timeout_ns=5 * MS,
                fast_window_ns=500_000.0, slow_window_ns=2 * MS,
                burn_threshold=2.0, min_requests=8)

# -- fleet_mixed -------------------------------------------------------------
FLEET_HORIZON_NS = 15 * MS
#: (stack, ToR) per host; host 0 carries the policed aggressor
FLEET_HOSTS = (("lauberhorn", 0), ("linux", 0), ("snap", 1), ("bypass", 1))
FLEET_VICTIM_RATE = 100_000.0
FLEET_VICTIM_REQUESTS = 1100
FLEET_FLOWS = 64
FLEET_ZIPF_ALPHA = 0.9
FLEET_AGGR_COUNT = 1000
#: isolation on: the aggressor is rate-policed at the Lauberhorn demux
AGGR_RATE_LIMIT = 50_000.0
AGGR_BURST = 16.0
AGGR_CTRL_BUDGET = 4

_BUILDERS = {
    "linux": build_linux_testbed,
    "snap": build_bypass_testbed,
    "bypass": build_bypass_testbed,
    "lauberhorn": build_lauberhorn_testbed,
}


def _rng(seed: int, *names: str) -> random.Random:
    """An input stream of its own per (workload part, seed)."""
    return random.Random(":".join(("perfbench",) + names + (str(seed),)))


def small_args(rng: random.Random) -> list:
    """One to eight small integers: the echo payload."""
    return [rng.randrange(1 << 30) for _ in range(rng.randint(1, 8))]


class Phases:
    """Host wall clock split into named, additive phases."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._mark = time.perf_counter()

    def restart(self) -> None:
        """Start the next phase now, dropping the time since the last lap."""
        self._mark = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._mark
        self._mark = now


class Stream:
    """One measured open-loop request stream and its ledger.

    Each completion is checked: the echo handler must hand back exactly
    the arguments the request carried.
    """

    def __init__(self, name: str):
        self.name = name
        self.offered = 0
        self.rtts: list[float] = []
        #: the replica/stack label of each completion, in order
        self.labels: list[str] = []
        self.mismatches = 0

    @property
    def completed(self) -> int:
        return len(self.rtts)

    def note(self, args: list, label: str, event) -> None:
        result = event.value
        if list(result.results) != args:
            self.mismatches += 1
        self.rtts.append(result.rtt_ns)
        self.labels.append(label)


def open_loop(sim, name: str, send, rate: float, n: int,
              rng: random.Random) -> Stream:
    """``n`` Poisson arrivals at ``rate``, each sent by
    ``send(args) -> (event, label)``; returns the stream's ledger."""
    stream = Stream(name)
    gap = 1e9 / rate

    def body():
        for _ in range(n):
            args = small_args(rng)
            event, label = send(args)
            stream.offered += 1
            event.add_callback(partial(stream.note, args, label))
            yield sim.timeout(rng.expovariate(1.0) * gap)

    sim.process(body(), name=f"bench-{name}")
    return stream


@dataclass
class Aggressor:
    """Fire-and-forget flood at a constant rate; never waits for
    completions."""

    sent: int = 0
    completed: int = 0

    def start(self, sim, client, call: dict, count: int,
              delay_ns: float) -> None:
        args = args_for_payload(AGGR_PAYLOAD)
        gap = 1e9 / AGGR_RATE

        def done(_event) -> None:
            self.completed += 1

        def body():
            yield sim.timeout(delay_ns)
            for _ in range(count):
                client.send_request(args=args, **call).add_callback(done)
                self.sent += 1
                yield sim.timeout(gap)

        sim.process(body(), name="bench-aggressor")


@dataclass
class Rep:
    """One simulated run of a workload."""

    phases: dict
    #: every simulated request offered, aggressor frames included
    offered: int
    #: the measured requests
    stream: Stream
    #: simulated counters (deterministic for a seed)
    counters: dict
    #: simulated outputs beyond the stream (obs forensics, ledgers)
    outputs: dict
    #: engine bookkeeping, host-independent but not a simulated output
    engine: dict
    problems: list

    @property
    def setup_s(self) -> float:
        return sum(seconds for phase, seconds in self.phases.items()
                   if phase not in ("run", "post"))

    @property
    def timed_s(self) -> float:
        """Simulation plus post-run forensics."""
        return self.phases.get("run", 0.0) + self.phases.get("post", 0.0)

    @property
    def failed(self) -> int:
        """Measured requests not completed by the horizon."""
        return self.stream.offered - self.stream.completed

    def rtts(self) -> list:
        return sorted(self.stream.rtts)

    def rtts_by_label(self) -> dict:
        """Sorted RTTs per serving stack."""
        out: dict = {}
        for rtt, label in zip(self.stream.rtts, self.stream.labels):
            out.setdefault(label, []).append(rtt)
        return {label: sorted(rtts) for label, rtts in out.items()}

    def digest(self) -> str:
        """SHA-256 over the simulated outputs only."""
        payload = {
            "stream": [self.stream.offered, self.stream.rtts,
                       self.stream.labels],
            "counters": self.counters,
            "outputs": self.outputs,
        }
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# -- shared bookkeeping --------------------------------------------------------


def _switch_links(switches) -> list:
    return [link for switch in switches for port in switch.ports.values()
            for link in (port.ingress, port.egress)]


def _counters(beds, switches, n_requests: int) -> dict:
    """Simulated per-layer counters summed over every host."""
    links = _switch_links(switches)
    nics = [bed.nic for bed in beds]
    lstats = [nic.lstats for nic in nics if hasattr(nic, "lstats")]
    kernels = [bed.kernel.stats for bed in beds if bed.kernel is not None]
    busy = sum(bed.machine.total_busy_ns() for bed in beds)
    stall = sum(bed.machine.total_stall_ns() for bed in beds)
    return {
        "net.frames": sum(link.stats.frames for link in links),
        "net.bytes": sum(link.stats.bytes for link in links),
        "net.drops": (sum(link.stats.dropped for link in links)
                      + sum(s.unknown_dst_drops for s in switches)),
        "nic.rx_frames": sum(nic.stats.rx_frames for nic in nics),
        "nic.rx_dropped": sum(nic.stats.rx_dropped for nic in nics),
        "nic.tryagains": sum(s.tryagains for s in lstats),
        "nic.dma_fallbacks": sum(s.dma_fallbacks for s in lstats),
        "nic.backlog_drops": sum(s.dropped_backlog_full for s in lstats),
        "nic.preempt_requests": sum(s.preempt_requests for s in lstats),
        "os.context_switches": sum(k.context_switches for k in kernels),
        "os.irqs": sum(k.irqs for k in kernels),
        "os.syscalls": sum(k.syscalls for k in kernels),
        "os.preemptions": sum(k.preemptions for k in kernels),
        "hw.busy_ns_per_req": busy / n_requests,
        "hw.stall_ns_per_req": stall / n_requests,
    }


def _advance(sim, horizon: float, meter) -> None:
    """Simulate to ``horizon``, through ``meter`` when one is given."""
    if meter is None:
        sim.run(until=horizon)
    else:
        meter.advance(sim, horizon)


def _engine(sim) -> dict:
    # the profile counters belong to the engine's implementation; one a
    # later engine drops reads 0 rather than breaking the benchmark
    report = attach_profile(sim).report()
    return {
        "events": report.get("events_dispatched", 0),
        "timeouts_cancelled": report.get("timeouts_cancelled", 0),
        "sim_ns": sim.now,
    }


def _stream_problems(stream: Stream, client) -> list:
    """completed + failed = offered, reconciled with the stream's client
    (the only sender on it)."""
    problems = []
    failed = client.outstanding + client.give_ups
    if stream.completed + failed != stream.offered:
        problems.append(
            f"{stream.name}: completed {stream.completed} + failed {failed}"
            f" != offered {stream.offered}")
    if stream.mismatches:
        problems.append(f"{stream.name}: {stream.mismatches} responses did "
                        "not echo their arguments")
    return problems


def _tenancy(table: TenantTable, aggressor: Aggressor) -> dict:
    ledger = table.snapshot()
    return {
        "tenancy.policed": ledger["aggressor.rate_dropped"],
        "tenancy.admitted": ledger["aggressor.admitted"],
        "tenancy.aggressor_completed": aggressor.completed,
    }


# -- workloads -------------------------------------------------------------------


def echo4(stack: str, seed: int):
    phases = Phases()
    bed = _BUILDERS[stack](seed=SYSTEM_SEED)
    service, method = deploy_service(bed, stack, cost_instructions=ECHO_COST)
    client = bed.clients[0]
    call = bed.call_args(service, method)
    stream = open_loop(
        bed.sim, "echo",
        lambda args: (client.send_request(args=args, **call), stack),
        ECHO_RATE, ECHO_REQUESTS, _rng(seed, "echo4", stack))
    phases.lap("build")

    def run(meter=None) -> Rep:
        phases.restart()
        _advance(bed.sim, ECHO_HORIZON_NS, meter)
        phases.lap("run")
        return Rep(
            phases=phases.seconds,
            offered=stream.offered,
            stream=stream,
            counters=_counters([bed], [bed.switch], stream.offered),
            outputs={},
            engine=_engine(bed.sim),
            problems=_stream_problems(stream, client),
        )

    return run


def tenant_storm(seed: int):
    phases = Phases()
    bed = build_lauberhorn_testbed(n_clients=2, seed=SYSTEM_SEED,
                                   preempt_on_backlog=True)
    table = TenantTable()
    table.create("victim")
    table.create("aggressor")
    bed.nic.attach_tenants(table)
    victim_service, victim_method = deploy_service(
        bed, "lauberhorn", name="victim", udp_port=9000,
        cost_instructions=VICTIM_COST, core=0, tenant="victim")
    aggr_service, aggr_method = deploy_service(
        bed, "lauberhorn", name="aggr", udp_port=9100,
        cost_instructions=AGGR_COST, core=1, tenant="aggressor",
        encrypted=True)
    phases.lap("build")

    recorder = arm_testbed(bed)
    recorder.tag_origin = True
    flight = FlightRecorder(bed.sim, capacity=FLIGHT_CAPACITY)
    arm_flight(bed, flight, recorder=recorder)
    registry = bind_testbed_metrics(bed)
    sampler = TimeSeriesSampler(
        bed.sim, registry, window_ns=WINDOW_NS,
        max_windows=int(STORM_HORIZON_NS // WINDOW_NS) + 1)
    tracker = SLOTracker(bed.sim, [
        SLOSpec(name="victim", tenant="victim", **VICTIM_SLO),
        SLOSpec(name="aggr", tenant="aggressor", **AGGR_SLO),
    ], flight=flight)
    tracker.arm(recorder=recorder, sampler=sampler, registry=registry)
    phases.lap("arm")
    checks = install_checks(bed, interval_ns=CHECK_INTERVAL_NS)
    checks.flight = flight
    phases.lap("install")
    sampler.start(STORM_HORIZON_NS)
    checks.start(STORM_HORIZON_NS)

    client = bed.clients[0]
    call = bed.call_args(victim_service, victim_method)
    victim = open_loop(
        bed.sim, "victim",
        lambda args: (client.send_request(args=args, **call), "lauberhorn"),
        VICTIM_RATE, VICTIM_REQUESTS, _rng(seed, "storm", "victim"))
    aggressor = Aggressor()
    aggressor.start(bed.sim, bed.clients[1], bed.call_args(aggr_service,
                                                           aggr_method),
                    AGGR_COUNT, STORM_DELAY_NS)
    phases.lap("build")

    def run(meter=None) -> Rep:
        phases.restart()
        _advance(bed.sim, STORM_HORIZON_NS, meter)
        phases.lap("run")
        sampler.finish()
        violations = checks.finish()
        profile = fold_spans(recorder)
        problems = _stream_problems(victim, client)
        flame = {}
        for group in profile.groups():
            self_sum = profile.self_sum_ns(group)
            root_sum = profile.root_sum_ns(group)
            if self_sum != root_sum:
                problems.append(f"flame {group}: self-sum {self_sum} ns != "
                                f"root-sum {root_sum} ns")
            flame[group] = [profile.n_traces(group), root_sum]
        try:
            validate_speedscope(speedscope_json(profile))
        except ValueError as exc:
            problems.append(f"speedscope export invalid: {exc}")
        tail = tail_report(recorder, sampler, flight=flight,
                           quantile=TAIL_QUANTILE, max_requests=8)
        slo = tracker.report()
        phases.lap("post")

        problems += [str(v) for v in violations]
        if not flame:
            problems.append("no span trees were folded")
        n_requests = victim.offered + aggressor.sent
        counters = _counters([bed], [bed.switch], n_requests)
        counters.update(_tenancy(table, aggressor))
        counters.update({
            "check.samples": checks.samples,
            "check.violations": len(violations),
            "obs.spans": len(recorder),
            "obs.windows": sampler.samples,
        })
        victim_slo = slo["specs"]["victim"]
        return Rep(
            phases=phases.seconds,
            offered=n_requests,
            stream=victim,
            counters=counters,
            outputs={
                "flame": flame,
                "tail": [tail["n_slow"], tail["threshold_ns"],
                         tail.get("groups", {})],
                "slo": [slo["n_alerts"], victim_slo["total"],
                        victim_slo["bad"], victim_slo["first_alert_ns"],
                        victim_slo["exhausted_ns"]],
                "ledger": table.snapshot(),
            },
            engine=_engine(bed.sim),
            problems=problems,
        )

    return run


def _zipf_cumulative(n: int, alpha: float) -> list:
    return list(itertools.accumulate(1.0 / (k + 1) ** alpha
                                     for k in range(n)))


def fleet_mixed(seed: int):
    phases = Phases()
    fleet = build_fleet(
        [HostSpec(stack=stack, tor=tor) for stack, tor in FLEET_HOSTS],
        topo=TopologySpec(n_tors=2), n_clients=2, seed=SYSTEM_SEED)
    host0 = fleet.hosts[0]
    table = TenantTable()
    table.create("victim", weight=2.0)
    table.create("aggressor", weight=1.0, ctrl_budget=AGGR_CTRL_BUDGET,
                 rate_limit_rps=AGGR_RATE_LIMIT, rate_burst=AGGR_BURST)
    host0.nic.attach_tenants(table)
    aggr_service, aggr_method = deploy_service(
        host0, "lauberhorn", name="aggr", udp_port=9100,
        cost_instructions=AGGR_COST, core=1, tenant="aggressor",
        encrypted=True)
    fleet.deploy(name="victim", udp_port=9000,
                 cost_instructions=VICTIM_COST, tenant="victim")
    phases.lap("build")
    checks = install_fleet_checks(fleet, interval_ns=CHECK_INTERVAL_NS)
    phases.lap("install")
    checks.start(FLEET_HORIZON_NS)

    client = fleet.clients[0]
    balancer = fleet.balancer
    stacks = [deployment.host.stack for deployment in fleet.deployments]
    flow_rng = _rng(seed, "fleet", "flows")
    flows = range(FLEET_FLOWS)
    cumulative = _zipf_cumulative(FLEET_FLOWS, FLEET_ZIPF_ALPHA)

    def send(args):
        port = 41000 + flow_rng.choices(flows, cum_weights=cumulative)[0]
        replica = balancer.index_for(client.ip, port)
        return fleet.send(client, port, args), stacks[replica]

    victim = open_loop(fleet.sim, "victim", send, FLEET_VICTIM_RATE,
                       FLEET_VICTIM_REQUESTS, _rng(seed, "fleet", "victim"))
    aggressor = Aggressor()
    aggressor.start(fleet.sim, fleet.clients[1],
                    host0.call_args(aggr_service, aggr_method),
                    FLEET_AGGR_COUNT, STORM_DELAY_NS)
    phases.lap("build")

    def run(meter=None) -> Rep:
        phases.restart()
        _advance(fleet.sim, FLEET_HORIZON_NS, meter)
        phases.lap("run")
        violations = checks.finish()
        phases.lap("post")

        problems = (_stream_problems(victim, client)
                    + [str(v) for v in violations])
        served = [victim.labels.count(stack) for stack in stacks]
        if served != balancer.routed:
            problems.append(f"balancer routed {balancer.routed} != served "
                            f"{served}")
        if not 0 < aggressor.completed < aggressor.sent:
            problems.append(f"aggressor: {aggressor.completed} of "
                            f"{aggressor.sent} completed; policing should "
                            "drop some and admit some")
        n_requests = victim.offered + aggressor.sent
        counters = _counters(fleet.hosts, fleet.switches, n_requests)
        counters.update(_tenancy(table, aggressor))
        mean_routed = sum(balancer.routed) / len(balancer.routed)
        counters.update({
            "check.samples": checks.samples,
            "check.violations": len(violations),
            "fleet.imbalance": max(balancer.routed) / mean_routed,
            "fleet.cross_rack_flows": sum(
                1 for index in balancer.affinity.values()
                if fleet.deployments[index].host.tor != 0),
        })
        return Rep(
            phases=phases.seconds,
            offered=n_requests,
            stream=victim,
            counters=counters,
            outputs={"routed": list(balancer.routed),
                     "ledger": table.snapshot()},
            engine=_engine(fleet.sim),
            problems=problems,
        )

    return run


#: name -> ``setup(seed)``, which builds the system and returns its
#: ``run() -> Rep`` step
WORKLOADS = {f"echo4.{stack}": partial(echo4, stack) for stack in STACKS}
WORKLOADS["tenant_storm"] = tenant_storm
WORKLOADS["fleet_mixed"] = fleet_mixed
