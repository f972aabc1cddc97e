"""E21 — system timelines: time series, flight recorder, tail forensics.

E20 established *request-scoped* observability (span trees).  This
experiment adds the *system-scoped* half and joins the two:

* **windowed time series** — a :class:`~repro.obs.timeseries.\
TimeSeriesSampler` reads the full metrics registry every ``WINDOW_NS``
  of simulated time, so run-queue depth, NIC ring occupancy, socket
  backlog, and fault counters become plottable series spanning the
  hardware, OS, and NIC layers of every stack;
* **flight recorder** — a bounded ring of recent annotated events
  (span opens/closes, scheduler dispatches, Tryagain bounces, fault
  injections); a deliberately injected invariant violation mid-run
  makes :class:`~repro.check.CheckRegistry` freeze a post-mortem dump,
  demonstrating the dump-on-violation path end to end;
* **tail forensics** — :func:`~repro.obs.tail.tail_report` joins each
  p99.9 request's span tree with the time-series windows and flight
  events it overlapped, attributing every slow request to the
  concurrent system state instead of leaving it a mystery number.

The workload is the E11 echo service driven in *bursts* (back-to-back
submissions separated by idle gaps) under a mild fault plan, so the
timelines show real queue build-up and the tail has actual causes.
Sampling timers, ring appends and the armed checks are host-side only,
so arming moves no simulated result: ``tests/obs/test_arming_is_inert.py``
runs every stack under this plan bare and armed (``_drive`` with and
without ``_arm``) and requires equal RTT lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..check import install_checks
from ..faults import FaultPlan, active
from ..metrics.histogram import nearest_rank
from ..obs.flight import FlightRecorder
from ..obs.instrument import arm_flight, arm_testbed, bind_testbed_metrics
from ..obs.tail import render_tail_report, tail_report
from ..obs.timeseries import TimeSeriesSampler
from ..sim.clock import MS
from .four_stacks import STACKS, _build_stack
from .grid import Grid, artifact_path, write_json_artifact
from .report import fmt_ns, print_table

__all__ = ["GRID", "TimelineResult", "measure_timeline_stack",
           "render_timeline", "write_timeline_artifact", "TIMELINE_ARTIFACT"]

#: default location of the JSON artifact (relative to the runner's cwd)
TIMELINE_ARTIFACT = "results/e21_timeline.json"

#: sampling window width: 120 windows over the 60 ms horizon
WINDOW_NS = 500_000.0
MAX_WINDOWS = 256
FLIGHT_CAPACITY = 512
HORIZON_NS = 60 * MS
#: when the deliberately broken invariant first reports a problem
INJECT_AT_NS = 30 * MS
TAIL_QUANTILE = 0.999

N_REQUESTS = 40
BURST = 8
BURST_GAP_NS = 600_000.0

#: the fault mix behind the timelines: mild loss + RX stalls plus the
#: FaultPlan.default background rates, same spec family as E19
FAULT_SPEC = "default,seed={seed},loss=0.01,stall=0.01"

#: layer attribution for the metric-coverage table: snapshot-key prefix
#: -> layer label
LAYER_PREFIXES = (("machine.", "hw"), ("kernel.", "os"),
                  ("netstack.", "os"), ("nic.", "nic"))


@dataclass(frozen=True)
class TimelineResult:
    """One stack's timeline run (JSON-able field for field)."""

    stack: str
    n_requests: int
    completed: int
    p50_rtt_ns: float
    p999_rtt_ns: float
    #: {"hw": n, "os": n, "nic": n} distinct windowed metric names
    layers: dict = field(default_factory=dict)
    #: :meth:`TimeSeriesSampler.as_dict` payload
    timeseries: dict = field(default_factory=dict)
    #: the CheckRegistry's frozen post-mortem (None = no violation seen)
    flight_dump: Optional[dict] = None
    #: recorded violations as strings (the injected one, and only it)
    violations: list = field(default_factory=list)
    #: :func:`tail_report` payload
    tail: dict = field(default_factory=dict)


def _drive(bed, service, method, n_requests: int) -> list[float]:
    """Bursty open-loop echo load; returns completed RTTs in order."""
    client = bed.clients[0]
    rtts: list[float] = []

    def collect(event):
        rtts.append(event._value.rtt_ns)

    def driver():
        yield bed.sim.timeout(10_000)
        sent = 0
        while sent < n_requests:
            for _ in range(min(BURST, n_requests - sent)):
                event = client.send_request(
                    bed.server_mac, bed.server_ip, service.udp_port,
                    service.service_id, method.method_id, [sent],
                )
                event.add_callback(collect)
                sent += 1
            yield bed.sim.timeout(BURST_GAP_NS)

    bed.sim.process(driver())
    bed.machine.run(until=HORIZON_NS)
    return rtts


def _inject_violation(checks, sim, at_ns: float) -> None:
    """Register a check that reports exactly one deliberate violation.

    It fires on the first periodic sample at or after ``at_ns``; with
    a flight recorder attached to the registry, that single violation
    freezes the post-mortem dump this experiment demonstrates.
    """
    fired: list[bool] = []

    def check():
        if not fired and sim.now >= at_ns:
            fired.append(True)
            return [f"deliberately injected for the E21 post-mortem "
                    f"demo at {sim.now:.0f} ns"]
        return ()

    checks.add("e21-injected", check)


def _layer_counts(names: list[str]) -> dict[str, int]:
    counts = {"hw": 0, "os": 0, "nic": 0}
    for name in names:
        for prefix, layer in LAYER_PREFIXES:
            if name.startswith(prefix):
                counts[layer] += 1
                break
    return counts


def _build(stack: str, seed: int):
    """One stack's echo testbed, built under this experiment's plan."""
    with active(FaultPlan.from_spec(FAULT_SPEC.format(seed=seed))):
        return _build_stack(stack)


def _arm(bed):
    """Arm spans, flight, the windowed sampler and the checks (with the
    injected violation) on ``bed``, sampling until the horizon."""
    recorder = arm_testbed(bed)
    registry = bind_testbed_metrics(bed)
    sampler = TimeSeriesSampler(bed.sim, registry, window_ns=WINDOW_NS,
                                max_windows=MAX_WINDOWS)
    flight = FlightRecorder(bed.sim, capacity=FLIGHT_CAPACITY)
    arm_flight(bed, flight, recorder=recorder)
    checks = install_checks(bed)
    checks.flight = flight
    _inject_violation(checks, bed.sim, INJECT_AT_NS)
    sampler.start(HORIZON_NS)
    checks.start(HORIZON_NS)
    return recorder, sampler, flight, checks


def measure_timeline_stack(stack: str, n_requests: int = N_REQUESTS,
                           seed: int = 0) -> TimelineResult:
    """Run one stack fully armed; join the three layers."""
    bed, service, method = _build(stack, seed)
    recorder, sampler, flight, checks = _arm(bed)
    rtts = _drive(bed, service, method, n_requests)
    sampler.finish()
    violations = checks.finish()

    tail = tail_report(recorder, sampler, flight=flight,
                       quantile=TAIL_QUANTILE, max_requests=8)
    return TimelineResult(
        stack=stack,
        n_requests=n_requests,
        completed=len(rtts),
        p50_rtt_ns=nearest_rank(rtts, 0.50),
        p999_rtt_ns=nearest_rank(rtts, TAIL_QUANTILE),
        layers=_layer_counts(sampler.names()),
        timeseries=sampler.as_dict(),
        flight_dump=checks.flight_dump,
        violations=[str(v) for v in violations],
        tail=tail,
    )


def render_timeline(results: list["TimelineResult"]) -> None:
    """The E21 artifact: coverage summary + per-stack tail forensics."""
    rows = []
    for r in results:
        dump = r.flight_dump
        dump_cell = (f"{len(dump['events'])} events"
                     if dump is not None else "MISSING")
        rows.append((
            r.stack,
            f"{r.completed}/{r.n_requests}",
            str(r.timeseries.get("samples", 0)),
            f"hw:{r.layers.get('hw', 0)} os:{r.layers.get('os', 0)} "
            f"nic:{r.layers.get('nic', 0)}",
            dump_cell,
            str(len(r.violations)),
        ))
    print_table(
        ["stack", "done", "windows", "metrics by layer", "flight dump",
         "violations"],
        rows,
        title="E21 — timelines and post-mortems",
    )
    print_table(
        ["stack", "p50 RTT", "p99.9 RTT", "slow reqs", "threshold"],
        [(r.stack, fmt_ns(r.p50_rtt_ns), fmt_ns(r.p999_rtt_ns),
          f"{r.tail.get('n_slow', 0)}/{r.tail.get('n_requests', 0)}",
          fmt_ns(r.tail.get("threshold_ns", 0.0))) for r in results],
        title="Tail forensics — p99.9 requests joined with system state",
    )
    for r in results:
        print()
        print(render_tail_report(r.tail, title=r.stack))


def write_timeline_artifact(results: list["TimelineResult"],
                            path: str = TIMELINE_ARTIFACT) -> dict:
    """Write the full joined payload as one JSON artifact."""
    from ..exp.pool import jsonable

    payload = {
        "experiment": "e21",
        "window_ns": WINDOW_NS,
        "horizon_ns": HORIZON_NS,
        "stacks": {r.stack: jsonable(r) for r in results},
    }
    return write_json_artifact(payload, path)


def _assemble(values: list, smoke: bool) -> list[TimelineResult]:
    results = [TimelineResult(**value) for value in values]
    render_timeline(results)
    payload = write_timeline_artifact(results)
    print(f"\n[wrote {artifact_path(TIMELINE_ARTIFACT)}: "
          f"{len(payload['stacks'])} stacks]")
    return results


GRID = Grid(
    name="e21",
    title="Time-series telemetry, flight recorder & tail forensics",
    points=tuple(
        (stack, "e21_timeline:measure_timeline_stack", {"stack": stack})
        for stack in STACKS
    ),
    assemble=_assemble,
    seeded=True,
)
