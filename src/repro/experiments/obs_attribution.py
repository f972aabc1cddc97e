"""E20 — request-scoped observability: attribution and overhead.

Runs the Section 2 design space (the same four stacks and echo
workload as E11) twice per stack: once *unarmed* (no span recorder
attached, the shipping configuration) and once *armed* (every layer
records spans into one :class:`~repro.obs.spans.SpanRecorder`).

Two results come out:

* **per-stage latency attribution** — where a request's RTT actually
  goes in each architecture (wire, NIC, softirq, sockets, application,
  egress), computed from the span tree rather than hand-inserted
  timestamps; and
* **measured tracing overhead** — spans do Python-side bookkeeping
  only and never advance simulated time, so the armed run must produce
  *bit-identical* RTTs; the host-CPU cost of arming is reported from
  wall-clock timing.

The armed spans are also the payload for the Perfetto/Chrome-trace
artifact (``results/e20_trace.json``) written by the runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..metrics.histogram import nearest_rank
from ..obs.export import stage_attribution
from ..obs.instrument import arm_testbed, bind_testbed_metrics
from ..sim.clock import MS
from .four_stacks import STACKS, _build_stack
from .grid import Grid
from .report import fmt_ns, print_table

__all__ = ["GRID", "ObsResult", "STAGE_ORDER", "measure_obs_stack",
           "render_obs_attribution", "write_trace_artifact",
           "TRACE_ARTIFACT"]

#: default location of the Perfetto artifact (relative to the cwd the
#: runner was started from)
TRACE_ARTIFACT = "results/e20_trace.json"

#: per-stack stage ordering for the attribution tables (request order)
STAGE_ORDER: dict[str, tuple[str, ...]] = {
    "linux": ("wire.req", "nic.rx", "os.softirq", "os.socket", "app",
              "os.tx", "nic.tx", "wire.resp"),
    "snap": ("wire.req", "nic.rx", "app", "nic.tx", "wire.resp"),
    "bypass": ("wire.req", "nic.rx", "app", "nic.tx", "wire.resp"),
    "lauberhorn": ("wire.req", "nic.rx", "nic.dispatch", "app",
                   "nic.egress", "nic.tx", "wire.resp"),
}


@dataclass(frozen=True)
class ObsResult:
    """One stack's armed-vs-unarmed comparison."""

    stack: str
    n_requests: int
    p50_rtt_ns: float
    #: {stage name: (count, mean ns)} from the armed run's spans
    stages: dict = field(default_factory=dict)
    #: spans as ``Span.as_dict()`` dicts (JSON-able, export-ready)
    spans: list = field(default_factory=list)
    #: armed RTT list == unarmed RTT list, element for element
    identical: bool = True
    #: span-tree integrity violations (must be empty)
    violations: list = field(default_factory=list)
    #: host wall-clock seconds for the unarmed / armed runs
    host_s_unarmed: float = 0.0
    host_s_armed: float = 0.0
    #: number of metric rows a full registry snapshot yields
    metric_rows: int = 0

    @property
    def overhead_pct(self) -> float:
        if self.host_s_unarmed <= 0:
            return 0.0
        return 100.0 * (self.host_s_armed / self.host_s_unarmed - 1.0)


def _drive(bed, service, method, n_requests: int) -> list[float]:
    """The E11 echo workload: warmup call + ``n_requests`` pipelined."""
    client = bed.clients[0]
    rtts: list[float] = []

    def driver():
        yield bed.sim.timeout(10_000)
        yield from client.call(args=[0], **bed.call_args(service, method))
        events = [
            client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            for i in range(n_requests)
        ]
        for event in events:
            result = yield event
            rtts.append(result.rtt_ns)

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    return rtts


def measure_obs_stack(stack: str, n_requests: int = 25) -> ObsResult:
    """Run one stack unarmed then armed; compare and attribute."""
    started = time.perf_counter()
    bed, service, method = _build_stack(stack)
    base_rtts = _drive(bed, service, method, n_requests)
    host_s_unarmed = time.perf_counter() - started

    started = time.perf_counter()
    bed, service, method = _build_stack(stack)
    recorder = arm_testbed(bed)
    registry = bind_testbed_metrics(bed, prefix=stack)
    armed_rtts = _drive(bed, service, method, n_requests)
    host_s_armed = time.perf_counter() - started

    return ObsResult(
        stack=stack,
        n_requests=n_requests,
        p50_rtt_ns=nearest_rank(armed_rtts, 0.50),
        stages={name: list(stat) for name, stat in
                stage_attribution(recorder.spans).items()},
        spans=[span.as_dict() for span in recorder.spans],
        identical=armed_rtts == base_rtts,
        violations=recorder.check_integrity(),
        host_s_unarmed=host_s_unarmed,
        host_s_armed=host_s_armed,
        metric_rows=len(registry.snapshot()),
    )


def render_obs_attribution(results: list["ObsResult"]) -> None:
    """The E20 artifact: one attribution table per stack + a summary."""
    for result in results:
        known = STAGE_ORDER.get(result.stack, ())
        stages = dict(result.stages)
        ordered = [name for name in known if name in stages]
        ordered += sorted(name for name in stages
                          if name not in known and name != "rpc")
        rpc_count, rpc_mean = stages.get("rpc", (result.n_requests + 1,
                                                 result.p50_rtt_ns))
        rows = []
        for name in ordered:
            count, mean = stages[name]
            share = 100.0 * mean / rpc_mean if rpc_mean else 0.0
            rows.append((name, str(count), fmt_ns(mean), f"{share:5.1f}%"))
        rows.append(("rpc (total)", str(rpc_count), fmt_ns(rpc_mean), "100.0%"))
        print_table(
            ["stage", "count", "mean", "of RTT"],
            rows,
            title=f"{result.stack} — per-stage latency attribution",
        )
    print_table(
        ["stack", "spans", "metrics", "RTTs identical", "violations",
         "host overhead"],
        [(r.stack, str(len(r.spans)), str(r.metric_rows),
          "yes" if r.identical else "NO", str(len(r.violations)),
          f"{r.overhead_pct:+.0f}%") for r in results],
        title="Tracing overhead — armed vs unarmed (sim results must "
              "not move)",
    )


def write_trace_artifact(results: list["ObsResult"],
                         path: str = TRACE_ARTIFACT) -> dict:
    """Write all stacks' spans as one Perfetto-loadable trace file."""
    import os

    from ..obs.export import export_chrome_trace

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return export_chrome_trace(
        path, {result.stack: result.spans for result in results}
    )


def _assemble(values: list, smoke: bool) -> list[ObsResult]:
    results = [ObsResult(**value) for value in values]
    render_obs_attribution(results)
    payload = write_trace_artifact(results)
    print(f"\n[wrote {TRACE_ARTIFACT}: "
          f"{len(payload['traceEvents'])} trace events]")
    return results


GRID = Grid(
    name="e20", title="Observability — span attribution & overhead",
    points=tuple(
        (stack, "obs_attribution:measure_obs_stack", {"stack": stack})
        for stack in STACKS
    ),
    assemble=_assemble,
)
