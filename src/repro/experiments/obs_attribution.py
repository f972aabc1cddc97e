"""E20 — request-scoped observability: per-stage latency attribution.

Runs the Section 2 design space (the same four stacks and echo
workload as E11) once per stack with every layer recording spans into
one :class:`~repro.obs.spans.SpanRecorder`, and reports **where a
request's RTT actually goes** in each architecture (wire, NIC,
softirq, sockets, application, egress), computed from the span tree
rather than hand-inserted timestamps.

Spans do Python-side bookkeeping only and never advance simulated
time, so arming them must not move a simulated result:
``tests/obs/test_arming_is_inert.py`` runs every stack bare and armed
(this module's ``_drive`` with and without ``_arm``) and requires equal
RTT lists.  Arming's host cost is not timed here (a 25-request run
measures host noise, not tracing); the perfbench ``tenant_storm``
workload, which arms every layer, measures it end to end.

The spans are also the payload for the Perfetto/Chrome-trace artifact
(``results/e20_trace.json``) written by the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.histogram import nearest_rank
from ..obs.export import stage_attribution
from ..obs.instrument import arm_testbed, bind_testbed_metrics
from ..sim.clock import MS
from .four_stacks import STACKS, _build_stack
from .grid import Grid, artifact_path
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
    """One stack's armed run: attribution, spans and integrity."""

    stack: str
    n_requests: int
    p50_rtt_ns: float
    #: {stage name: (count, mean ns)} from the armed run's spans
    stages: dict = field(default_factory=dict)
    #: spans as ``Span.as_dict()`` dicts (JSON-able, export-ready)
    spans: list = field(default_factory=list)
    #: span-tree integrity violations (must be empty)
    violations: list = field(default_factory=list)
    #: number of metric rows a full registry snapshot yields
    metric_rows: int = 0


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


def _arm(bed, stack: str):
    """Arm spans on every layer of ``bed`` and bind its metrics."""
    return arm_testbed(bed), bind_testbed_metrics(bed, prefix=stack)


def measure_obs_stack(stack: str, n_requests: int = 25) -> ObsResult:
    """Run one stack armed and attribute its RTT to stages."""
    bed, service, method = _build_stack(stack)
    recorder, registry = _arm(bed, stack)
    rtts = _drive(bed, service, method, n_requests)

    return ObsResult(
        stack=stack,
        n_requests=n_requests,
        p50_rtt_ns=nearest_rank(rtts, 0.50),
        stages={name: list(stat) for name, stat in
                stage_attribution(recorder.spans).items()},
        spans=[span.as_dict() for span in recorder.spans],
        violations=recorder.check_integrity(),
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
        ["stack", "spans", "metrics", "violations"],
        [(r.stack, str(len(r.spans)), str(r.metric_rows),
          str(len(r.violations))) for r in results],
        title="Span recording — spans, metric rows and span-tree "
              "violations per stack",
    )


def write_trace_artifact(results: list["ObsResult"],
                         path: str = TRACE_ARTIFACT) -> dict:
    """Write all stacks' spans as one Perfetto-loadable trace file at
    ``artifact_path(path)``."""
    import os

    from ..obs.export import export_chrome_trace

    path = artifact_path(path)
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
    print(f"\n[wrote {artifact_path(TRACE_ARTIFACT)}: "
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
