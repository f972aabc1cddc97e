"""Ablations of DESIGN.md §6's called-out design choices.

* **deserialisation offload** — hot-path latency and host cycles with
  the NIC's unmarshal engine on vs. the host doing it in software
  (the Optimus-Prime-style engine is one of Lauberhorn's three pieces;
  this quantifies what it buys).
* **encryption placement** — AEAD on the NIC pipeline vs. on the host
  CPU, across all three stacks (Section 6's "encryption can be handled
  with fairly standard techniques" — standard, but *where* matters).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.cycles import CycleWindow
from ..metrics.histogram import LatencyRecorder
from ..nic.lauberhorn import EndpointKind
from ..os.nicsched import lauberhorn_user_loop
from ..sim.clock import MS
from ..workloads.distributions import args_for_payload
from .grid import Grid, printed
from .report import fmt_ns, print_table
from .testbed import (
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "AblationRow", "render_crypto_ablation",
           "render_deserialize_ablation", "run_deserialize_ablation",
           "run_crypto_ablation"]

DESERIALIZE_BYTES = 512
CRYPTO_BYTES = 1024


@dataclass(frozen=True)
class AblationRow:
    config: str
    p50_rtt_ns: float
    busy_ns_per_request: float


def _measure_lauberhorn(payload_bytes: int, software_unmarshal: bool,
                        encrypted: bool = False, n: int = 15) -> AblationRow:
    # Hand-rolled: deploy_service's loop always unmarshals on the NIC.
    bed = build_lauberhorn_testbed()
    service = bed.registry.create_service(
        "svc", udp_port=9000, encrypted=encrypted
    )
    method = bed.registry.add_method(
        service, "m", lambda args: ["ok"], cost_instructions=300
    )
    process = bed.kernel.spawn_process("svc")
    bed.nic.register_service(service, process.pid)
    endpoint = bed.nic.create_endpoint(EndpointKind.USER, service=service)
    bed.kernel.spawn_thread(
        process,
        lauberhorn_user_loop(bed.nic, endpoint, bed.registry,
                             software_unmarshal=software_unmarshal),
        pinned_core=0,
    )
    return _drive(bed, service, method, payload_bytes, n,
                  config=_label("lauberhorn", software_unmarshal, encrypted))


def _measure_linux(payload_bytes: int, encrypted: bool, n: int = 15) -> AblationRow:
    bed = build_linux_testbed()
    service, method = deploy_service(bed, "linux", lambda args: ["ok"],
                                     name="svc", cost_instructions=300,
                                     encrypted=encrypted)
    return _drive(bed, service, method, payload_bytes, n,
                  config=_label("linux", False, encrypted))


def _label(stack: str, software_unmarshal: bool, encrypted: bool) -> str:
    parts = [stack]
    if software_unmarshal:
        parts.append("sw-unmarshal")
    if encrypted:
        parts.append("encrypted")
    return "+".join(parts)


def _drive(bed, service, method, payload_bytes, n, config) -> AblationRow:
    client = bed.clients[0]
    args = args_for_payload(payload_bytes)
    recorder = LatencyRecorder()
    window = CycleWindow(bed.machine)
    state = {}

    def driver():
        yield bed.sim.timeout(10_000)
        yield from client.call(args=args, **bed.call_args(service, method))
        window.begin()
        for _ in range(n):
            result = yield from client.call(
                args=args, **bed.call_args(service, method)
            )
            recorder.record(result.rtt_ns)
        state["cost"] = window.end(n)

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    return AblationRow(
        config=config,
        p50_rtt_ns=recorder.summary().p50,
        busy_ns_per_request=state["cost"].busy_ns_per_request,
    )


def run_deserialize_ablation(payload_bytes: int = DESERIALIZE_BYTES):
    """NIC deserialisation offload: on vs off, on the hot path."""
    return [
        _measure_lauberhorn(payload_bytes, software_unmarshal=False),
        _measure_lauberhorn(payload_bytes, software_unmarshal=True),
    ]


def run_crypto_ablation(payload_bytes: int = CRYPTO_BYTES):
    """AEAD on the NIC (Lauberhorn) vs on the host (Linux)."""
    return [
        _measure_lauberhorn(payload_bytes, False, encrypted=False),
        _measure_lauberhorn(payload_bytes, False, encrypted=True),
        _measure_linux(payload_bytes, encrypted=False),
        _measure_linux(payload_bytes, encrypted=True),
    ]


def _render(rows: list[AblationRow], ablation: str,
            payload_bytes: int) -> None:
    print_table(
        ["configuration", "p50 RTT", "busy/req"],
        [(r.config, fmt_ns(r.p50_rtt_ns), fmt_ns(r.busy_ns_per_request))
         for r in rows],
        title=f"Ablation — {ablation} ({payload_bytes} B args)",
    )


def render_deserialize_ablation(rows: list[AblationRow]) -> None:
    _render(rows, "deserialisation offload", DESERIALIZE_BYTES)


def render_crypto_ablation(rows: list[AblationRow]) -> None:
    _render(rows, "encryption placement", CRYPTO_BYTES)


GRID = Grid(
    name="e12",
    title="Ablations — deserialisation offload & crypto placement",
    points=(("deserialize", "ablation:run_deserialize_ablation", {}),
            ("crypto", "ablation:run_crypto_ablation", {})),
    assemble=printed((AblationRow, render_deserialize_ablation),
                     (AblationRow, render_crypto_ablation)),
)
