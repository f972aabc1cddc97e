"""E10 — Figure 4: steady-state protocol cost per RPC.

Counts the coherence-fabric transactions one request costs on the hot
path: in steady state each RPC should take exactly one CONTROL fill
(which both signals completion of the previous request and waits for
the next), one fetch-exclusive recall of the response line, and the
line transfers they imply.  The response store itself is a silent
local upgrade — zero fabric traffic — which is the protocol's whole
point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import MS
from .grid import Grid, printed
from .report import print_table
from .testbed import build_lauberhorn_testbed, deploy_service

__all__ = ["GRID", "ProtocolCost", "render_protocol_cost",
           "run_protocol_cost"]


@dataclass(frozen=True)
class ProtocolCost:
    requests: int
    fills_per_request: float
    recalls_per_request: float
    upgrades_per_request: float
    line_transfers_per_request: float
    invalidations_per_request: float


def run_protocol_cost(n_requests: int = 32) -> ProtocolCost:
    bed = build_lauberhorn_testbed()
    service, method = deploy_service(bed, "lauberhorn", cost_instructions=300)
    client = bed.clients[0]
    fabric = bed.machine.fabric
    state = {}

    def driver():
        yield bed.sim.timeout(10_000)
        # Warm up past the first (cold) request, then snapshot.
        for i in range(3):
            yield from client.call(args=[i], **bed.call_args(service, method))
        state["before"] = (
            fabric.stats.fills, fabric.stats.recalls, fabric.stats.upgrades,
            fabric.stats.line_transfers, fabric.stats.invalidations,
        )
        for i in range(n_requests):
            yield from client.call(args=[i], **bed.call_args(service, method))
        state["after"] = (
            fabric.stats.fills, fabric.stats.recalls, fabric.stats.upgrades,
            fabric.stats.line_transfers, fabric.stats.invalidations,
        )

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    before, after = state["before"], state["after"]
    deltas = [a - b for a, b in zip(after, before)]
    return ProtocolCost(
        requests=n_requests,
        fills_per_request=deltas[0] / n_requests,
        recalls_per_request=deltas[1] / n_requests,
        upgrades_per_request=deltas[2] / n_requests,
        line_transfers_per_request=deltas[3] / n_requests,
        invalidations_per_request=deltas[4] / n_requests,
    )


def render_protocol_cost(cost: ProtocolCost) -> None:
    print_table(
        ["fabric transaction", "per RPC (steady state)"],
        [
            ("CONTROL fills (blocked loads)", f"{cost.fills_per_request:.2f}"),
            ("fetch-exclusive recalls", f"{cost.recalls_per_request:.2f}"),
            ("ownership upgrades (response store)",
             f"{cost.upgrades_per_request:.2f}"),
            ("line transfers", f"{cost.line_transfers_per_request:.2f}"),
            ("invalidations", f"{cost.invalidations_per_request:.2f}"),
        ],
        title="Figure 4 — coherence transactions per small RPC",
    )


GRID = Grid(
    name="e10", title="Figure 4 — protocol cost",
    points=(("main", "protocol_cost:run_protocol_cost", {}),),
    assemble=printed((ProtocolCost, render_protocol_cost)),
)
