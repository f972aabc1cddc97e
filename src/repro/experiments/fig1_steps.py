"""E2 — the Section 2 receive-path step breakdown (Figure 1 vs 3).

The paper enumerates the twelve things that must happen to turn a
packet into a function invocation, and argues that Lauberhorn executes
*every* step on the NIC in the common case, leaving software cost
"essentially zero".  This experiment produces that comparison two ways:

1. **analytic** — a per-step table of who performs the step and what it
   costs on each stack, straight from the calibrated cost model;
2. **measured** — per-request CPU busy time on each stack under a
   steady stream of small RPCs, which validates that the analytic
   software columns add up (within scheduling noise).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.params import ENZIAN, OsCostParams
from ..metrics.cycles import CycleWindow, PerRequestCost
from ..os.nicsched import USER_LOOP_SW_INSTRUCTIONS
from ..rpc.marshal import software_unmarshal_instructions
from ..rpc.server import RPC_HEADER_DECODE_INSTRUCTIONS, USER_PARSE_INSTRUCTIONS
from ..sim.clock import MS
from .grid import Grid
from .report import print_table
from .testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

__all__ = ["GRID", "StepRow", "step_table", "run_fig1_steps",
           "render_fig1_steps", "measure_per_request_busy"]


@dataclass(frozen=True)
class StepRow:
    """One of the paper's twelve steps, across the three stacks."""

    number: int
    description: str
    linux: str
    bypass: str
    lauberhorn: str


def step_table(costs: OsCostParams = OsCostParams()) -> list[StepRow]:
    """The analytic per-step attribution.

    Software entries give instructions on the host CPU; "NIC" entries
    run in device hardware off the critical CPU path.
    """
    nic = ENZIAN.nic
    unmarshal = software_unmarshal_instructions(2, 64)

    def sw(instr) -> str:
        return f"sw {int(instr)} instr"

    def hw(ns) -> str:
        return f"NIC {ns:g} ns"

    return [
        StepRow(1, "Read the packet contents",
                hw(nic.parse_ns), hw(nic.parse_ns), hw(nic.parse_ns)),
        StepRow(2, "Protocol processing (checksums etc.)",
                hw(5), hw(5), hw(5)),
        StepRow(3, "Demultiplex to an in-memory queue / end-point",
                hw(nic.demux_ns), hw(nic.demux_ns), hw(nic.demux_ns)),
        StepRow(4, "Interrupt a core",
                f"IRQ + entry {costs.interrupt_entry_instructions} instr",
                "— (busy poll)", "— (blocked load returns)"),
        StepRow(5, "General protocol processing",
                sw(costs.softirq_instructions), sw(USER_PARSE_INSTRUCTIONS),
                "on NIC"),
        StepRow(6, "Identify the destination process",
                sw(costs.socket_rx_instructions),
                "— (static queue binding)", "on NIC (sched state)"),
        StepRow(7, "Find a core for the process",
                sw(costs.scheduler_pick_instructions),
                "— (pinned)", "on NIC (sched state)"),
        StepRow(8, "Schedule the process",
                sw(costs.socket_wakeup_instructions), "— (pinned)",
                "— (already stalled on line)"),
        StepRow(9, "Context switch",
                sw(costs.context_switch_instructions), "— (pinned)",
                "— (hot case); sw "
                f"{costs.context_switch_instructions} instr (cold)"),
        StepRow(10, "Unmarshal arguments",
                sw(unmarshal + RPC_HEADER_DECODE_INSTRUCTIONS),
                sw(unmarshal + RPC_HEADER_DECODE_INSTRUCTIONS),
                f"on NIC ({nic.deserialize_ns_per_64b:g} ns/64 B)"),
        StepRow(11, "Find the handler address",
                sw(100), sw(100), "on NIC (code ptr in CONTROL line)"),
        StepRow(12, "Jump to the handler",
                sw(USER_LOOP_SW_INSTRUCTIONS), sw(USER_LOOP_SW_INSTRUCTIONS),
                sw(USER_LOOP_SW_INSTRUCTIONS)),
    ]


def _drive(bed, service, method, n_requests: int, warmup: int = 3):
    """Run warmup, then a pipelined burst; return busy ns/request.

    The burst keeps the server continuously supplied so a busy-polling
    stack's idle spinning between requests does not pollute its
    per-request figure.
    """
    client = bed.clients[0]
    window = CycleWindow(bed.machine)
    state = {}

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(warmup):
            yield from client.call(args=[i], **bed.call_args(service, method))
        window.begin()
        events = [
            client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            for i in range(n_requests)
        ]
        for event in events:
            yield event
        state["cost"] = window.end(n_requests)

    bed.sim.process(driver())
    bed.machine.run(until=2000 * MS)
    return state["cost"]


def measure_per_request_busy(n_requests: int = 30, handler_cost: int = 300):
    """Measured per-request server CPU busy ns for the three stacks.

    The bypass figure excludes idle-spin time between requests (we use
    instructions retired on useful work via the busy window bracketing
    a back-to-back request train).
    """
    results = {}
    for stack, build in (("linux", build_linux_testbed),
                         ("bypass", build_bypass_testbed),
                         ("lauberhorn", build_lauberhorn_testbed)):
        bed = build()
        service, method = deploy_service(bed, stack,
                                         cost_instructions=handler_cost)
        results[stack] = _drive(bed, service, method, n_requests)
    return results


def run_fig1_steps(n_requests: int = 30):
    """Regenerate the step table plus measured per-request software cost."""
    return step_table(), measure_per_request_busy(n_requests=n_requests)


def render_fig1_steps(rows: list[StepRow],
                      measured: dict[str, PerRequestCost]) -> None:
    print_table(
        ["#", "step", "Linux/DMA NIC", "kernel bypass", "Lauberhorn"],
        [(r.number, r.description, r.linux, r.bypass, r.lauberhorn)
         for r in rows],
        title="Section 2 — receive-path steps by stack",
    )
    print_table(
        ["stack", "busy ns/req", "instructions/req"],
        [
            (name, f"{cost.busy_ns_per_request:.0f}",
             f"{cost.instructions_per_request:.0f}")
            for name, cost in measured.items()
        ],
        title="Measured per-request server CPU cost (small RPC, "
              "handler excluded from comparison is identical)",
    )


def _assemble(values: list, smoke: bool):
    rows, measured = values[0]
    rows = [StepRow(**row) for row in rows]
    measured = {stack: PerRequestCost(**cost)
                for stack, cost in measured.items()}
    render_fig1_steps(rows, measured)
    return rows, measured


GRID = Grid(
    name="e2", title="Section 2 — receive-path steps",
    points=(("main", "fig1_steps:run_fig1_steps", {}),),
    assemble=_assemble,
)
