"""E8 — Section 4/5.2: the cost of sharing scheduling state.

"any other state can be explicitly pushed to the NIC via the
interconnect with negligible overhead" — this experiment quantifies
*negligible*.  We force a stream of context switches (two processes
ping-ponging on one core) and measure the per-switch cost with and
without the Lauberhorn scheduling-state push, then compare against
what the same update would cost over the alternatives a PCIe NIC
offers (posted MMIO write, MMIO read, descriptor DMA).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.params import ENZIAN, PCIE_GEN3
from ..os import ops
from ..sim.clock import MS
from .grid import Grid, printed
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed

__all__ = ["GRID", "SchedPushResult", "render_sched_state",
           "run_sched_state"]


@dataclass(frozen=True)
class SchedPushResult:
    context_switches: int
    base_switch_ns: float
    pushed_switch_ns: float
    push_overhead_ns: float
    push_overhead_pct: float
    alternatives: dict


def _switch_storm(with_push: bool, n_switches: int = 200) -> tuple[int, float]:
    """Run a ping-pong of two processes on one core; return
    (context_switches, busy_ns_on_core0)."""
    bed = build_lauberhorn_testbed()
    if not with_push:
        bed.nic.sched_push_instructions = 0

    def pinger():
        for _ in range(n_switches):
            yield ops.Exec(100)
            yield ops.YieldCpu()

    a = bed.kernel.spawn_process("a")
    b = bed.kernel.spawn_process("b")
    bed.kernel.spawn_thread(a, pinger(), pinned_core=0)
    bed.kernel.spawn_thread(b, pinger(), pinned_core=0)
    bed.machine.run(until=200 * MS)
    return bed.kernel.stats.context_switches, bed.machine.cores[0].counters.busy_ns


def run_sched_state(n_switches: int = 200) -> SchedPushResult:
    switches_base, busy_base = _switch_storm(False, n_switches)
    switches_push, busy_push = _switch_storm(True, n_switches)
    base_ns = busy_base / switches_base
    push_ns = busy_push / switches_push
    overhead = push_ns - base_ns

    core = ENZIAN.core
    alternatives = {
        "coherent posted line store (Lauberhorn)": overhead,
        "PCIe posted MMIO write": 20.0,          # core-side cost only
        "PCIe MMIO read (synchronous)": PCIE_GEN3.mmio_read_ns,
        "descriptor DMA enqueue (driver)": core.frequency.cycles_to_ns(
            200 * core.cpi
        ),
    }
    return SchedPushResult(
        context_switches=switches_push,
        base_switch_ns=base_ns,
        pushed_switch_ns=push_ns,
        push_overhead_ns=overhead,
        push_overhead_pct=100.0 * overhead / base_ns,
        alternatives=alternatives,
    )


def render_sched_state(result: SchedPushResult) -> None:
    print_table(
        ["metric", "value"],
        [
            ("context switches measured", result.context_switches),
            ("switch cost, no push", fmt_ns(result.base_switch_ns)),
            ("switch cost, with push", fmt_ns(result.pushed_switch_ns)),
            ("push overhead", fmt_ns(result.push_overhead_ns)),
            ("push overhead %", f"{result.push_overhead_pct:.1f}%"),
        ],
        title="Section 5.2 — scheduling-state push cost per context switch",
    )
    print_table(
        ["mechanism", "core-side cost"],
        [(name, fmt_ns(ns)) for name, ns in result.alternatives.items()],
        title="Alternative push mechanisms",
    )


GRID = Grid(
    name="e8", title="Section 5.2 — sched-state push",
    points=(("main", "sched_state:run_sched_state", {}),),
    assemble=printed((SchedPushResult, render_sched_state)),
)
