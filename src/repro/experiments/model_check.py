"""E7 — Section 6: model-checking the protocol "relatively easily".

Runs the explicit-state checker over the Figure 4 protocol spec at
several bounds, with and without preemption, and (as a sanity check
that the verification has teeth) over two seeded-bug variants that must
fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mc import (
    LauberhornProtocolSpec,
    ModelChecker,
    OwnershipConfig,
    OwnershipSpec,
    ProtocolConfig,
)
from .grid import Grid, printed
from .report import print_table

__all__ = ["GRID", "CheckRow", "render_model_check", "run_model_check"]


@dataclass(frozen=True)
class CheckRow:
    config: str
    ok: bool
    states: int
    transitions: int
    depth: int
    violated: str


def run_model_check() -> list[CheckRow]:
    configs = [
        ("correct n=2", ProtocolConfig(total_packets=2)),
        ("correct n=3", ProtocolConfig(total_packets=3)),
        ("correct n=4", ProtocolConfig(total_packets=4)),
        ("correct n=3 + preemption", ProtocolConfig(total_packets=3, preemption=True)),
        ("bug: skip response store", ProtocolConfig(total_packets=2, bug="skip_store")),
        ("bug: tryagain keeps parked",
         ProtocolConfig(total_packets=2, bug="tryagain_keeps_parked")),
    ]
    ownership_configs = [
        ("ownership: correct", OwnershipConfig()),
        ("ownership bug: overwrite parked fill",
         OwnershipConfig(bug="overwrite_park")),
    ]
    rows: list[CheckRow] = []
    for label, config in configs:
        result = ModelChecker(LauberhornProtocolSpec(config)).run()
        rows.append(CheckRow(
            config=label,
            ok=result.ok,
            states=result.states_explored,
            transitions=result.transitions,
            depth=result.max_depth,
            violated=(result.violation.name if result.violation else "-"),
        ))
    for label, config in ownership_configs:
        result = ModelChecker(OwnershipSpec(config)).run()
        rows.append(CheckRow(
            config=label,
            ok=result.ok,
            states=result.states_explored,
            transitions=result.transitions,
            depth=result.max_depth,
            violated=(result.violation.name if result.violation else "-"),
        ))
    return rows


def render_model_check(rows: list[CheckRow]) -> None:
    print_table(
        ["configuration", "result", "states", "transitions", "depth",
         "violated invariant"],
        [
            (r.config, "OK" if r.ok else "FAIL", r.states, r.transitions,
             r.depth, r.violated)
            for r in rows
        ],
        title="Section 6 — model checking the Figure 4 protocol",
    )


GRID = Grid(
    name="e7", title="Section 6 — model checking",
    points=(("main", "model_check:run_model_check", {}),),
    assemble=printed((CheckRow, render_model_check)),
)
