"""E22 — policy-vs-policy control-plane tournaments.

The tentpole demonstration of :mod:`repro.ctrl`: every stack runs the
same open-loop echo load under E19-family fault plans, three ways —

* ``none``    — controller inert: the run must equal one with no
  controller, sampler, or registry at all, the strict no-regression
  contract that ``tests/obs/test_arming_is_inert.py`` checks on every
  ``none`` cell;
* ``backoff`` — AIMD admission control driven by Tryagain/retry
  storms;
* ``tuner``   — interrupt-moderation / polling-interval tuning from
  observed RX rate.

A second section runs the :class:`~repro.ctrl.migrate.EpochMigrator`:
a greedy chooser places the service across the four stacks epoch by
epoch from measured latency (paying a migration penalty on every
switch), against sticky single-stack baselines — ``dynamic_mix``'s
placement made automatic.

Artifact: ``results/e22_control.json``; its claims are rows of
:mod:`repro.exp.claims`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..ctrl import (
    Actuators,
    AdmissionGate,
    Controller,
    EpochMigrator,
    PolicySpec,
    sticky_chooser,
)
from ..faults import FaultPlan, active
from ..metrics.histogram import nearest_rank
from ..obs.instrument import bind_testbed_metrics
from ..obs.timeseries import TimeSeriesSampler
from ..sim.clock import MS
from ..sim.rng import derive_seed
from ..workloads.generator import OpenLoopGenerator, ServiceMix, Target
from .four_stacks import STACKS, _build_stack
from .grid import Grid, artifact_path, write_json_artifact
from .report import fmt_ns, print_table

__all__ = ["GRID", "ControlCell", "CONTROL_ARTIFACT", "FAULT_PLANS",
           "POLICY_SPECS", "measure_control_cell", "measure_adaptive_mix",
           "render_control", "write_control_artifact"]

#: default location of the JSON artifact (relative to the runner's cwd)
CONTROL_ARTIFACT = "results/e22_control.json"

WINDOW_NS = 500_000.0
MAX_WINDOWS = 128
HORIZON_NS = 30 * MS
N_REQUESTS = 96
#: ~one arrival per 50 µs: arrivals span ~5 ms, so several decision
#: epochs see live traffic and several see the drain
RATE_PER_SEC = 20e3

#: the two E19-family plans every tournament runs under (same
#: ``default,seed,loss,stall`` spec family as the E19 sweep, at rates
#: high enough that storms are visible at epoch granularity)
FAULT_PLANS: dict[str, str] = {
    "lossy": "default,seed={seed},loss=0.05",
    "storm": "default,seed={seed},loss=0.05,stall=0.05",
}

#: the tournament's policy column specs
POLICY_SPECS: dict[str, str] = {
    "none": "none",
    "backoff": "backoff,epoch=2,trigger=1,hold_step=20000",
    "tuner": "tuner,epoch=2,hi=8,lo=1",
}

#: adaptive-mix section parameters
MIX_EPOCHS = 6
MIX_REQUESTS = 16
MIX_HORIZON_NS = 12 * MS
MIX_PENALTY_NS = 500_000.0
MIX_PLAN = "default,seed={seed},loss=0.01"
MIX_BASELINES = ("linux", "lauberhorn")


@dataclass(frozen=True)
class ControlCell:
    """One (stack, plan, policy) tournament cell (JSON-able)."""

    stack: str
    plan: str
    policy: str
    n_requests: int
    completed: int
    p50_rtt_ns: float
    p99_rtt_ns: float
    #: client retransmissions + give-ups over the run
    retries: int
    #: Lauberhorn CONTROL-line Tryagain bounces (0 on other stacks)
    tryagains: int
    #: arrivals the admission gate deferred
    deferrals: int
    #: applied knob changes, in order
    actuations: list = field(default_factory=list)
    #: decision epochs the controller ran
    epochs: int = 0
    #: counter resets the sampler clamped (crash/restart telemetry)
    rate_resets: dict = field(default_factory=dict)


def _drive(stack: str, plan: FaultPlan, spec: Optional[PolicySpec],
           rng_seed: int, n_requests: int, armed: bool = True):
    """One tournament run; returns (rtts, stats dict).

    ``armed=False`` builds nothing beyond the testbed and generator —
    the bare baseline the inert-controller run must match exactly.
    """
    with active(plan):
        bed, service, method = _build_stack(stack)
    client = bed.clients[0]
    mix = ServiceMix([Target(service, method, make_args=lambda rng: [1])])
    generator = OpenLoopGenerator(client, mix, bed.server_mac,
                                  bed.server_ip, random.Random(rng_seed))
    gate = None
    controller = None
    sampler = None
    if armed:
        registry = bind_testbed_metrics(bed)
        sampler = TimeSeriesSampler(bed.sim, registry, window_ns=WINDOW_NS,
                                    max_windows=MAX_WINDOWS)
        if spec is not None and not spec.inert:
            gate = AdmissionGate()
            generator.admission = gate
            actuators = Actuators(bed.sim, nic=bed.nic, gate=gate)
            controller = Controller(sampler, actuators, spec)
        sampler.start(HORIZON_NS)
    bed.sim.process(generator.run(RATE_PER_SEC, n_requests))
    bed.machine.run(until=HORIZON_NS)
    tryagains = 0
    if sampler is not None:
        sampler.finish()
        # Touch every counter's rate series so reset accounting is
        # populated for the artifact.
        for name in sampler.names():
            sampler.rate_series(name)
    lstats = getattr(bed.nic, "lstats", None)
    if lstats is not None:
        tryagains = lstats.tryagains
    stats = {
        "completed": generator.completed,
        "retries": client.retries + client.give_ups,
        "tryagains": tryagains,
        "deferrals": getattr(generator, "deferrals", 0),
        "actuations": (controller.actuation_log()
                       if controller is not None else []),
        "epochs": controller.epochs if controller is not None else 0,
        "rate_resets": dict(sampler.rate_resets) if sampler else {},
    }
    return list(generator.recorder.samples), stats


def _cell(stack: str, plan_label: str, policy: str, seed: int):
    """A tournament cell's ``(plan, spec, rng_seed)`` for :func:`_drive`."""
    return (FaultPlan.from_spec(FAULT_PLANS[plan_label].format(seed=seed)),
            PolicySpec.from_spec(POLICY_SPECS[policy]),
            derive_seed(seed, "e22", stack, plan_label))


def measure_control_cell(stack: str, plan_label: str, policy: str,
                         seed: int = 0,
                         n_requests: int = N_REQUESTS) -> ControlCell:
    """Run one tournament cell."""
    rtts, stats = _drive(stack, *_cell(stack, plan_label, policy, seed),
                         n_requests)
    return ControlCell(
        stack=stack,
        plan=plan_label,
        policy=policy,
        n_requests=n_requests,
        completed=stats["completed"],
        p50_rtt_ns=nearest_rank(rtts, 0.50),
        p99_rtt_ns=nearest_rank(rtts, 0.99),
        retries=stats["retries"],
        tryagains=stats["tryagains"],
        deferrals=stats["deferrals"],
        actuations=stats["actuations"],
        epochs=stats["epochs"],
        rate_resets=stats["rate_resets"],
    )


def measure_adaptive_mix(seed: int = 0) -> dict:
    """Greedy epoch migration vs sticky single-stack baselines."""
    plan = FaultPlan.from_spec(MIX_PLAN.format(seed=seed))

    def run(chooser) -> dict:
        migrator = EpochMigrator(
            chooser=chooser,
            n_epochs=MIX_EPOCHS,
            requests_per_epoch=MIX_REQUESTS,
            epoch_horizon_ns=MIX_HORIZON_NS,
            migration_penalty_ns=MIX_PENALTY_NS,
            plan=plan,
        )
        history = migrator.run()
        served = [r for r in history if r.completed > 0]
        mean_p50 = (sum(r.p50_rtt_ns for r in served) / len(served)
                    if served else 0.0)
        return {
            "epochs": [r.as_dict() for r in history],
            "completed": sum(r.completed for r in history),
            "migrations": sum(1 for r in history if r.migrated),
            "mean_p50_ns": mean_p50,
            "final_stack": history[-1].stack,
        }

    return {
        "adaptive": run("greedy"),
        "baselines": {
            stack: run(sticky_chooser(stack)) for stack in MIX_BASELINES
        },
    }


def render_control(cells: list["ControlCell"],
                   adaptive: Optional[dict] = None) -> None:
    """Tournament tables: one block per fault plan, plus the mix race."""
    for plan_label in sorted({cell.plan for cell in cells}):
        rows = []
        for cell in cells:
            if cell.plan != plan_label:
                continue
            rows.append((
                cell.stack,
                cell.policy,
                f"{cell.completed}/{cell.n_requests}",
                fmt_ns(cell.p50_rtt_ns),
                fmt_ns(cell.p99_rtt_ns),
                str(cell.retries),
                str(cell.tryagains),
                str(cell.deferrals),
                str(len(cell.actuations)),
            ))
        print_table(
            ["stack", "policy", "done", "p50 RTT", "p99 RTT", "retries",
             "tryagains", "deferred", "actuations"],
            rows,
            title=f"E22 — policy tournament under the {plan_label!r} plan",
        )
        print()
    if adaptive:
        rows = [(
            "adaptive(greedy)",
            str(adaptive["adaptive"]["completed"]),
            str(adaptive["adaptive"]["migrations"]),
            fmt_ns(adaptive["adaptive"]["mean_p50_ns"]),
            adaptive["adaptive"]["final_stack"],
        )]
        for stack, entry in adaptive["baselines"].items():
            rows.append((
                f"sticky:{stack}",
                str(entry["completed"]),
                str(entry["migrations"]),
                fmt_ns(entry["mean_p50_ns"]),
                entry["final_stack"],
            ))
        print_table(
            ["placement", "completed", "migrations", "mean p50",
             "final stack"],
            rows,
            title="E22 — epoch migration vs sticky placement "
                  f"({MIX_EPOCHS} epochs)",
        )


def write_control_artifact(cells: list["ControlCell"],
                           adaptive: Optional[dict] = None,
                           path: str = CONTROL_ARTIFACT) -> dict:
    """Write the tournament + adaptive-mix payload as one artifact."""
    from ..exp.pool import jsonable

    payload = {
        "experiment": "e22",
        "window_ns": WINDOW_NS,
        "horizon_ns": HORIZON_NS,
        "plans": sorted({cell.plan for cell in cells}),
        "policies": sorted({cell.policy for cell in cells}),
        "cells": [jsonable(cell) for cell in cells],
        "adaptive": jsonable(adaptive) if adaptive else None,
    }
    return write_json_artifact(payload, path)


def _assemble(values: list, smoke: bool) -> dict:
    # a full run ends with the adaptive-mix point; a smoke run skips it
    adaptive = None if smoke else values[-1]
    cells = [ControlCell(**value)
             for value in (values if smoke else values[:-1])]
    render_control(cells, adaptive)
    write_control_artifact(cells, adaptive)
    print(f"\n[wrote {artifact_path(CONTROL_ARTIFACT)}: {len(cells)} cells]")
    return {"cells": cells, "adaptive": adaptive}


GRID = Grid(
    name="e22",
    title="Adaptive control plane — policy tournaments & epoch migration",
    points=tuple(
        (f"{stack}@{plan}@{policy}", "e22_control:measure_control_cell",
         {"stack": stack, "plan_label": plan, "policy": policy})
        for stack in STACKS
        for plan in FAULT_PLANS
        for policy in POLICY_SPECS
    ) + (("adaptive", "e22_control:measure_adaptive_mix", {}),),
    assemble=_assemble,
    seeded=True,
    # one cell per policy: lauberhorn under the storm plan
    smoke=tuple(f"lauberhorn@storm@{policy}" for policy in POLICY_SPECS),
)
