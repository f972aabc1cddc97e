"""Arming observability, checks or an inert controller moves no
simulated result.

E20, E21, E22 and E25 run each cell once, armed; this module holds
their contract.  Each case runs one cell twice through the
experiment's own build and drive code, once bare and once armed, and
requires the same RTTs, element for element, from a run that completed
requests.  The cases sample what each experiment arms:

* E20, every stack: spans on every layer and the metrics registry;
* E21, every stack under E21's fault plan: spans, the flight recorder,
  the windowed sampler and the invariant checks (with the injected
  violation that freezes the flight dump);
* E22, every ``none`` cell: metrics, the sampler and the inert
  controller, against a bed with none of them;
* E25, ``4t-tight-calm``, ``2t-tight-storm`` and ``fleet-tight-calm``:
  origin-tagged spans, flight, sampler, the SLO tracker and the host
  or fleet checks, with four tenants, under a storm and on the 2-ToR
  fleet.

The guard cell of E25 and E22's active policies actuate by design, so
they have no bare twin.
"""

import pytest

from repro.experiments import e21_timeline as e21
from repro.experiments import e22_control as e22
from repro.experiments import e25_slo as e25
from repro.experiments import obs_attribution as e20
from repro.experiments.four_stacks import STACKS, _build_stack

#: ``measure_obs_stack``'s default request count
E20_REQUESTS = 25
E25_CELLS = ("4t-tight-calm", "2t-tight-storm", "fleet-tight-calm")


def _e20(stack: str, armed: bool) -> list:
    bed, service, method = _build_stack(stack)
    if armed:
        e20._arm(bed, stack)
    return e20._drive(bed, service, method, E20_REQUESTS)


def _e21(stack: str, armed: bool) -> list:
    bed, service, method = e21._build(stack, seed=0)
    if armed:
        e21._arm(bed)
    return e21._drive(bed, service, method, e21.N_REQUESTS)


def _e22(cell: str, armed: bool) -> list:
    stack, plan_label = cell.split("@")
    plan, spec, rng_seed = e22._cell(stack, plan_label, "none", seed=0)
    rtts, _stats = e22._drive(stack, plan, spec if armed else None,
                              rng_seed, e22.N_REQUESTS, armed=armed)
    return rtts


def _e25(label: str, armed: bool) -> list:
    drive = (e25._drive_fleet if label.startswith("fleet-")
             else e25._drive_single)
    rtts, _completed, _obs = drive(label, 0, armed)
    return rtts


CASES = (
    [pytest.param(_e20, stack, id=f"e20-{stack}") for stack in STACKS]
    + [pytest.param(_e21, stack, id=f"e21-{stack}") for stack in STACKS]
    + [pytest.param(_e22, f"{stack}@{plan}", id=f"e22-{stack}@{plan}@none")
       for stack in STACKS for plan in e22.FAULT_PLANS]
    + [pytest.param(_e25, label, id=f"e25-{label}") for label in E25_CELLS]
)


@pytest.mark.parametrize("run,cell", CASES)
def test_armed_run_equals_bare_run(run, cell):
    bare = run(cell, armed=False)
    armed = run(cell, armed=True)
    assert bare, f"{cell}: the bare run completed no request"
    assert armed == bare
