"""Per-request work spawns no process and leaves no cyclic garbage.

A :class:`~repro.sim.engine.Process` costs a start event and a
completion event beyond the events its generator yields, and until it
finishes it holds a reference cycle through its cached resume callback.
Work that nothing joins, interrupts or keeps alive runs through
``Simulator.start`` instead, and a finished process or a fired
condition lets go of its cycle, so reference counting frees what a
request built.

This fence runs the six perfbench workloads at seed 1, as
``test_perfbench_pins.py`` does, and checks two counts while each one
simulates: the processes constructed (the long-lived loops built at
set-up do not count), and the objects the cyclic collector finds after
a run made with it disabled.  It counts and never times, so it is
deterministic.
"""

import gc
import pathlib
import sys

import pytest

from repro.sim.engine import Process

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import scenarios  # noqa: E402

SEED = 1
#: processes constructed per offered request while a workload simulates
SPAWNS_PER_REQUEST = 0.0
#: cyclic garbage one run may leave: tenant_storm's post-run flame fold
#: recurses through a closure that references itself, together with
#: the span lists and keys of the last trace it walked (24 objects)
CYCLIC_GARBAGE_LIMIT = 64


@pytest.fixture(scope="module")
def per_run():
    """Workload -> (processes constructed, cyclic objects, offered)."""
    spawns = [0]
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawns[0] += 1
        init(self, *args, **kwargs)

    results = {}
    Process.__init__ = counting_init
    try:
        for workload, build in scenarios.WORKLOADS.items():
            run = build(SEED)
            gc.collect()
            spawns[0] = 0
            gc.disable()
            try:
                rep = run()
            finally:
                gc.enable()
            # run (and so the whole simulated system) is still alive:
            # only what the run itself dropped can be collected here
            cyclic = gc.collect()
            assert rep.problems == []
            results[workload] = (spawns[0], cyclic, rep.offered)
    finally:
        Process.__init__ = init
    return results


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_no_process_spawned_per_request(workload, per_run):
    spawns, _cyclic, offered = per_run[workload]
    assert spawns / offered <= SPAWNS_PER_REQUEST, (
        f"{workload} constructed {spawns} processes while it simulated "
        f"({spawns / offered:.2f} per offered request); per-request work "
        "that nothing joins or interrupts belongs in Simulator.start")


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_run_leaves_no_cyclic_garbage(workload, per_run):
    _spawns, cyclic, _offered = per_run[workload]
    assert cyclic <= CYCLIC_GARBAGE_LIMIT, (
        f"{workload} left {cyclic} objects for the cyclic collector, over "
        f"the limit of {CYCLIC_GARBAGE_LIMIT}")
