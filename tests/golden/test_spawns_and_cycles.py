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
deterministic.  Set-up is fenced too where it is cheapest: frames
cross switch ports, trunks and clients by timer callbacks, so building
those constructs no process at all.
"""

import contextlib
import gc
import pathlib
import sys

import pytest

from repro.net import MacAddress, SwitchFabric, ip_address
from repro.net.topology import Topology, TopologySpec
from repro.sim import Simulator
from repro.sim.engine import Process
from repro.workloads.client import ClientNode

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


@contextlib.contextmanager
def counting_processes():
    """Count ``Process`` constructions; yields a one-item list."""
    spawns = [0]
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawns[0] += 1
        init(self, *args, **kwargs)

    Process.__init__ = counting_init
    try:
        yield spawns
    finally:
        Process.__init__ = init


@pytest.fixture(scope="module")
def per_run():
    """Workload -> (processes constructed, cyclic objects, offered)."""
    results = {}
    with counting_processes() as spawns:
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


def test_switch_ports_trunks_and_clients_build_no_process():
    with counting_processes() as spawns:
        sim = Simulator()
        SwitchFabric(sim).attach(MacAddress(0x0200_0000_0001), "port")
        topology = Topology(sim, TopologySpec(n_tors=2, n_trunks=2))
        ClientNode(sim, topology.tors[1], MacAddress(0x0200_0000_0002),
                   ip_address("10.0.0.2"), name="client")
    assert spawns[0] == 0, (
        f"building a switch port, a 2-ToR topology with 2 trunks per ToR "
        f"and a client constructed {spawns[0]} processes")
