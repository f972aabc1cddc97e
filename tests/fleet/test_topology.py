"""Topology shape and frame-level behaviour of the rack fabric."""

import pytest

from repro.net import MacAddress, build_udp_frame, ip_address
from repro.net.topology import Topology, TopologySpec
from repro.sim import Simulator

MAC_A = MacAddress.from_string("02:00:00:00:00:aa")
MAC_B = MacAddress.from_string("02:00:00:00:00:bb")
IP_A, IP_B = ip_address("10.9.0.1"), ip_address("10.9.0.2")


def _frame(src_port=7000, dst_port=9000, payload=b"x" * 64):
    return build_udp_frame(MAC_A, MAC_B, IP_A, IP_B,
                           src_port, dst_port, payload)


def _deliver_one(topology, frame, *, src_tor, dst_tor):
    """Send one frame A->B across the topology; return the arrival time."""
    sim = topology.sim
    a = topology.attach(MAC_A, "a", tor=src_tor)
    b = topology.attach(MAC_B, "b", tor=dst_tor)
    arrivals = []

    def sender():
        yield a.send(frame)

    def receiver():
        got = yield from b.receive()
        arrivals.append((sim.now, got))

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert len(arrivals) == 1
    assert arrivals[0][1].data == frame.data
    return arrivals[0][0]


def test_spec_validation():
    with pytest.raises(ValueError):
        TopologySpec(n_tors=0)
    with pytest.raises(ValueError):
        TopologySpec(n_tors=2, n_trunks=0)


def test_degenerate_single_tor_is_the_legacy_switch():
    sim = Simulator()
    topology = Topology(sim, TopologySpec(n_tors=1))
    assert [s.name for s in topology.switches()] == ["switch"]
    assert topology.spine is None
    assert topology.uplinks == [()]
    # No trunk shuttles: the simulator has nothing scheduled at all.
    assert sim.peek() == float("inf")


def test_multi_tor_shape_and_salts():
    sim = Simulator()
    spec = TopologySpec(n_tors=2, n_trunks=2)
    topology = Topology(sim, spec, seed=7)
    names = [s.name for s in topology.switches()]
    assert names == ["tor0", "tor1", "spine"]
    for index in range(2):
        assert len(topology.uplinks[index]) == 2
        assert len(topology.downlinks[index]) == 2
        # Unknown destinations default-route up the ECMP trunk group.
        assert topology.tors[index].default_routes == topology.uplinks[index]
    # Distinct per-fabric salts (else the spine mirrors ToR decisions).
    salts = [s.ecmp_salt for s in topology.switches()]
    assert len(set(salts)) == len(salts)
    # ... and they are a pure function of the topology seed.
    replay = Topology(Simulator(), spec, seed=7)
    assert [s.ecmp_salt for s in replay.switches()] == salts


def test_hops_and_endpoint_registration():
    topology = Topology(Simulator(), TopologySpec(n_tors=2))
    topology.register_endpoint(MAC_A, 0)
    topology.register_endpoint(MAC_B, 1)
    assert topology.hops(MAC_A, MAC_A) == 1
    assert topology.hops(MAC_A, MAC_B) == 3
    with pytest.raises(KeyError):
        topology.hops(MAC_A, MacAddress.from_string("02:00:00:00:00:cc"))
    with pytest.raises(ValueError):
        topology.register_endpoint(MAC_A, 5)
    # The spine learned where B lives: a route toward ToR 1's downlinks.
    assert topology.spine.routes[MAC_B.value] == topology.downlinks[1]


def test_same_rack_delivery_and_cross_rack_costs_more():
    spec = TopologySpec(n_tors=2)
    frame = _frame()
    same = _deliver_one(Topology(Simulator(), spec), frame,
                        src_tor=0, dst_tor=0)
    cross = _deliver_one(Topology(Simulator(), spec), _frame(),
                         src_tor=0, dst_tor=1)
    assert same > 0
    # Cross-rack pays two trunk runs, the spine, and the far ToR.
    assert cross > same + 2 * spec.trunk_latency_ns


def test_ecmp_spreads_flows_over_parallel_trunks():
    sim = Simulator()
    topology = Topology(sim, TopologySpec(n_tors=2, n_trunks=2), seed=0)
    a = topology.attach(MAC_A, "a", tor=0)
    topology.attach(MAC_B, "b", tor=1)

    def sender():
        for flow in range(32):
            yield a.send(_frame(src_port=40_000 + flow))

    sim.process(sender())
    sim.run()
    per_trunk = [up.egress.stats.delivered for up in topology.uplinks[0]]
    assert sum(per_trunk) == 32
    # Both members of the ECMP group carry traffic.
    assert all(count > 0 for count in per_trunk)


def test_trunk_choice_is_flow_affine():
    sim = Simulator()
    topology = Topology(sim, TopologySpec(n_tors=2, n_trunks=2), seed=0)
    a = topology.attach(MAC_A, "a", tor=0)
    topology.attach(MAC_B, "b", tor=1)

    def sender():
        for _ in range(10):
            yield a.send(_frame(src_port=41_000))

    sim.process(sender())
    sim.run()
    per_trunk = [up.egress.stats.delivered for up in topology.uplinks[0]]
    # One flow, one path: all ten frames rode the same trunk.
    assert sorted(per_trunk) == [0, 10]
