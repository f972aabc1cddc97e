"""The callback-driven fabric against the process-driven one it replaced.

Frames used to cross the fabric through generator processes: one
forwarding loop per switch port, one pump per trunk direction and one
receive loop per client, each woken by a ``Store`` get per frame.  The
reference classes below keep those processes, and the links they read,
as they were.  Each test builds the same rack twice, once from the
reference classes and once from the real ones, drives the same
hypothesis-generated traffic through both, and requires the same:

* landings on every link, in order: link, simulated time and bytes;
* ``LinkStats`` of every link, sampled at every landing and at the end;
* ``unknown_dst_drops`` on every switch;
* RPC results at the client, with the instant each one completed.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Optional, Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, InjectionStats, install_link_faults
from repro.net import topology as topology_module
from repro.net.headers import HeaderError, MacAddress, frame_dst_mac
from repro.net.link import LinkStats, Port, SwitchFabric
from repro.net.packet import Frame, build_udp_frame, ip_address, parse_udp_frame
from repro.net.topology import Topology, TopologySpec
from repro.rpc.marshal import MarshalError, unmarshal_args
from repro.rpc.message import RpcError, RpcMessage, RpcType
from repro.sim import Simulator
from repro.sim.clock import bytes_time_ns
from repro.sim.engine import Event
from repro.sim.resources import Store
from repro.workloads.client import ClientNode, RpcResult

# -- the process-driven reference --------------------------------------------


class RefLink:
    """A link whose landings always go into ``rx_queue``, through a
    lambda per frame on the wire and a closure per landing."""

    def __init__(self, sim, bandwidth_bps=100e9 / 8, propagation_ns=500.0,
                 queue_frames=None, name=""):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.name = name
        self.stats = LinkStats()
        self.rx_queue = Store(sim, capacity=queue_frames, name=f"{name}.rx")
        self.fault = None
        self.on_drop = None
        self.on_deliver = None
        self._tx_free_at = 0.0

    def serialization_ns(self, frame):
        return bytes_time_ns(frame.wire_bytes, self.bandwidth_bps)

    def send(self, frame):
        sim = self.sim
        now = sim.now
        done = max(now, self._tx_free_at) + self.serialization_ns(frame)
        self._tx_free_at = done
        on_wire = sim.timeout(done - now)
        on_wire.add_callback(lambda _event: self._on_wire(frame))
        return on_wire

    def _on_wire(self, frame):
        self.stats.frames += 1
        self.stats.bytes += frame.wire_bytes
        if self.fault is None:
            self._deliver_after(frame, self.propagation_ns)
        else:
            for fated, extra_ns in self.fault.fate(self, frame):
                self._deliver_after(fated, self.propagation_ns + extra_ns)

    def count_drop(self, frame, reason):
        self.stats.dropped += 1
        self.stats.dropped_bytes += frame.wire_bytes
        if self.on_drop is not None:
            self.on_drop(self, frame, reason)

    def _deliver_after(self, frame, delay_ns):
        def deliver(_event):
            if self.rx_queue.try_put(frame):
                self.stats.delivered += 1
                if self.on_deliver is not None:
                    self.on_deliver(self, frame)
            else:
                self.count_drop(frame, "queue-full")

        self.sim.timeout(delay_ns).add_callback(deliver)

    def receive(self):
        frame = yield self.rx_queue.get()
        return frame


class RefPort(Port):
    """A switch port whose two directions are reference links."""

    def __init__(self, fabric, mac, name="", latency_ns=None):
        self.fabric = fabric
        self.mac = mac
        self.name = name or str(mac)
        propagation = (fabric.port_latency_ns if latency_ns is None
                       else latency_ns)
        self.ingress = RefLink(fabric.sim, fabric.bandwidth_bps, propagation,
                               name=f"{self.name}.in")
        self.egress = RefLink(fabric.sim, fabric.bandwidth_bps, propagation,
                              name=f"{self.name}.out")


class RefSwitchFabric(SwitchFabric):
    """A switch with one forwarding process per port."""

    def attach(self, mac, name="", latency_ns=None):
        if mac.value in self.ports:
            raise ValueError(f"MAC {mac} already attached")
        port = RefPort(self, mac, name, latency_ns=latency_ns)
        self.ports[mac.value] = port
        self.sim.process(self._forward_loop(port),
                         name=f"switch-fwd-{port.name}")
        return port

    def _forward_loop(self, port):
        while True:
            frame = yield from port.ingress.receive()
            yield self.sim.timeout(self.switching_ns)
            dst = frame_dst_mac(frame.data)
            target = self.ports.get(dst)
            if target is None:
                target = self._route_port(dst, frame)
            if target is None:
                self.unknown_dst_drops += 1
                continue
            target.egress.send(frame)


def ref_shuttle(topology, a, b):
    """Bridge two ports with one FIFO forwarding process per way."""

    def pump(src, dst):
        while True:
            frame = yield from src.receive()
            yield dst.send(frame)

    topology.sim.process(pump(a, b), name="trunk-up")
    topology.sim.process(pump(b, a), name="trunk-down")


class RefClientNode(ClientNode):
    """A client whose responses are matched by a receive process."""

    def __init__(self, sim, switch, mac, ip, name="client",
                 src_port_base=40000):
        self.sim = sim
        self.mac = mac
        self.ip = ip
        self.name = name
        self.port = switch.attach(mac, name)
        self.src_port_base = src_port_base
        self._next_request_id = 1
        self._pending: dict[int, tuple[float, Sequence[Any], Event]] = {}
        self.unmatched_responses = 0
        self.parse_errors = 0
        self.retry_timeout_ns: Optional[float] = None
        self.max_retries = 16
        self.retries = 0
        self.give_ups = 0
        self.obs = None
        self._obs_roots: dict[int, Any] = {}
        sim.process(self._rx_loop(), name=f"{name}-rx")

    def _rx_loop(self):
        while True:
            frame = yield from self.port.receive()
            try:
                parsed = parse_udp_frame(frame)
                message = RpcMessage.unpack(parsed.payload)
            except (HeaderError, RpcError):
                self.parse_errors += 1
                continue
            if message.header.rpc_type is not RpcType.RESPONSE:
                self.unmatched_responses += 1
                continue
            pending = self._pending.pop(message.header.request_id, None)
            if pending is None:
                self.unmatched_responses += 1
                continue
            sent_ns, args, done = pending
            try:
                results = (unmarshal_args(message.payload)
                           if message.payload else [])
            except MarshalError:
                results = []
            done.succeed(
                RpcResult(
                    request_id=message.header.request_id,
                    args=args,
                    results=results,
                    sent_ns=sent_ns,
                    received_ns=self.sim.now,
                )
            )


# -- one rack, built either way ----------------------------------------------

HOST_PORT = 9000
CLIENT_MAC = MacAddress.from_string("02:00:00:00:01:00")
CLIENT_IP = ip_address("10.0.1.1")
UNKNOWN_MAC = MacAddress.from_string("02:00:00:00:0e:ee")
#: frame bytes ahead of the UDP payload (Ethernet, IPv4, UDP)
HEADER_BYTES = 42
#: the traffic's time grid: sends drawn into one slot leave together
SLOT_NS = 150.0
#: link fate rates high enough that a few dozen frames meet every fate
FAULT_SPEC = "loss=0.1,corrupt=0.1,reorder=0.15,dup=0.15,reorder_ns=700"


def _host_mac(index: int) -> MacAddress:
    return MacAddress(0x0200_0000_0a00 + index)


def _host_ip(index: int) -> int:
    return ip_address(f"10.0.0.{index + 1}")


@dataclasses.dataclass
class Case:
    spec: TopologySpec
    seed: int
    host_tors: list[int]
    client_tor: int
    #: (slot, source host, destination, frame bytes, flow); destination
    #: ``len(host_tors)`` is the client and one more is no one
    sends: list[tuple[int, int, int, int, int]]
    #: (slot, host, number of args, flow)
    requests: list[tuple[int, int, int, int]]
    faults: Optional[str]


def _responder(sim, port: Port, mac: MacAddress, ip: int):
    """A host: answer each RPC request at once; absorb everything else."""
    while True:
        frame = yield from port.receive()
        try:
            parsed = parse_udp_frame(frame)
            message = RpcMessage.unpack(parsed.payload)
        except (HeaderError, RpcError):
            continue
        header = message.header
        if header.rpc_type is not RpcType.REQUEST:
            continue
        reply = RpcMessage.response(header.service_id, header.method_id,
                                    header.request_id, message.payload)
        port.send(build_udp_frame(mac, CLIENT_MAC, ip, parsed.ip.src,
                                  HOST_PORT, parsed.udp.src_port,
                                  reply.pack(), born_ns=sim.now))


def _links(topology: Topology) -> list:
    return [link for switch in topology.switches()
            for port in switch.ports.values()
            for link in (port.ingress, port.egress)]


def _stats(links) -> tuple:
    return tuple(tuple(vars(link.stats).values()) for link in links)


def run_bed(case: Case, reference: bool) -> dict:
    """Build ``case``'s rack from the reference or the real classes, run
    its traffic to exhaustion and return everything the tests compare."""
    sim = Simulator()
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(mock.patch.object(
                topology_module, "SwitchFabric", RefSwitchFabric))
            stack.enter_context(mock.patch.object(
                Topology, "_shuttle", ref_shuttle))
        topology = Topology(sim, case.spec, seed=case.seed)
    hosts = []
    for index, tor in enumerate(case.host_tors):
        port = topology.attach(_host_mac(index), f"h{index}", tor=tor)
        sim.process(_responder(sim, port, _host_mac(index), _host_ip(index)))
        hosts.append(port)
    client_cls = RefClientNode if reference else ClientNode
    client = client_cls(sim, topology.tors[case.client_tor], CLIENT_MAC,
                        CLIENT_IP, name="client")
    topology.register_endpoint(CLIENT_MAC, case.client_tor)

    links = _links(topology)
    if case.faults is not None:
        plan = FaultPlan.from_spec(f"{case.faults},seed={case.seed}")
        for link in links:
            install_link_faults(link, plan, InjectionStats(), link.name)
        client.retry_timeout_ns = 30_000.0

    landings = []

    def tap(link, frame: Frame) -> None:
        landings.append((link.name, sim.now, frame.data, _stats(links)))

    for link in links:
        link.on_deliver = tap

    destinations = ([(_host_mac(i), _host_ip(i)) for i in range(len(hosts))]
                    + [(CLIENT_MAC, CLIENT_IP), (UNKNOWN_MAC, _host_ip(99))])

    def send_at(slot: int, port: Port, frame: Frame) -> None:
        sim.timeout(slot * SLOT_NS).add_callback(lambda _e: port.send(frame))

    for tag, (slot, src, dst, size, flow) in enumerate(case.sends):
        dst_mac, dst_ip = destinations[dst]
        payload = bytes([tag % 251]) * (size - HEADER_BYTES)
        frame = build_udp_frame(_host_mac(src), dst_mac, _host_ip(src),
                                dst_ip, 50_000 + flow, HOST_PORT, payload)
        send_at(slot, hosts[src], frame)

    completions = []

    def request_at(slot: int, host: int, n_args: int, flow: int) -> None:
        def fire(_event) -> None:
            done = client.send_request(
                _host_mac(host), _host_ip(host), HOST_PORT, 1, 1,
                list(range(n_args)), src_port=41_000 + flow)
            done.add_callback(lambda e: completions.append(
                (sim.now, e.value.request_id, e.value.sent_ns,
                 e.value.received_ns, list(e.value.results))))

        sim.timeout(slot * SLOT_NS).add_callback(fire)

    for slot, host, n_args, flow in case.requests:
        request_at(slot, host, n_args, flow)

    sim.run()
    return {
        "landings": landings,
        "stats": _stats(links),
        "unknown_dst_drops": [s.unknown_dst_drops
                              for s in topology.switches()],
        "completions": completions,
        "client": (client.parse_errors, client.unmatched_responses,
                   client.retries, client.give_ups, client.outstanding),
    }


def assert_same(case: Case) -> dict:
    """Run ``case`` on both beds; they must agree on every observation."""
    expected = run_bed(case, reference=True)
    got = run_bed(case, reference=False)
    for index, (want, have) in enumerate(zip(expected["landings"],
                                             got["landings"])):
        assert have == want, (
            f"landing {index} differs: {have[:2]} vs the reference's "
            f"{want[:2]}")
    assert got == expected
    return got


# -- the cases -----------------------------------------------------------------

SHAPES = {"1-tor": (1, 1), "2-tor-1-trunk": (2, 1), "2-tor-2-trunks": (2, 2)}
#: 60-4,000 B frames serialise in 7.04-321.92 ns at 100 Gb/s
SWITCHING = {"above-serialisation": st.integers(330, 3_000),
             "below-serialisation": st.integers(0, 6)}
SIZES = st.integers(60, 4_000)
#: Each kind of delay gets its own fractional part, none a multiple of
#: a serialisation step (0.04 ns), so that no stage timer can fall due
#: at the instant of another timer armed at the same instant.  At such
#: a tie the two fabrics dispatch the pair in different orders: see
#: test_a_tie_with_a_stage_timer_reorders_only_that_instant.
SWITCHING_FRACTION, SPINE_FRACTION = 0.137, 0.291
PORT_FRACTION, TRUNK_FRACTION = 0.413, 0.571


@st.composite
def cases(draw, shape, switching, faults) -> Case:
    n_tors, n_trunks = SHAPES[shape]
    regime = SWITCHING[switching]
    spec = TopologySpec(
        n_tors=n_tors, n_trunks=n_trunks,
        port_latency_ns=draw(st.integers(0, 1_000)) + PORT_FRACTION,
        switching_ns=draw(regime) + SWITCHING_FRACTION,
        spine_switching_ns=draw(regime) + SPINE_FRACTION,
        trunk_latency_ns=draw(st.integers(0, 2_000)) + TRUNK_FRACTION,
    )
    tor = st.integers(0, n_tors - 1)
    n_hosts = draw(st.integers(2, 4))
    host_tors = [draw(tor) for _ in range(n_hosts)]
    client, unknown = n_hosts, n_hosts + 1
    # Every host sends at once, to a neighbour and to no one.
    sends = [(0, src, (src + 1) % n_hosts, draw(SIZES), src)
             for src in range(n_hosts)]
    sends += [(0, src, unknown, draw(SIZES), src) for src in range(n_hosts)]
    sends += draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, n_hosts - 1),
                  st.integers(0, unknown), SIZES, st.integers(0, 3)),
        min_size=1, max_size=40))
    requests = draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, n_hosts - 1),
                  st.integers(0, 3), st.integers(0, 3)),
        max_size=12))
    return Case(spec, draw(st.integers(0, 3)), host_tors, draw(tor), sends,
                requests, FAULT_SPEC if faults else None)


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("switching", list(SWITCHING))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_fabric_matches_the_process_reference(shape, switching, faults):
    @settings(max_examples=25, deadline=None)
    @given(cases(shape, switching, faults))
    def check(case):
        assert_same(case)

    check()


def test_reference_bed_exercises_queues_faults_ecmp_and_unknowns():
    """One fixed case, checked for the traffic the properties rely on."""
    n_hosts = 3
    client, unknown = n_hosts, n_hosts + 1
    sends = [(0, src, dst, size, flow)
             for src in range(n_hosts)
             for dst, size, flow in ((client, 60, 0), (unknown, 4_000, 1),
                                     ((src + 1) % n_hosts, 1_500, src))]
    sends += [(1, 0, 2, 4_000, flow) for flow in range(8)]
    case = Case(TopologySpec(n_tors=2, n_trunks=2, switching_ns=900.0),
                0, [0, 1, 1], 0, sends,
                [(slot, host, 2, slot) for slot in range(4)
                 for host in range(n_hosts)], FAULT_SPEC)
    got = assert_same(case)
    names = [name for name, *_rest in got["landings"]]
    assert {"tor0.up0.out", "tor0.up1.out"} <= set(names)   # ECMP
    assert sum(got["unknown_dst_drops"]) > 0
    totals = LinkStats(*map(sum, zip(*got["stats"])))
    assert totals.fault_lost and totals.fault_corrupted
    assert totals.fault_reordered and totals.fault_duplicated
    assert got["completions"]
    assert got["client"][0] > 0   # raw frames the client cannot parse


def test_a_tie_with_a_stage_timer_reorders_only_that_instant():
    """With zero latencies, a switch stage arms its timer at the same
    instant as the duplicate copy of a frame lands on a host.  The
    process-driven fabric armed it one wake-up later, after that
    instant's other landings, so the two fabrics dispatch the tied pair
    in opposite orders.  Nothing else moves: every frame lands on the
    same link at the same instant, and the stats and RPC results at the
    end are the same."""
    zero = TopologySpec(port_latency_ns=0.0, switching_ns=0.0)
    sends = [(0, 0, 1, 60, 0), (0, 1, 0, 60, 1), (0, 0, 3, 60, 0),
             (0, 1, 3, 60, 1), (0, 0, 0, 60, 0)]
    case = Case(zero, 2, [0, 0], 0, sends, [(1, 0, 2, 0)] * 2, FAULT_SPEC)
    expected = run_bed(case, reference=True)
    got = run_bed(case, reference=False)
    assert got["landings"] != expected["landings"]

    def by_instant(landings):
        return sorted((t, name, data) for name, t, data, _stats in landings)

    assert by_instant(got["landings"]) == by_instant(expected["landings"])
    for key in ("stats", "unknown_dst_drops", "completions", "client"):
        assert got[key] == expected[key]
