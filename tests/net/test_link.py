"""Unit tests for the link and switch models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import (
    ETHERTYPE_IPV4, EthernetHeader, Frame, HeaderError, Ipv4Header, Link,
    MacAddress, SwitchFabric, UdpHeader, build_udp_frame, ip_address,
)
from repro.nic.rss import rss_hash
from repro.sim import Simulator

MAC_A = MacAddress.from_string("02:00:00:00:00:0a")
MAC_B = MacAddress.from_string("02:00:00:00:00:0b")
MAC_C = MacAddress.from_string("02:00:00:00:00:0c")
IP_A, IP_B = ip_address("10.0.0.1"), ip_address("10.0.0.2")


def frame(src=MAC_A, dst=MAC_B, payload=b"x" * 10):
    return build_udp_frame(src, dst, IP_A, IP_B, 1, 2, payload)


def test_link_latency_is_serialization_plus_propagation():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=12.5e9, propagation_ns=500)
    f = frame()
    arrivals = []

    def sender():
        yield link.send(f)

    def receiver():
        got = yield from link.receive()
        arrivals.append((sim.now, got))

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    t, got = arrivals[0]
    assert got is f
    assert t == pytest.approx(link.serialization_ns(f) + 500)


def test_link_fifo_and_backpressure_serialization():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=12.5e9, propagation_ns=0)
    order = []

    def sender():
        yield link.send(frame(payload=b"1" * 1000))
        yield link.send(frame(payload=b"2" * 1000))

    def receiver():
        for _ in range(2):
            got = yield from link.receive()
            order.append((sim.now, got.data[-1:]))

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert [o[1] for o in order] == [b"1", b"2"]
    # Second frame arrives one serialisation later than the first.
    gap = order[1][0] - order[0][0]
    assert gap == pytest.approx(link.serialization_ns(frame(payload=b"2" * 1000)))


def test_link_queue_overflow_drops():
    sim = Simulator()
    link = Link(sim, bandwidth_bps=12.5e9, propagation_ns=0, queue_frames=2)

    def sender():
        for _ in range(5):
            yield link.send(frame())

    sim.process(sender())
    sim.run()
    assert link.stats.dropped == 3
    assert len(link.rx_queue) == 2


def test_switch_forwards_by_mac():
    sim = Simulator()
    switch = SwitchFabric(sim)
    port_a = switch.attach(MAC_A)
    port_b = switch.attach(MAC_B)
    got = []

    def sender():
        yield port_a.send(frame(src=MAC_A, dst=MAC_B))

    def receiver():
        f = yield from port_b.receive()
        got.append(f)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert len(got) == 1


def test_switch_drops_unknown_mac():
    sim = Simulator()
    switch = SwitchFabric(sim)
    port_a = switch.attach(MAC_A)

    def sender():
        yield port_a.send(frame(src=MAC_A, dst=MAC_C))

    sim.process(sender())
    sim.run(until=1_000_000)
    assert switch.unknown_dst_drops == 1


def test_switch_rejects_duplicate_mac():
    sim = Simulator()
    switch = SwitchFabric(sim)
    switch.attach(MAC_A)
    with pytest.raises(ValueError):
        switch.attach(MAC_A)


def test_switch_three_way():
    sim = Simulator()
    switch = SwitchFabric(sim)
    ports = {m.value: switch.attach(m) for m in (MAC_A, MAC_B, MAC_C)}
    got = []

    def sender(src, dst):
        yield ports[src.value].send(frame(src=src, dst=dst))

    def receiver(mac, tag):
        f = yield from ports[mac.value].receive()
        got.append(tag)

    sim.process(sender(MAC_A, MAC_B))
    sim.process(sender(MAC_B, MAC_C))
    sim.process(receiver(MAC_B, "b"))
    sim.process(receiver(MAC_C, "c"))
    sim.run()
    assert sorted(got) == ["b", "c"]


# -- timing of the callback-driven wire -------------------------------------------


def test_back_to_back_frames_cross_a_switch_in_order_at_the_hop_sum():
    sim = Simulator()
    # Switching faster than serialisation: neither the forwarding loop
    # nor the egress link ever queues a frame behind the one before.
    switch = SwitchFabric(sim, port_latency_ns=250.0, switching_ns=50.0)
    port_a = switch.attach(MAC_A)
    port_b = switch.attach(MAC_B)
    frames = [frame(payload=bytes([tag]) * 1000) for tag in b"wxyz"]
    ser = port_a.ingress.serialization_ns(frames[0])
    assert ser > switch.switching_ns
    for f in frames:
        port_a.send(f)   # fire and forget: the transmitter is reserved now
    arrivals = []

    def receiver():
        for _ in frames:
            got = yield from port_b.receive()
            arrivals.append((sim.now, got))

    sim.process(receiver())
    sim.run()
    assert [got for _t, got in arrivals] == frames
    for index, (t, _got) in enumerate(arrivals):
        on_wire = (index + 1) * ser           # back to back on the ingress
        expected = (on_wire + switch.port_latency_ns + switch.switching_ns
                    + ser + switch.port_latency_ns)
        assert t == pytest.approx(expected, abs=1e-6)


def test_fault_copies_land_at_propagation_plus_their_extra_delay():
    from repro.faults import FaultPlan, InjectionStats, install_link_faults

    sim = Simulator()
    link = Link(sim, propagation_ns=500.0, name="l")
    plan = FaultPlan.from_spec("reorder=1,dup=1,reorder_ns=700")
    install_link_faults(link, plan, InjectionStats(), "l")
    landed = []
    link.on_deliver = lambda _link, got: landed.append((sim.now, got))
    f = frame()
    sim.run(until=link.send(f))
    wire_ns = sim.now
    assert link.stats.in_flight() == 2   # the frame and its duplicate
    sim.run()
    assert link.stats.fault_duplicated == 1
    assert landed == [(wire_ns + 500.0 + 700.0, f)] * 2
    assert link.stats.delivered == 2
    assert link.stats.in_flight() == 0


def test_queue_full_drop_is_counted_at_delivery_time():
    sim = Simulator()
    link = Link(sim, propagation_ns=5_000.0, queue_frames=1, name="l")
    drops = []
    link.on_drop = lambda _link, _frame, reason: drops.append((sim.now, reason))
    link.send(frame())
    sim.run()
    assert len(link.rx_queue) == 1   # nobody reads: the queue is full

    sim.run(until=link.send(frame(payload=b"y" * 200)))
    wire_ns = sim.now
    landing_ns = wire_ns + link.propagation_ns
    assert link.stats.in_flight() == 1
    sim.run(until=landing_ns - 1.0)
    assert link.stats.in_flight() == 1
    assert drops == []
    sim.run(until=landing_ns)
    assert drops == [(landing_ns, "queue-full")]
    assert link.stats.dropped == 1
    assert link.stats.in_flight() == 0


# -- ECMP member choice ----------------------------------------------------------


def _reference_flow_index(raw: bytes, n: int, salt: int) -> int:
    """The ECMP choice as the fabric made it by decoding copied slices."""
    try:
        eth = EthernetHeader.unpack(raw)
        if eth.ethertype != ETHERTYPE_IPV4:
            return 0
        ip = Ipv4Header.unpack(raw[EthernetHeader.SIZE:], verify=False)
        udp = UdpHeader.unpack(raw[EthernetHeader.SIZE + Ipv4Header.SIZE:])
    except (HeaderError, ValueError):
        return 0
    return (rss_hash(ip.src, ip.dst, udp.src_port, udp.dst_port) ^ salt) % n


@given(
    st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
    st.binary(max_size=16), st.integers(0, 1 << 16),
    st.integers(2, 8), st.integers(-1, 60), st.integers(0, 255),
    st.integers(0, 64),
)
def test_flow_index_equals_the_slice_decoding_choice(
        src_ip, dst_ip, src_port, dst_port, payload, salt, n,
        corrupt_at, corrupt_to, cut):
    raw = bytearray(build_udp_frame(MAC_A, MAC_B, src_ip, dst_ip, src_port,
                                    dst_port, payload).data)
    if 0 <= corrupt_at < len(raw):
        raw[corrupt_at] = corrupt_to   # ethertype, version/IHL, ports...
    raw = bytes(raw[:len(raw) - cut] if cut else raw)
    switch = SwitchFabric(Simulator())
    switch.ecmp_salt = salt
    assert (switch._flow_index(Frame(raw), n)
            == _reference_flow_index(raw, n, salt))


def test_flow_index_falls_back_to_member_zero():
    switch = SwitchFabric(Simulator())
    raw = frame().data
    assert switch._flow_index(Frame(raw), 1 << 30) != 0
    for index, value in ((12, 0x86), (14, 0x65), (14, 0x46)):
        bad = bytearray(raw)
        bad[index] = value   # IPv6 ethertype, IP version 6, IHL 6
        assert switch._flow_index(Frame(bytes(bad)), 4) == 0
    assert switch._flow_index(Frame(raw[:41]), 4) == 0


def test_switch_rejects_a_truncated_frame():
    sim = Simulator()
    switch = SwitchFabric(sim)
    port_a = switch.attach(MAC_A)
    switch.attach(MAC_B)

    def sender():
        yield port_a.send(Frame(frame().data[:EthernetHeader.SIZE - 1]))

    sim.process(sender())
    with pytest.raises(HeaderError):
        sim.run()
