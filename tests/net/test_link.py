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
        yield from link.send(f)

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
        yield from link.send(frame(payload=b"1" * 1000))
        yield from link.send(frame(payload=b"2" * 1000))

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
            yield from link.send(frame())

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
        yield from port_a.send(frame(src=MAC_A, dst=MAC_B))

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
        yield from port_a.send(frame(src=MAC_A, dst=MAC_C))

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
        yield from ports[src.value].send(frame(src=src, dst=dst))

    def receiver(mac, tag):
        f = yield from ports[mac.value].receive()
        got.append(tag)

    sim.process(sender(MAC_A, MAC_B))
    sim.process(sender(MAC_B, MAC_C))
    sim.process(receiver(MAC_B, "b"))
    sim.process(receiver(MAC_C, "c"))
    sim.run()
    assert sorted(got) == ["b", "c"]


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
        yield from port_a.send(Frame(frame().data[:EthernetHeader.SIZE - 1]))

    sim.process(sender())
    with pytest.raises(HeaderError):
        sim.run()
