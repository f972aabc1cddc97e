"""Unit + property tests for frame building/parsing."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    EthernetHeader,
    Frame,
    HeaderError,
    Ipv4Header,
    MacAddress,
    ParsedUdp,
    UdpHeader,
    build_udp_frame,
    internet_checksum,
    ip_address,
    parse_udp_frame,
)
from repro.net.packet import MIN_WIRE_BYTES, WIRE_OVERHEAD_BYTES

SRC_MAC = MacAddress.from_string("02:00:00:00:00:01")
DST_MAC = MacAddress.from_string("02:00:00:00:00:02")
SRC_IP = ip_address("10.0.0.1")
DST_IP = ip_address("10.0.0.2")


def make(payload=b"hello", **kw):
    return build_udp_frame(
        SRC_MAC, DST_MAC, SRC_IP, DST_IP, 7000, 9000, payload, **kw
    )


def test_ip_address_parse():
    assert ip_address("10.0.0.1") == 0x0A000001
    assert ip_address("255.255.255.255") == 0xFFFFFFFF
    with pytest.raises(HeaderError):
        ip_address("1.2.3")
    with pytest.raises(HeaderError):
        ip_address("1.2.3.999")


def test_build_and_parse_roundtrip():
    frame = make(b"RPC-PAYLOAD")
    parsed = parse_udp_frame(frame)
    assert parsed.payload == b"RPC-PAYLOAD"
    assert parsed.eth.dst == DST_MAC
    assert parsed.ip.src == SRC_IP and parsed.ip.dst == DST_IP
    assert parsed.udp.src_port == 7000 and parsed.udp.dst_port == 9000


def test_frame_wire_bytes_minimum():
    frame = make(b"")
    assert frame.wire_bytes == MIN_WIRE_BYTES + WIRE_OVERHEAD_BYTES


def test_frame_wire_bytes_large():
    frame = make(b"\x00" * 1400)
    assert frame.wire_bytes == len(frame.data) + WIRE_OVERHEAD_BYTES


def test_parse_rejects_corrupted_udp_checksum():
    frame = make(b"payload!")
    raw = bytearray(frame.data)
    raw[-1] ^= 0xFF  # corrupt payload; UDP checksum now wrong
    with pytest.raises(HeaderError):
        parse_udp_frame(Frame(bytes(raw)))


def test_parse_rejects_truncation():
    frame = make(b"payload!")
    with pytest.raises(HeaderError):
        parse_udp_frame(Frame(frame.data[:30]))


def test_parse_rejects_non_ipv4():
    frame = make()
    raw = bytearray(frame.data)
    raw[12:14] = b"\x86\xdd"  # IPv6 ethertype
    with pytest.raises(HeaderError):
        parse_udp_frame(Frame(bytes(raw)))


def test_frame_meta_and_born_ns():
    frame = make(b"x", born_ns=123.0, meta={"req": 7})
    assert frame.born_ns == 123.0
    assert frame.meta["req"] == 7


@given(st.binary(max_size=2000))
def test_roundtrip_any_payload(payload):
    frame = make(payload)
    assert parse_udp_frame(frame).payload == payload


@given(
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
)
def test_roundtrip_any_ports(sport, dport):
    frame = build_udp_frame(SRC_MAC, DST_MAC, SRC_IP, DST_IP, sport, dport, b"p")
    parsed = parse_udp_frame(frame)
    assert (parsed.udp.src_port, parsed.udp.dst_port) == (sport, dport)


def test_frame_meta_is_lazily_allocated():
    # Unarmed data-plane frames must not pay for a metadata dict.
    frame = make(b"x")
    assert frame._meta is None
    assert frame.peek_meta("obs") is None
    assert frame.pop_meta("obs", "fallback") == "fallback"
    assert frame.copy_meta() == {}
    # None of the read-side helpers may have materialised the dict.
    assert frame._meta is None
    # Writing through the property allocates exactly then.
    frame.meta["req"] = 7
    assert frame._meta == {"req": 7}
    assert frame.peek_meta("req") == 7
    assert frame.pop_meta("req") == 7
    assert frame._meta == {}


def test_frame_empty_meta_dict_is_normalised():
    assert Frame(b"x", meta={})._meta is None
    assert make(b"x", meta={})._meta is None


def test_frame_equality_ignores_meta():
    a = make(b"x", born_ns=5.0, meta={"req": 1})
    b = make(b"x", born_ns=5.0)
    assert a == b
    assert hash(a) == hash(b)
    assert a != make(b"y", born_ns=5.0)


# -- the header-object codec, kept as the reference ---------------------------
#
# build_udp_frame packs all three headers with one Struct
# (headers.pack_udp_frame_headers), and parse_udp_frame reads them with
# one unpack_from (headers.unpack_udp_frame), falling back to the
# per-header decoders only to name a fault.  This reference builds and
# decodes one header object at a time; every output is compared with
# it.

def _ref_udp_checksum(src_ip, dst_ip, src_port, dst_port, payload):
    length = UdpHeader.SIZE + len(payload)
    pseudo = struct.pack(
        "!4s4sBBH",
        src_ip.to_bytes(4, "big"),
        dst_ip.to_bytes(4, "big"),
        0,
        IPPROTO_UDP,
        length,
    )
    segment = struct.pack("!HHHH", src_port, dst_port, length, 0) + payload
    checksum = internet_checksum(pseudo + segment)
    return checksum or 0xFFFF


def _ref_build(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
               payload):
    udp_length = UdpHeader.SIZE + len(payload)
    checksum = _ref_udp_checksum(src_ip, dst_ip, src_port, dst_port, payload)
    udp = UdpHeader(src_port, dst_port, udp_length, checksum)
    ip = Ipv4Header(
        src=src_ip,
        dst=dst_ip,
        total_length=Ipv4Header.SIZE + udp_length,
        protocol=IPPROTO_UDP,
    )
    eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4)
    return eth.pack() + ip.pack() + udp.pack() + payload


def _ref_parse(raw, verify=True):
    eth = EthernetHeader.unpack(raw)
    if eth.ethertype != ETHERTYPE_IPV4:
        raise HeaderError(f"not IPv4: ethertype={eth.ethertype:#06x}")
    ip_start = EthernetHeader.SIZE
    ip = Ipv4Header.unpack(raw, ip_start, verify=verify)
    if ip.protocol != IPPROTO_UDP:
        raise HeaderError(f"not UDP: protocol={ip.protocol}")
    if len(raw) < ip_start + ip.total_length:
        raise HeaderError(
            f"frame shorter ({len(raw)} B) than IP total_length ({ip.total_length})"
        )
    udp_start = ip_start + Ipv4Header.SIZE
    udp = UdpHeader.unpack(raw, udp_start)
    payload_start = udp_start + UdpHeader.SIZE
    payload = raw[payload_start : udp_start + udp.length]
    if len(payload) != udp.length - UdpHeader.SIZE:
        raise HeaderError("UDP payload truncated")
    if verify and udp.checksum:
        expected = _ref_udp_checksum(
            ip.src, ip.dst, udp.src_port, udp.dst_port, payload
        )
        if expected != udp.checksum:
            raise HeaderError("UDP checksum mismatch")
    return eth, ip, udp, payload


def _parsed(raw, verify):
    """Both parsers' outcomes on ``raw``: the decoded headers and
    payload, or the type and message of what each raised."""
    outcomes = []
    for parse in (lambda: parse_udp_frame(Frame(raw), verify),
                  lambda: _ref_parse(raw, verify)):
        try:
            value = parse()
        except Exception as exc:  # compared, never swallowed
            outcomes.append(("raised", type(exc), str(exc)))
            continue
        if isinstance(value, ParsedUdp):
            value = (value.eth, value.ip, value.udp, value.payload)
        outcomes.append(("ok", value))
    return outcomes


_macs = st.integers(0, (1 << 48) - 1).map(MacAddress)
_ips = st.integers(0, 0xFFFFFFFF)
_ports = st.integers(0, 0xFFFF)


@settings(max_examples=300, deadline=None)
@given(_macs, _macs, _ips, _ips, _ports, _ports, st.binary(max_size=80))
def test_build_equals_the_header_object_reference(
        src_mac, dst_mac, src_ip, dst_ip, sport, dport, payload):
    frame = build_udp_frame(src_mac, dst_mac, src_ip, dst_ip, sport, dport,
                            payload)
    assert frame.data == _ref_build(src_mac, dst_mac, src_ip, dst_ip,
                                    sport, dport, payload)
    assert (UdpHeader.compute_checksum(src_ip, dst_ip, sport, dport, payload)
            == _ref_udp_checksum(src_ip, dst_ip, sport, dport, payload))
    for verify in (True, False):
        new, ref = _parsed(frame.data, verify)
        assert new == ref and new[0] == "ok"
        parsed = parse_udp_frame(frame, verify)
        assert type(parsed.eth.src) is MacAddress


#: (offset, width) of each header field a test breaks: ethertype,
#: version/IHL, total length, protocol, IP checksum, UDP length, UDP
#: checksum
_FIELDS = [(12, 2), (14, 1), (16, 2), (23, 1), (24, 2), (38, 2), (40, 2)]


@settings(max_examples=300, deadline=None)
@given(_macs, _ips, _ports, st.binary(max_size=40), st.data())
def test_malformed_frame_fails_as_the_reference_does(
        mac, ip, port, payload, data):
    raw = build_udp_frame(mac, mac, ip, ip ^ 1, port, 9000, payload).data
    candidates = [raw[:cut] for cut in range(61)]
    flipped = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 3))):
        index = data.draw(st.integers(0, len(flipped) - 1))
        flipped[index] ^= data.draw(st.integers(1, 255))
    candidates.append(bytes(flipped))
    for offset, width in _FIELDS:
        broken = bytearray(raw)
        broken[offset:offset + width] = data.draw(
            st.binary(min_size=width, max_size=width))
        candidates.append(bytes(broken))
    for candidate in candidates:
        for verify in (True, False):
            new, ref = _parsed(candidate, verify)
            assert new == ref


@pytest.mark.parametrize("offset, value, verify, message", [
    (12, b"\x86\xdd", True, "not IPv4: ethertype=0x86dd"),
    (14, b"\x65", False, "not IPv4 (version=6)"),
    (14, b"\x46", False, "IPv4 options unsupported (ihl=6)"),
    (24, b"\x00\x00", True, "IPv4 header checksum mismatch"),
    (23, b"\x06", False, "not UDP: protocol=6"),
    (16, b"\xff\xff", False,
     "frame shorter (50 B) than IP total_length (65535)"),
    (38, b"\x00\x07", False, "UDP payload truncated"),
    (40, b"\x12\x34", True, "UDP checksum mismatch"),
])
def test_each_fault_is_named_by_its_decoder(offset, value, verify, message):
    raw = bytearray(make(b"payload!").data)
    raw[offset:offset + len(value)] = value
    with pytest.raises(HeaderError) as caught:
        parse_udp_frame(Frame(bytes(raw)), verify)
    assert str(caught.value) == message
    assert _parsed(bytes(raw), verify)[1] == ("raised", HeaderError, message)


def test_mac_addresses_are_decoded_on_first_read(monkeypatch):
    built = []
    check = MacAddress.__post_init__
    monkeypatch.setattr(MacAddress, "__post_init__",
                        lambda self: built.append(self.value) or check(self))
    parsed = parse_udp_frame(make(b"x"))
    assert built == []
    assert parsed.eth == EthernetHeader(DST_MAC, SRC_MAC)
    assert built == [DST_MAC.value, SRC_MAC.value]
    assert parsed.eth is parsed.eth
    assert len(built) == 2
