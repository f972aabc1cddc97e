"""Unit + property tests for wire headers and checksums."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    MacAddress,
    UdpHeader,
    build_udp_frame,
    internet_checksum,
    verify_checksum,
)
from repro.net.headers import frame_dst_mac, frame_flow


# -- checksum ---------------------------------------------------------------

def _rfc1071_sum(data: bytes) -> int:
    """The reference: RFC 1071's 16-bit word loop with end-around carry."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def _assert_matches_reference(data: bytes) -> None:
    total = _rfc1071_sum(data)
    assert internet_checksum(data) == (~total) & 0xFFFF
    assert verify_checksum(data) == (total == 0xFFFF)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=9000))
def test_checksum_equals_the_word_loop(data):
    _assert_matches_reference(data)
    # ...and on the buffer that verifies, so both verdicts are compared
    padded = data + b"\x00" if len(data) % 2 else data
    _assert_matches_reference(
        padded + internet_checksum(data).to_bytes(2, "big"))


def _words(*words: int) -> bytes:
    return b"".join(word.to_bytes(2, "big") for word in words)


@pytest.mark.parametrize("data", [
    b"",
    b"\x01",
    b"\xff",
    b"\x00" * 2, b"\x00" * 7, b"\x00" * 64,
    b"\xff" * 2, b"\xff" * 7, b"\xff" * 64,
    _words(0x1234, 0xEDCB),            # word sum 0xFFFF
    _words(0x8000, 0x8000, 0xFFFE),    # word sum 2 * 0xFFFF
    random.Random(3988).randbytes(3988),  # a storm-sized segment
], ids=lambda data: f"{len(data)}B")
def test_checksum_vectors_equal_the_word_loop(data):
    _assert_matches_reference(data)


def test_checksum_edge_values():
    # all-zero words sum to 0, never to the negative zero 0xFFFF
    assert internet_checksum(b"") == 0xFFFF
    assert not verify_checksum(b"")
    # a nonzero multiple of 0xFFFF folds to 0xFFFF, which verifies
    for data in (b"\xff" * 64, _words(0x1234, 0xEDCB),
                 _words(0x8000, 0x8000, 0xFFFE)):
        assert internet_checksum(data) == 0
        assert verify_checksum(data)
    # an odd tail byte is the high byte of a zero-padded word
    assert internet_checksum(b"\x01") == 0xFEFF


def test_checksum_known_vector():
    # Classic RFC 1071 worked example.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert internet_checksum(data) == 0x220D


def test_checksum_zero_data():
    assert internet_checksum(b"\x00" * 10) == 0xFFFF


@given(st.binary(min_size=0, max_size=200))
def test_checksum_verifies_after_append(data):
    checksum = internet_checksum(data)
    # Appending the checksum makes the whole buffer verify.
    padded = data + b"\x00" if len(data) % 2 else data
    assert verify_checksum(padded + checksum.to_bytes(2, "big"))


@given(st.binary(min_size=2, max_size=64))
def test_checksum_detects_single_byte_corruption(data):
    checksum = internet_checksum(data)
    corrupted = bytearray(data)
    corrupted[0] ^= 0xFF
    assert internet_checksum(bytes(corrupted)) != checksum


# -- MAC ---------------------------------------------------------------------

def test_mac_roundtrip_string():
    mac = MacAddress.from_string("02:00:00:00:00:2a")
    assert mac.value == 0x02_00_00_00_00_2A
    assert str(mac) == "02:00:00:00:00:2a"


def test_mac_roundtrip_bytes():
    mac = MacAddress(0x0A0B0C0D0E0F)
    assert MacAddress.from_bytes(mac.to_bytes()) == mac


def test_mac_rejects_out_of_range():
    with pytest.raises(HeaderError):
        MacAddress(1 << 48)
    with pytest.raises(HeaderError):
        MacAddress.from_bytes(b"\x00" * 5)


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_mac_bytes_roundtrip_property(value):
    assert MacAddress.from_bytes(MacAddress(value).to_bytes()).value == value


# -- Ethernet ------------------------------------------------------------------

def test_ethernet_pack_unpack():
    hdr = EthernetHeader(
        dst=MacAddress(0x1122_3344_5566),
        src=MacAddress(0xAABB_CCDD_EEFF),
        ethertype=ETHERTYPE_IPV4,
    )
    raw = hdr.pack()
    assert len(raw) == EthernetHeader.SIZE
    assert EthernetHeader.unpack(raw) == hdr


def test_ethernet_truncated():
    with pytest.raises(HeaderError):
        EthernetHeader.unpack(b"\x00" * 13)


# -- IPv4 ------------------------------------------------------------------------

def test_ipv4_pack_unpack_roundtrip():
    hdr = Ipv4Header(src=0x0A000001, dst=0x0A000002, total_length=100, ttl=17)
    out = Ipv4Header.unpack(hdr.pack())
    assert out.src == hdr.src and out.dst == hdr.dst
    assert out.total_length == 100 and out.ttl == 17


def test_ipv4_checksum_detects_corruption():
    raw = bytearray(Ipv4Header(src=1, dst=2, total_length=40).pack())
    raw[8] ^= 0x40  # flip a TTL bit
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(bytes(raw))


def test_ipv4_unverified_parse_allows_corruption():
    raw = bytearray(Ipv4Header(src=1, dst=2, total_length=40).pack())
    raw[8] ^= 0x40
    hdr = Ipv4Header.unpack(bytes(raw), verify=False)
    assert hdr.ttl != 64


def test_ipv4_rejects_wrong_version():
    raw = bytearray(Ipv4Header(src=1, dst=2, total_length=40).pack())
    raw[0] = (6 << 4) | 5
    with pytest.raises(HeaderError):
        Ipv4Header.unpack(bytes(raw), verify=False)


@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=20, max_value=65535),
    st.integers(min_value=1, max_value=255),
)
def test_ipv4_roundtrip_property(src, dst, length, ttl):
    hdr = Ipv4Header(src=src, dst=dst, total_length=length, ttl=ttl)
    out = Ipv4Header.unpack(hdr.pack())
    assert (out.src, out.dst, out.total_length, out.ttl) == (src, dst, length, ttl)


# -- UDP ---------------------------------------------------------------------------

def test_udp_pack_unpack():
    hdr = UdpHeader(1234, 5678, 20, 0xBEEF)
    assert UdpHeader.unpack(hdr.pack()) == hdr


def test_udp_checksum_never_zero():
    # RFC 768: computed zero is sent as 0xFFFF.
    # Find via a crafted payload or just assert the invariant holds broadly.
    for payload in (b"", b"\x00", b"test", b"\xff\xff"):
        csum = UdpHeader.compute_checksum(0, 0, 0, 0, payload)
        assert csum != 0


@given(st.binary(max_size=128))
def test_udp_checksum_deterministic(payload):
    a = UdpHeader.compute_checksum(1, 2, 3, 4, payload)
    b = UdpHeader.compute_checksum(1, 2, 3, 4, payload)
    assert a == b and 0 < a <= 0xFFFF


# -- decoding at an offset -----------------------------------------------------

def _outcome(decode, *args, **kwargs):
    """A decode's result, or the type of the error it raised."""
    try:
        return decode(*args, **kwargs)
    except HeaderError as exc:
        return type(exc)


_HEADERS = [
    EthernetHeader(MacAddress(0x0200_0000_0001), MacAddress(0xAABB_CCDD_EEFF)),
    Ipv4Header(src=0x0A000001, dst=0x0A000002, total_length=100, ttl=9),
    UdpHeader(1234, 5678, 20, 0xBEEF),
]
_DECODERS = [
    EthernetHeader.unpack,
    Ipv4Header.unpack,
    lambda raw, offset=0: Ipv4Header.unpack(raw, offset, verify=False),
    UdpHeader.unpack,
]


@given(st.binary(max_size=48), st.sampled_from(range(len(_DECODERS))),
       st.sampled_from(range(len(_HEADERS))), st.binary(max_size=24),
       st.booleans())
def test_unpack_at_offset_equals_unpack_of_the_slice(
        prefix, decoder, header, suffix, packed):
    decode = _DECODERS[decoder]
    body = _HEADERS[header].pack() if packed else b""
    raw = prefix + body + suffix
    k = len(prefix)
    assert _outcome(decode, raw, offset=k) == _outcome(decode, raw[k:])


@pytest.mark.parametrize("header", _HEADERS, ids=lambda h: type(h).__name__)
def test_unpack_truncated_after_the_offset_raises(header):
    packed = header.pack()
    prefix = b"\x45" * 64  # longer than any header on its own
    for cut in range(len(packed)):
        with pytest.raises(HeaderError):
            type(header).unpack(prefix + packed[:cut], offset=len(prefix))
    assert type(header).unpack(prefix + packed, offset=len(prefix)) == header


# -- per-hop frame reads -------------------------------------------------------

def _frame_bytes(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=40_000,
                 dst_port=7, payload=b"hello"):
    return build_udp_frame(MacAddress(0x0200_0000_0001),
                           MacAddress(0x0200_0000_0002), src_ip, dst_ip,
                           src_port, dst_port, payload).data


def test_frame_dst_mac_reads_the_ethernet_destination():
    raw = _frame_bytes()
    assert frame_dst_mac(raw) == EthernetHeader.unpack(raw).dst.value
    with pytest.raises(HeaderError):
        frame_dst_mac(raw[:EthernetHeader.SIZE - 1])


def test_frame_flow_reads_the_four_tuple():
    raw = _frame_bytes(0x0A000003, 0x0A000004, 40_001, 9)
    assert frame_flow(raw) == (0x0A000003, 0x0A000004, 40_001, 9)
    # the UDP header ends the shortest frame with a flow
    assert frame_flow(raw[:42]) == frame_flow(raw)
    assert frame_flow(raw[:41]) is None
