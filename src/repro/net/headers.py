"""Byte-exact Ethernet II, IPv4, and UDP headers.

The Lauberhorn FPGA pipeline streams frames through header decoders
(Section 5.1); our simulated NICs do the same over these parsers, so
demultiplexing operates on real wire bytes rather than Python objects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from .checksum import internet_checksum, verify_checksum

__all__ = [
    "MacAddress",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "HeaderError",
    "ETHERTYPE_IPV4",
    "IPPROTO_UDP",
    "pack_udp_frame_headers",
    "unpack_udp_frame",
    "frame_dst_mac",
    "frame_flow",
    "rss_hash",
]

ETHERTYPE_IPV4 = 0x0800
IPPROTO_UDP = 17
#: IPv4 version 4 with a five-word header: the only form built or accepted
_VERSION_IHL = 0x45
_DEFAULT_TTL = 64

#: each header's fields, in wire order (network byte order)
_ETHERNET_FIELDS = "HIHIH"  # MACs as high 16 + low 32 bits
_IPV4_FIELDS = "BBHHHBBHII"
_UDP_FIELDS = "HHHH"
#: decoders compiled once; ``unpack_from`` reads in place at an offset,
#: so no layer copies the frame behind its header to decode it
_ETHERNET = struct.Struct("!" + _ETHERNET_FIELDS)
_IPV4 = struct.Struct("!" + _IPV4_FIELDS)
_UDP = struct.Struct("!" + _UDP_FIELDS)
#: the three headers of an Ethernet/IPv4/UDP frame back to back (42 B)
_UDP_FRAME = struct.Struct(
    "!" + _ETHERNET_FIELDS + _IPV4_FIELDS + _UDP_FIELDS)
#: the RFC 768 pseudo-header (addresses, zero, protocol, UDP length)
#: then the UDP header with its checksum field zeroed
_UDP_PSEUDO = struct.Struct("!IIxBH" "HHH2x")
#: what a switch hashes per hop: the ethertype, IPv4 version/IHL and
#: addresses, and the UDP ports, read straight off the frame
_FLOW = struct.Struct("!12xHB11xIIHH")


class HeaderError(ValueError):
    """Malformed or truncated header."""


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit Ethernet address."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << 48):
            raise HeaderError(f"MAC out of range: {self.value:#x}")

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise HeaderError(f"bad MAC string: {text!r}")
        return cls(int("".join(parts), 16))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacAddress":
        if len(raw) != 6:
            raise HeaderError(f"MAC needs 6 bytes, got {len(raw)}")
        return cls(int.from_bytes(raw, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    def __str__(self) -> str:
        raw = self.to_bytes()
        return ":".join(f"{b:02x}" for b in raw)


@dataclass(slots=True)
class EthernetHeader:
    """Ethernet II header (no VLAN tags, no FCS)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV4

    SIZE = 14

    def pack(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack(
            "!H", self.ethertype
        )

    @classmethod
    def unpack(cls, raw: bytes, offset: int = 0) -> "EthernetHeader":
        if len(raw) - offset < cls.SIZE:
            raise HeaderError(
                f"Ethernet header truncated: {len(raw) - offset} B")
        dst_hi, dst_lo, src_hi, src_lo, ethertype = _ETHERNET.unpack_from(
            raw, offset)
        return cls(
            dst=MacAddress(dst_hi << 32 | dst_lo),
            src=MacAddress(src_hi << 32 | src_lo),
            ethertype=ethertype,
        )


@dataclass(slots=True)
class Ipv4Header:
    """IPv4 header without options (IHL = 5)."""

    src: int  # 32-bit address
    dst: int
    total_length: int
    protocol: int = IPPROTO_UDP
    ttl: int = _DEFAULT_TTL
    identification: int = 0
    dscp: int = 0

    SIZE = 20

    def pack(self) -> bytes:
        header = _IPV4.pack(
            _VERSION_IHL,
            self.dscp << 2,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src,
            self.dst,
        )
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def unpack(cls, raw: bytes, offset: int = 0,
               verify: bool = True) -> "Ipv4Header":
        if len(raw) - offset < cls.SIZE:
            raise HeaderError(f"IPv4 header truncated: {len(raw) - offset} B")
        (
            version_ihl,
            dscp_ecn,
            total_length,
            identification,
            _flags_frag,
            ttl,
            protocol,
            _checksum,
            src,
            dst,
        ) = _IPV4.unpack_from(raw, offset)
        version, ihl = version_ihl >> 4, version_ihl & 0xF
        if version != 4:
            raise HeaderError(f"not IPv4 (version={version})")
        if ihl != 5:
            raise HeaderError(f"IPv4 options unsupported (ihl={ihl})")
        if verify and internet_checksum(raw[offset:offset + cls.SIZE]) != 0:
            raise HeaderError("IPv4 header checksum mismatch")
        return cls(
            src=src,
            dst=dst,
            total_length=total_length,
            protocol=protocol,
            ttl=ttl,
            identification=identification,
            dscp=dscp_ecn >> 2,
        )


@dataclass(slots=True)
class UdpHeader:
    """UDP header; the checksum covers the RFC 768 pseudo-header."""

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0

    SIZE = 8

    def pack(self) -> bytes:
        return _UDP.pack(
            self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def unpack(cls, raw: bytes, offset: int = 0) -> "UdpHeader":
        if len(raw) - offset < cls.SIZE:
            raise HeaderError(f"UDP header truncated: {len(raw) - offset} B")
        return cls(*_UDP.unpack_from(raw, offset))

    @staticmethod
    def compute_checksum(
        src_ip: int, dst_ip: int, src_port: int, dst_port: int, payload: bytes
    ) -> int:
        length = UdpHeader.SIZE + len(payload)
        checksum = internet_checksum(_UDP_PSEUDO.pack(
            src_ip, dst_ip, IPPROTO_UDP, length, src_port, dst_port, length)
            + payload)
        # RFC 768: a computed zero is transmitted as all ones.
        return checksum or 0xFFFF


#: frame offsets of the IPv4 header, the UDP header and the payload
_IP_START = EthernetHeader.SIZE
_UDP_START = _IP_START + Ipv4Header.SIZE
_UDP_END = _UDP_START + UdpHeader.SIZE
#: the IPv4 header words a built frame never varies: version/IHL with
#: DSCP 0, and TTL/protocol; identification and flags/fragment are zero
_IPV4_FIXED_WORDS = (_VERSION_IHL << 8) + (_DEFAULT_TTL << 8 | IPPROTO_UDP)


def pack_udp_frame_headers(dst_mac: MacAddress, src_mac: MacAddress,
                           src_ip: int, dst_ip: int, src_port: int,
                           dst_port: int, payload: bytes) -> bytes:
    """The Ethernet, IPv4 and UDP headers in front of ``payload``, packed
    in one call: the bytes :class:`EthernetHeader`, a default
    :class:`Ipv4Header` and :class:`UdpHeader` pack, both checksums
    computed."""
    udp_length = UdpHeader.SIZE + len(payload)
    total_length = Ipv4Header.SIZE + udp_length
    # RFC 1071 over the IPv4 header's 16-bit words: their sum is
    # positive, so its end-around-carry fold is sum % 0xFFFF, or 0xFFFF
    # for a multiple of 0xFFFF.
    words = (_IPV4_FIXED_WORDS + total_length + (src_ip >> 16)
             + (src_ip & 0xFFFF) + (dst_ip >> 16) + (dst_ip & 0xFFFF))
    dst, src = dst_mac.value, src_mac.value
    return _UDP_FRAME.pack(
        dst >> 32, dst & 0xFFFFFFFF, src >> 32, src & 0xFFFFFFFF,
        ETHERTYPE_IPV4,
        _VERSION_IHL, 0, total_length, 0, 0, _DEFAULT_TTL, IPPROTO_UDP,
        0xFFFF - (words % 0xFFFF or 0xFFFF), src_ip, dst_ip,
        src_port, dst_port, udp_length,
        UdpHeader.compute_checksum(src_ip, dst_ip, src_port, dst_port,
                                   payload),
    )


def unpack_udp_frame(
    raw: bytes, verify: bool = True,
) -> Optional[tuple[Ipv4Header, UdpHeader, bytes]]:
    """The IPv4 header, UDP header and payload of an Ethernet/IPv4/UDP
    frame, its three headers read in one call.

    None when the frame is shorter than the headers or fails any check
    of the per-header decoders: ethertype, version and IHL, protocol,
    IPv4 length, UDP length and, under ``verify``, both checksums.  The
    caller decodes such a frame header by header to name the fault.
    """
    if len(raw) < _UDP_END:
        return None
    (_dst_hi, _dst_lo, _src_hi, _src_lo, ethertype,
     version_ihl, dscp_ecn, total_length, identification, _flags_frag,
     ttl, protocol, _ip_checksum, src_ip, dst_ip,
     src_port, dst_port, udp_length, checksum) = _UDP_FRAME.unpack_from(raw)
    payload = raw[_UDP_END:_UDP_START + udp_length]
    if (ethertype != ETHERTYPE_IPV4 or version_ihl != _VERSION_IHL
            or protocol != IPPROTO_UDP
            or len(raw) < _IP_START + total_length
            or len(payload) != udp_length - UdpHeader.SIZE):
        return None
    if verify and not (
            verify_checksum(raw[_IP_START:_UDP_START])
            and (not checksum or checksum == UdpHeader.compute_checksum(
                src_ip, dst_ip, src_port, dst_port, payload))):
        return None
    return (Ipv4Header(src_ip, dst_ip, total_length, protocol, ttl,
                       identification, dscp_ecn >> 2),
            UdpHeader(src_port, dst_port, udp_length, checksum),
            payload)


def frame_dst_mac(raw: bytes) -> int:
    """The destination MAC of an Ethernet frame, as an integer."""
    if len(raw) < EthernetHeader.SIZE:
        raise HeaderError(f"Ethernet header truncated: {len(raw)} B")
    return int.from_bytes(raw[:6], "big")


def frame_flow(raw: bytes) -> Optional[tuple[int, int, int, int]]:
    """``(src_ip, dst_ip, src_port, dst_port)`` of an Ethernet/IPv4 frame.

    None exactly when decoding the three headers would fail or the
    ethertype is not IPv4: a truncated frame, an IP version other than
    4, or IPv4 options.  The ports are read as UDP's whatever the IP
    protocol, as :meth:`UdpHeader.unpack` would.
    """
    if len(raw) < _UDP_END:
        return None
    ethertype, version_ihl, src, dst, src_port, dst_port = (
        _FLOW.unpack_from(raw))
    if ethertype != ETHERTYPE_IPV4 or version_ihl != _VERSION_IHL:
        return None
    return src, dst, src_port, dst_port


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: the hashed flow key: addresses then ports, big-endian, 12 bytes
_FLOW_KEY = struct.Struct("!IIHH")


def rss_hash(src_ip: int, dst_ip: int, src_port: int, dst_port: int) -> int:
    """64-bit FNV-1a over the flow 4-tuple (see :func:`frame_flow`).

    Both the NICs' receive-side scaling and the switches' ECMP member
    choice hash flows with it.
    """
    value = _FNV_OFFSET
    for byte in _FLOW_KEY.pack(src_ip, dst_ip, src_port, dst_port):
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value
