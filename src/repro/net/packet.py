"""Frame construction and parsing: wire bytes in, wire bytes out.

Everything that crosses a simulated link is a :class:`Frame` wrapping
the exact bytes an Ethernet/IPv4/UDP datagram would have on a real
wire.  NIC models parse these bytes with the decoders in
:mod:`repro.net.headers`, so bugs like a wrong length field actually
break delivery — the same failure surface as hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .headers import (
    ETHERTYPE_IPV4,
    IPPROTO_UDP,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    MacAddress,
    UdpHeader,
    pack_udp_frame_headers,
    unpack_udp_frame,
)

__all__ = ["Frame", "ParsedUdp", "build_udp_frame", "parse_udp_frame", "ip_address"]

#: Minimum Ethernet payload is padded on real wires; we keep exact sizes
#: but account for the 64 B minimum in link serialisation time.
MIN_WIRE_BYTES = 64
#: Preamble+SFD+FCS+IPG overhead charged per frame on the wire.
WIRE_OVERHEAD_BYTES = 24


def ip_address(text: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise HeaderError(f"bad IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise HeaderError(f"bad IPv4 octet in {text!r}")
        value = (value << 8) | octet
    return value


class Frame:
    """An Ethernet frame: raw bytes plus simulation metadata.

    Frames are the single most-allocated object in any end-to-end
    experiment, so the class is ``__slots__``-only and the ``meta``
    dict — opaque per-frame metadata for experiments (request ids,
    observability contexts) — is allocated lazily on first use.  Most
    data-plane frames never touch it: an unarmed run moves frames with
    two fields and no dict at all.  Read-side consumers should prefer
    :meth:`peek_meta` / :meth:`pop_meta` / :meth:`copy_meta`, which
    never materialise the dict; writing through :attr:`meta` allocates
    it on demand.
    """

    __slots__ = ("data", "born_ns", "_meta")

    def __init__(self, data: bytes, born_ns: float = 0.0,
                 meta: dict | None = None):
        self.data = data
        #: Simulation time the frame was created (for end-to-end latency).
        self.born_ns = born_ns
        # An empty dict is normalised away: the frame allocates its own
        # on first write, so callers passing a dict share it only when
        # it carries something.
        self._meta = meta or None

    @property
    def meta(self) -> dict:
        """The metadata dict, allocated on first access."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    def peek_meta(self, key, default=None):
        """``meta.get(key, default)`` without materialising the dict."""
        meta = self._meta
        return default if meta is None else meta.get(key, default)

    def pop_meta(self, key, default=None):
        """``meta.pop(key, default)`` without materialising the dict."""
        meta = self._meta
        return default if meta is None else meta.pop(key, default)

    def copy_meta(self) -> dict:
        """A shallow copy of the metadata (a fresh dict if empty)."""
        meta = self._meta
        return {} if not meta else dict(meta)

    def __len__(self) -> int:
        return len(self.data)

    # Equality/hash preserve the old frozen-dataclass contract: frames
    # compare by wire bytes and birth time; metadata never counts.
    def __eq__(self, other) -> bool:
        if type(other) is not Frame:
            return NotImplemented
        return self.data == other.data and self.born_ns == other.born_ns

    def __hash__(self) -> int:
        return hash((self.data, self.born_ns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Frame(data=<{len(self.data)} B>, born_ns={self.born_ns}, "
                f"meta={self._meta})")

    @property
    def wire_bytes(self) -> int:
        """Bytes occupying the wire, with padding and framing overhead."""
        return max(len(self.data), MIN_WIRE_BYTES) + WIRE_OVERHEAD_BYTES


@dataclass(slots=True)
class ParsedUdp:
    """A decoded UDP-in-IPv4-in-Ethernet frame.

    The Ethernet header is decoded from ``raw`` on the first read of
    :attr:`eth`; most receive paths never read it.
    """

    ip: Ipv4Header
    udp: UdpHeader
    payload: bytes
    #: the frame's bytes
    raw: bytes
    _eth: Optional[EthernetHeader] = field(default=None, repr=False,
                                           compare=False)

    @property
    def eth(self) -> EthernetHeader:
        eth = self._eth
        if eth is None:
            eth = self._eth = EthernetHeader.unpack(self.raw)
        return eth


def build_udp_frame(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    payload: bytes,
    born_ns: float = 0.0,
    meta: dict | None = None,
) -> Frame:
    """Assemble a byte-exact UDP frame with valid checksums."""
    data = pack_udp_frame_headers(dst_mac, src_mac, src_ip, dst_ip,
                                  src_port, dst_port, payload) + payload
    return Frame(data, born_ns, meta)


def parse_udp_frame(frame: Frame, verify: bool = True) -> ParsedUdp:
    """Decode an Ethernet/IPv4/UDP frame; raises HeaderError if invalid.

    The three headers are read in one call.  A frame that fails any
    check, or is too short for them, is decoded again header by header,
    which raises the error that names the first fault.
    """
    raw = frame.data
    headers = unpack_udp_frame(raw, verify)
    if headers is None:
        return _parse_per_header(raw, verify)
    return ParsedUdp(*headers, raw)


def _parse_per_header(raw: bytes, verify: bool) -> ParsedUdp:
    """:func:`parse_udp_frame` one header decoder at a time: each check
    in wire order, each raising its own :class:`HeaderError`."""
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
        expected = UdpHeader.compute_checksum(
            ip.src, ip.dst, udp.src_port, udp.dst_port, payload
        )
        if expected != udp.checksum:
            raise HeaderError("UDP checksum mismatch")
    return ParsedUdp(ip, udp, payload, raw, eth)
