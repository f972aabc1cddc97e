"""RPC wire format.

A fixed 24-byte header followed by marshalled arguments:

```
 0      2     3     4           8          10         12          20          24
 +------+-----+-----+-----------+----------+----------+-----------+-----------+
 | magic|flags|type | service_id| method_id| reserved | request_id|payload_len|
 | u16  | u8  | u8  | u32       | u16      | u16      | u64       | u32       |
 +------+-----+-----+-----------+----------+----------+-----------+-----------+
```

The header is everything a NIC needs to demultiplex a request to a
(service, method) end-point — exactly the information Lauberhorn's
streaming decoders extract in hardware (Section 5.1).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = ["RpcType", "RpcHeader", "RpcMessage", "RpcError", "RPC_MAGIC"]

RPC_MAGIC = 0x4C42  # "LB"
_HEADER = struct.Struct("!HBBIHHQI")
assert _HEADER.size == 24


class RpcError(ValueError):
    """Malformed RPC message."""


class RpcType(enum.IntEnum):
    REQUEST = 0
    RESPONSE = 1
    ERROR = 2


#: the members indexed by their wire value, for a lookup without the
#: enum call
_RPC_TYPES = tuple(RpcType)
assert all(index == member for index, member in enumerate(_RPC_TYPES))


@dataclass(slots=True)
class RpcHeader:
    """The fixed RPC header."""

    rpc_type: RpcType
    service_id: int
    method_id: int
    request_id: int
    payload_len: int
    flags: int = 0

    SIZE = _HEADER.size

    def pack(self) -> bytes:
        return _HEADER.pack(
            RPC_MAGIC, self.flags, self.rpc_type, self.service_id,
            self.method_id, 0, self.request_id, self.payload_len)

    @classmethod
    def unpack(cls, raw: bytes) -> "RpcHeader":
        if len(raw) < cls.SIZE:
            raise RpcError(f"RPC header truncated: {len(raw)} B")
        (magic, flags, rpc_type, service_id, method_id, _rsvd, request_id,
         payload_len) = _HEADER.unpack_from(raw)
        if magic != RPC_MAGIC:
            raise RpcError(f"bad RPC magic: {magic:#06x}")
        if rpc_type >= len(_RPC_TYPES):
            raise RpcError(f"bad RPC type: {rpc_type}")
        return cls(_RPC_TYPES[rpc_type], service_id, method_id, request_id,
                   payload_len, flags)


@dataclass(slots=True)
class RpcMessage:
    """A complete RPC message: header plus marshalled payload bytes."""

    header: RpcHeader
    payload: bytes

    def pack(self) -> bytes:
        if self.header.payload_len != len(self.payload):
            raise RpcError(
                f"header says {self.header.payload_len} B, payload is "
                f"{len(self.payload)} B"
            )
        return self.header.pack() + self.payload

    @classmethod
    def unpack(cls, raw: bytes) -> "RpcMessage":
        header = RpcHeader.unpack(raw)
        payload = raw[RpcHeader.SIZE : RpcHeader.SIZE + header.payload_len]
        if len(payload) != header.payload_len:
            raise RpcError(
                f"payload truncated: expected {header.payload_len} B, "
                f"got {len(payload)} B"
            )
        return cls(header=header, payload=payload)

    @classmethod
    def request(
        cls, service_id: int, method_id: int, request_id: int, payload: bytes
    ) -> "RpcMessage":
        return cls(
            RpcHeader(RpcType.REQUEST, service_id, method_id, request_id, len(payload)),
            payload,
        )

    @classmethod
    def response(
        cls, service_id: int, method_id: int, request_id: int, payload: bytes
    ) -> "RpcMessage":
        return cls(
            RpcHeader(
                RpcType.RESPONSE, service_id, method_id, request_id, len(payload)
            ),
            payload,
        )
