"""Receive-Side Scaling: 4-tuple hashing to an RX queue.

A Toeplitz-flavoured but simplified hash — what matters for the
experiments is determinism and uniform spreading, not bit-for-bit
compatibility with any vendor.  The paper cites RSS as the canonical
"offload without involving the OS at all" mechanism whose static
queue->core mapping breaks down for dynamic workloads.
"""

from __future__ import annotations

import struct

__all__ = ["rss_hash", "rss_queue_index"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: the hashed flow key: addresses then ports, big-endian, 12 bytes
_FLOW_KEY = struct.Struct("!IIHH")


def rss_hash(src_ip: int, dst_ip: int, src_port: int, dst_port: int) -> int:
    """64-bit FNV-1a over the flow 4-tuple."""
    value = _FNV_OFFSET
    for byte in _FLOW_KEY.pack(src_ip, dst_ip, src_port, dst_port):
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def rss_queue_index(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, n_queues: int
) -> int:
    """Map a flow to one of ``n_queues`` queues."""
    if n_queues <= 0:
        raise ValueError("n_queues must be positive")
    return rss_hash(src_ip, dst_ip, src_port, dst_port) % n_queues
