"""Receive-Side Scaling: 4-tuple hashing to an RX queue.

A Toeplitz-flavoured but simplified hash — what matters for the
experiments is determinism and uniform spreading, not bit-for-bit
compatibility with any vendor.  The paper cites RSS as the canonical
"offload without involving the OS at all" mechanism whose static
queue->core mapping breaks down for dynamic workloads.
"""

from __future__ import annotations

# The hash lives with the wire formats: switches hash flows for ECMP
# too, and repro.net must not import repro.nic.
from ..net.headers import rss_hash

__all__ = ["rss_hash", "rss_queue_index"]


def rss_queue_index(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, n_queues: int
) -> int:
    """Map a flow to one of ``n_queues`` queues."""
    if n_queues <= 0:
        raise ValueError("n_queues must be positive")
    return rss_hash(src_ip, dst_ip, src_port, dst_port) % n_queues
