"""ECMP/RSS-style load balancing across service replicas.

An :class:`EcmpBalancer` maps a flow (client IP, UDP source port,
service port) to one replica the way a rack fabric or an L4 balancer
would: a seed-salted hash of the flow tuple, computed once per flow.
The two properties the fleet invariants lean on:

* **deterministic** — the choice is a pure function of (seed, flow),
  so replaying a run reproduces the exact assignment; and
* **flow-affine** — all requests of one flow land on one replica, so
  per-flow FIFO order is preserved end to end.

The balancer also keeps a ledger (per-replica ``routed`` counts and
the flow->replica map) that :mod:`repro.check.fleet` reconciles
against what each replica actually served; the map also spares a
flow's later requests the hash.
"""

from __future__ import annotations

from typing import Sequence

from ..nic.rss import rss_hash
from ..sim.rng import derive_seed

__all__ = ["EcmpBalancer"]


class EcmpBalancer:
    """Deterministic, flow-affine replica chooser with a ledger."""

    def __init__(self, replicas: Sequence, seed: int = 0,
                 dst_port: int = 9000):
        if not replicas:
            raise ValueError("a balancer needs at least one replica")
        self.replicas = list(replicas)
        self.dst_port = dst_port
        # rss_hash wants a 32-bit "destination address"; fold the
        # 64-bit derived seed into one.
        salt = derive_seed(seed, "fleet", "lb")
        self.salt = (salt ^ (salt >> 32)) & 0xFFFFFFFF
        #: requests routed per replica index (the balancer's ledger)
        self.routed = [0] * len(self.replicas)
        #: flow key -> replica index, for affinity auditing
        self.affinity: dict[tuple[int, int], int] = {}

    def index_for(self, src_ip: int, src_port: int) -> int:
        """Replica index for a flow; pure, records nothing."""
        value = rss_hash(src_ip, self.salt, src_port, self.dst_port)
        # FNV-1a's low bits avalanche poorly; fold the high half in
        # before reducing so small replica counts still spread.
        value ^= value >> 32
        value ^= value >> 16
        return value % len(self.replicas)

    def pick(self, src_ip: int, src_port: int):
        """Choose (and ledger) the replica for one request of a flow;
        only the flow's first request is hashed."""
        flow = (src_ip, src_port)
        index = self.affinity.get(flow)
        if index is None:
            index = self.affinity[flow] = self.index_for(src_ip, src_port)
        self.routed[index] += 1
        return self.replicas[index]

    def spread(self) -> dict:
        """Summary of how flows and requests landed (for reports)."""
        per_replica_flows = [0] * len(self.replicas)
        for index in self.affinity.values():
            per_replica_flows[index] += 1
        return {
            "replicas": len(self.replicas),
            "flows": len(self.affinity),
            "requests": sum(self.routed),
            "routed": list(self.routed),
            "flows_per_replica": per_replica_flows,
        }
