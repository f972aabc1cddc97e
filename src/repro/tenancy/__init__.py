"""Multi-tenant isolation for the Lauberhorn NIC.

The paper trusts the NIC as part of the OS; OSMOSIS (PAPERS.md) asks
what happens when many tenants *share* it — and shows that a shared
SmartNIC without per-tenant isolation lets one tenant's burst wreck
every other tenant's tail.  This package is the repo's answer:

* :class:`TenantSpec` / :class:`TenantTable` — tenant identity
  (weight, CONTROL-line budget, rate limit) attached to services at
  registration time;
* :class:`TokenBucket` — the per-tenant admission rate limiter the
  NIC consults at demux time, *before* paying for crypto or
  deserialisation;
* :class:`DeficitRoundRobin` — weighted-fair arbitration of queued
  work: the NIC's global backlog, one FIFO per tenant;
* :class:`TenantStats` — the per-tenant charge ledger (CONTROL-line
  loads, Tryagain bounces, DMA fallbacks, rate-limit drops) surfaced
  through :class:`repro.obs.metrics.MetricsRegistry`.

The Lauberhorn NIC always queues and charges through these parts: an
unattached NIC keeps a private :class:`TenantTable` whose auto-created
``_default`` tenant owns every service, and one tenant's DWRR queue is
a plain FIFO.  Only attaching a table exposes tenancy (metric probes,
invariant checks, span tags), so untenanted runs replay every build
that predates this package byte for byte (enforced by the golden
corpus and the E19–E23 digest pins).
"""

from .bucket import TokenBucket
from .dwrr import DeficitRoundRobin
from .spec import TenantSpec, TenantStats, TenantTable

__all__ = [
    "TenantSpec",
    "TenantStats",
    "TenantTable",
    "TokenBucket",
    "DeficitRoundRobin",
]
