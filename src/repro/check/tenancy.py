"""Tenant-isolation invariants (multi-tenant counterpart of the
Lauberhorn accounting checks).

Installed automatically by :func:`repro.check.install_checks` (and so
by :func:`repro.check.install_fleet_checks`) on every host whose NIC
has a :class:`repro.tenancy.TenantTable` attached; never armed
otherwise.

* **tenant-conservation** — per tenant, every demuxed frame is
  accounted for: ``arrivals == admitted + rate_dropped`` always, and
  at drained quiesce ``admitted == dropped + delivered`` with nothing
  queued, nothing held, and every delivery completed;
* **tenant-budget** — a budgeted tenant never *holds* more CONTROL
  lines than its cap, the ledger never goes negative, and the
  ``held_now`` gauge reconciles exactly with the end-points' actual
  in-flight deliveries (the ledger cannot drift from reality);
* **tenant-fairness** — the DWRR arbiter's contention spans show
  normalised service (served/weight) diverging by no more than the
  deficit bound between tenants that stayed continuously backlogged
  (evidence gathered by
  :class:`repro.tenancy.DeficitRoundRobin`, judged at quiesce).
"""

from __future__ import annotations

from typing import Iterable

from .registry import CheckRegistry

__all__ = ["install_tenancy_checks"]


def install_tenancy_checks(reg: CheckRegistry, nic) -> None:
    table = nic.tenants
    if table is None:
        raise ValueError("install_tenancy_checks needs a tenanted NIC")
    dwrr = nic.backlog

    # -- conservation -----------------------------------------------------

    def conservation(drained: bool) -> Iterable[str]:
        problems = []
        for spec in table:
            s = table.stats[spec.tenant_id]
            if s.arrivals != s.admitted + s.rate_dropped:
                problems.append(
                    f"tenant {spec.name!r}: {s.arrivals} arrivals != "
                    f"{s.admitted} admitted + {s.rate_dropped} rate-dropped")
            delivered = s.delivered_fast + s.delivered_kernel
            # Between admission and dispatch a request can be mid-pipe
            # (crypto/deserialise), so mid-run this is an inequality.
            if s.dropped + delivered + s.queued_now > s.admitted:
                problems.append(
                    f"tenant {spec.name!r}: {s.dropped} drops + {delivered} "
                    f"deliveries + {s.queued_now} queued exceed "
                    f"{s.admitted} admissions")
            if s.completed > delivered:
                problems.append(
                    f"tenant {spec.name!r}: {s.completed} completions "
                    f"exceed {delivered} deliveries")
            if drained:
                if s.admitted != s.dropped + delivered:
                    problems.append(
                        f"tenant {spec.name!r}: {s.admitted} admitted != "
                        f"{s.dropped} dropped + {delivered} delivered "
                        "at quiesce")
                if s.queued_now:
                    problems.append(
                        f"tenant {spec.name!r}: {s.queued_now} requests "
                        "still queued at quiesce")
                if s.held_now:
                    problems.append(
                        f"tenant {spec.name!r}: {s.held_now} CONTROL "
                        "lines still held at quiesce")
                if s.completed != delivered:
                    problems.append(
                        f"tenant {spec.name!r}: {s.completed} completed != "
                        f"{delivered} delivered at quiesce")
        return problems

    reg.add("tenant-conservation", lambda: conservation(False))
    reg.add_quiesce("tenant-conservation", conservation)

    # -- budget -----------------------------------------------------------

    def budget() -> Iterable[str]:
        problems = []
        actual: dict = {}
        for ep in nic.endpoints:
            inflight = ep.inflight
            if inflight is None:
                continue
            service = inflight.request.service
            if service is nic._cont_service:
                continue
            spec = table.tenant_for_service(service.service_id)
            actual[spec.tenant_id] = actual.get(spec.tenant_id, 0) + 1
        for spec in table:
            s = table.stats[spec.tenant_id]
            if s.held_now < 0:
                problems.append(
                    f"tenant {spec.name!r}: held_now went negative "
                    f"({s.held_now})")
            if (spec.ctrl_budget is not None
                    and s.held_now > spec.ctrl_budget):
                problems.append(
                    f"tenant {spec.name!r}: holds {s.held_now} CONTROL "
                    f"lines, budget is {spec.ctrl_budget}")
            held = actual.get(spec.tenant_id, 0)
            if s.held_now != held:
                problems.append(
                    f"tenant {spec.name!r}: ledger says {s.held_now} lines "
                    f"held but end-points show {held} in flight")
        return problems

    reg.add("tenant-budget", budget)
    reg.add_quiesce("tenant-budget", lambda drained: budget())

    # -- weighted fairness ------------------------------------------------

    def fairness(drained: bool) -> Iterable[str]:
        # check_fairness() closes any still-open contention span and
        # returns every recorded divergence; quiesce-only so problems
        # are reported exactly once.
        return dwrr.check_fairness()

    reg.add_quiesce("tenant-fairness", fairness)
