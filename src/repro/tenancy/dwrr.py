"""Deficit-weighted round-robin arbitration of queued NIC work.

The Lauberhorn NIC's global backlog is one FIFO *per tenant*
arbitrated by this scheduler: each tenant accumulates ``weight`` units
of deficit per round and spends one unit per request served, so under
contention tenant *i* receives a ``w_i / Σw`` share of dispatch slots
regardless of how fast anyone else is pushing.  With a single tenant
(an unattached NIC's ``_default``) it serves plain FIFO order.

The scheduler also keeps the evidence for the weighted-fairness
invariant (:mod:`repro.check.tenancy`): it tracks *contention spans* —
maximal intervals during which at least two tenants are continuously
backlogged — and, whenever a span member drains, verifies that
normalised service (served/weight) across members diverged by no more
than the DWRR bound.  Violations are recorded in
:attr:`fairness_problems`, never raised, matching the repo's
check-registry discipline.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

__all__ = ["DeficitRoundRobin"]


class DeficitRoundRobin:
    """One FIFO per tenant; unit cost per item; quantum = weight."""

    def __init__(self, fairness_slack: float = 2.0):
        #: extra normalised-service divergence tolerated beyond the
        #: per-pair deficit carry-over (1/w_i + 1/w_j)
        self.fairness_slack = float(fairness_slack)
        self._queues: Dict[int, Deque] = {}
        self._weights: Dict[int, float] = {}
        self._deficit: Dict[int, float] = {}
        self._ring: List[int] = []
        self._cursor = 0
        #: all-time items served per tenant
        self.served: Dict[int, int] = {}
        self.fairness_problems: List[str] = []
        self._span_active = False
        self._span_members: Set[int] = set()
        self._span_served: Dict[int, int] = {}

    # -- membership ---------------------------------------------------

    def add_tenant(self, tenant_id: int, weight: float) -> None:
        if tenant_id in self._queues:
            return
        if weight <= 0:
            raise ValueError(f"tenant {tenant_id}: weight must be > 0")
        self._queues[tenant_id] = deque()
        self._weights[tenant_id] = float(weight)
        self._deficit[tenant_id] = 0.0
        self._ring.append(tenant_id)
        self.served[tenant_id] = 0

    # -- queue ops ----------------------------------------------------

    def push(self, tenant_id: int, item) -> None:
        q = self._queues[tenant_id]
        was_empty = not q
        q.append(item)
        if was_empty:
            self._maybe_start_span()

    def pop(self, eligible: Optional[Callable[[int], bool]] = None
            ) -> Optional[Tuple[int, object]]:
        """Serve the next item; ``eligible(tid)`` can veto tenants
        (budget gating).  Returns ``(tenant_id, item)`` or ``None``."""
        n = len(self._ring)
        if n == 0:
            return None
        candidates = [t for t in self._ring
                      if self._queues[t]
                      and (eligible is None or eligible(t))]
        if not candidates:
            return None
        min_w = min(self._weights[t] for t in candidates)
        # A candidate with weight w needs at most ceil(1/w) top-ups,
        # i.e. that many full rounds, before its deficit reaches one.
        max_visits = n * (int(1.0 / min_w) + 2)
        for _ in range(max_visits):
            tid = self._ring[self._cursor % n]
            q = self._queues[tid]
            if not q or (eligible is not None and not eligible(tid)):
                self._cursor = (self._cursor + 1) % n
                continue
            if self._deficit[tid] < 1.0:
                self._deficit[tid] += self._weights[tid]
            if self._deficit[tid] < 1.0:
                self._cursor = (self._cursor + 1) % n
                continue
            self._deficit[tid] -= 1.0
            item = q.popleft()
            self._note_serve(tid)
            if not q:
                # classic DWRR: an emptied flow forfeits its deficit
                self._deficit[tid] = 0.0
                self._note_empty(tid)
                self._cursor = (self._cursor + 1) % n
            elif self._deficit[tid] < 1.0:
                self._cursor = (self._cursor + 1) % n
            return tid, item
        raise AssertionError("DWRR scan failed to converge")  # unreachable

    def steal(self, tenant_id: int, predicate: Callable) -> Optional[object]:
        """Remove the first item of ``tenant_id``'s queue matching
        ``predicate`` *without* charging the arbiter (a user loop
        draining its own service's overflow consumes no shared dispatch
        slot).  The tenant leaves any open contention span: its arbiter
        ledger is no longer a fair sample, so the fairness claim is
        waived for it rather than falsely asserted."""
        q = self._queues.get(tenant_id)
        if not q:
            return None
        for index, item in enumerate(q):
            if predicate(item):
                del q[index]
                if not q:
                    self._deficit[tenant_id] = 0.0
                if self._span_active:
                    self._span_members.discard(tenant_id)
                    if len(self._span_members) < 2:
                        self._span_active = False
                        self._span_members = set()
                        self._span_served = {}
                        self._maybe_start_span()
                return item
        return None

    def force_serve(self, tenant_id: int):
        """Fault-injection hook (tests only): serve ``tenant_id``
        unconditionally, bypassing the deficit arbiter while keeping
        the fairness ledger honest — lets a check-teeth test prove the
        fairness invariant trips under a biased arbiter."""
        q = self._queues[tenant_id]
        item = q.popleft()
        self._note_serve(tenant_id)
        if not q:
            self._deficit[tenant_id] = 0.0
            self._note_empty(tenant_id)
        return item

    # -- introspection ------------------------------------------------

    def queued(self, tenant_id: int) -> int:
        return len(self._queues[tenant_id])

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def tenants(self) -> List[int]:
        return list(self._ring)

    # -- fairness spans -----------------------------------------------

    def _backlogged(self) -> List[int]:
        return [t for t in self._ring if self._queues[t]]

    def _maybe_start_span(self) -> None:
        if self._span_active:
            return
        backlogged = self._backlogged()
        if len(backlogged) >= 2:
            self._span_active = True
            self._span_members = set(backlogged)
            self._span_served = {t: 0 for t in backlogged}

    def _note_serve(self, tenant_id: int) -> None:
        self.served[tenant_id] += 1
        if self._span_active:
            self._span_served[tenant_id] = (
                self._span_served.get(tenant_id, 0) + 1)

    def _note_empty(self, tenant_id: int) -> None:
        if not self._span_active:
            return
        if tenant_id in self._span_members:
            # The leaver was continuously backlogged from span start
            # until this instant, so the DWRR bound applies to it.
            self._check_members()
            self._span_members.discard(tenant_id)
        if len(self._span_members) < 2:
            self._span_active = False
            self._span_members = set()
            self._span_served = {}
            self._maybe_start_span()

    def _check_members(self) -> None:
        members = sorted(self._span_members)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                wa, wb = self._weights[a], self._weights[b]
                na = self._span_served.get(a, 0) / wa
                nb = self._span_served.get(b, 0) / wb
                bound = 1.0 / wa + 1.0 / wb + self.fairness_slack
                if abs(na - nb) > bound:
                    self.fairness_problems.append(
                        f"tenants {a}/{b}: normalised service diverged "
                        f"{abs(na - nb):.2f} > bound {bound:.2f} "
                        f"(served {self._span_served.get(a, 0)}@w={wa} vs "
                        f"{self._span_served.get(b, 0)}@w={wb})")

    def check_fairness(self) -> List[str]:
        """Evaluate any still-open span and return all recorded problems."""
        if self._span_active and len(self._span_members) >= 2:
            self._check_members()
            self._span_active = False
            self._span_members = set()
            self._span_served = {}
        return list(self.fairness_problems)
