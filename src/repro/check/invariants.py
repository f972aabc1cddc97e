"""The repo's runtime invariants, wired onto live components.

:func:`install_checks` takes an assembled testbed or fleet and
registers every applicable invariant on a fresh
:class:`~repro.check.registry.CheckRegistry` — the per-host ones on
each host, conservation on every link of every switch:

* **clock** — simulation time never runs backwards, and the next
  scheduled event is never in the past;
* **mesi** — validated after every fabric operation: at most one
  EXCLUSIVE/MODIFIED holder per line, an owner excludes all other
  holders, and no cache performs an illegal transition (S→E, M→E
  without passing through INVALID);
* **packet-conservation** — per link,
  ``frames + duplicated == delivered + dropped + lost`` (≥ while
  frames are still in flight, exact once the run drains);
* **ring** — descriptor rings and backlogs never exceed capacity and
  counters never go negative;
* **scheduler** — queued threads are READY, pinned threads sit on
  their pinned core's queue, and once the run drains no thread is
  lost (everything is DONE or deliberately BLOCKED, queues empty);
* **lauberhorn-accounting** — every CONTROL-line fill is answered at
  most once (delivered, Tryagain, or Retire), parked fills are
  counted, aggregate counters agree with per-endpoint counters, and
  responses never exceed deliveries.

The MESI checks wrap the fabric's *bound methods* on the one instance
being checked; uninstrumented machines are untouched.  Nothing here
runs unless a harness calls :func:`install_checks` — experiments and
benchmarks without checks execute exactly the code they always did.
"""

from __future__ import annotations

from typing import Iterable

from ..hw.coherence import CoherenceFabric, LineState
from .registry import CheckRegistry
from .tenancy import install_tenancy_checks

__all__ = ["install_checks", "bed_links"]

#: a core must never go straight from these states to EXCLUSIVE (S->E,
#: M->E); every other per-core transition is legal or passes through
#: INVALID, which is always reachable/leavable
_ILLEGAL_BEFORE_EXCLUSIVE = (LineState.SHARED, LineState.MODIFIED)


# -- clock ---------------------------------------------------------------


def _install_clock_checks(reg: CheckRegistry) -> None:
    last = [reg.sim.now]

    def clock() -> Iterable[str]:
        problems = []
        now = reg.sim.now
        if now < last[0]:
            problems.append(
                f"clock ran backwards: {last[0]:.3f} -> {now:.3f}"
            )
        last[0] = now
        head = reg.sim.peek()
        if head < now:
            problems.append(
                f"next event at {head:.3f} is before now={now:.3f}"
            )
        return problems

    reg.add("clock", clock)


# -- MESI ----------------------------------------------------------------


def _line_problems(addr: int, line) -> list[str]:
    owners = [
        core for core, state in line.holders.items()
        if state in (LineState.EXCLUSIVE, LineState.MODIFIED)
    ]
    problems = []
    if len(owners) > 1:
        problems.append(
            f"line {addr:#x}: multiple writers/owners {sorted(owners)}"
        )
    if owners and len(line.holders) > 1:
        states = {c: s.value for c, s in line.holders.items()}
        problems.append(
            f"line {addr:#x}: owner {owners[0]} coexists with holders {states}"
        )
    for core, state in line.holders.items():
        if state is LineState.INVALID:
            problems.append(
                f"line {addr:#x}: core {core} recorded as INVALID holder"
            )
    return problems


def _install_mesi_checks(reg: CheckRegistry, fabric: CoherenceFabric) -> None:
    # line addr -> holders as of the last observed op
    prev: dict[int, dict[int, LineState]] = {}
    lines = fabric._lines
    line_bytes = fabric.line_bytes
    record = reg._record
    INVALID, EXCLUSIVE = LineState.INVALID, LineState.EXCLUSIVE

    def note(addr: int, op: str) -> None:
        line_addr = addr - addr % line_bytes
        line = lines.get(line_addr)
        if line is None:
            return
        holders = line.holders
        if not holders:
            prev[line_addr] = {}
            return
        states = holders.values()
        # A sole valid holder cannot break any per-line rule.
        if len(holders) > 1 or INVALID in states:
            record(f"mesi:{op}", _line_problems(line_addr, line))
        # Both illegal transitions end in EXCLUSIVE and start in a
        # state seen at an earlier op.
        if EXCLUSIVE in states:
            before = prev.get(line_addr)
            if before:
                transitions = []
                # Reports follow this union's iteration order, which is
                # not ascending once core ids reach 8; tests pin it.
                for core in set(before) | set(holders):
                    if (holders.get(core) is EXCLUSIVE and before.get(core)
                            in _ILLEGAL_BEFORE_EXCLUSIVE):
                        transitions.append(
                            f"line {line_addr:#x}: core {core} made illegal "
                            f"transition {before[core].value}->E during {op}"
                        )
                record("mesi:transition", transitions)
        prev[line_addr] = holders.copy()

    def wrap_generator(name: str):
        orig = getattr(fabric, name)

        def wrapper(*args, **kwargs):
            result = yield from orig(*args, **kwargs)
            # addr is the last/only positional address argument
            addr = args[1] if len(args) > 1 else args[0]
            note(addr, name)
            return result

        setattr(fabric, name, wrapper)

    for name in ("load", "store", "evict", "posted_write", "device_recall"):
        wrap_generator(name)

    orig_claim = fabric.device_claim

    def device_claim(addr: int):
        result = orig_claim(addr)
        note(addr, "device_claim")
        return result

    fabric.device_claim = device_claim

    orig_write = fabric.device_write

    def device_write(addr: int, data: bytes):
        result = orig_write(addr, data)
        note(addr, "device_write")
        return result

    fabric.device_write = device_write

    def scan() -> Iterable[str]:
        problems = []
        for addr, line in fabric._lines.items():
            problems.extend(_line_problems(addr, line))
        return problems

    reg.add("mesi:scan", scan)


# -- packet conservation -------------------------------------------------


def _install_conservation_checks(reg: CheckRegistry, links) -> None:
    def accounted(stats) -> tuple[int, int]:
        injected = stats.frames + stats.fault_duplicated
        settled = stats.dropped + stats.fault_lost + stats.delivered
        return injected, settled

    def sampled() -> Iterable[str]:
        problems = []
        for link in links:
            injected, settled = accounted(link.stats)
            if settled > injected:
                problems.append(
                    f"link {link.name!r}: {settled} frames accounted for "
                    f"but only {injected} injected"
                )
        return problems

    def quiesce(drained: bool) -> Iterable[str]:
        if not drained:
            return sampled()
        problems = []
        for link in links:
            injected, settled = accounted(link.stats)
            if injected != settled:
                s = link.stats
                problems.append(
                    f"link {link.name!r}: injected {injected} != settled "
                    f"{settled} at quiesce (frames={s.frames} "
                    f"dup={s.fault_duplicated} delivered={s.delivered} "
                    f"dropped={s.dropped} lost={s.fault_lost})"
                )
        return problems

    reg.add("packet-conservation", sampled)
    reg.add_quiesce("packet-conservation", quiesce)


# -- descriptor rings / backlogs -----------------------------------------


def _install_ring_checks(reg: CheckRegistry, nic) -> None:
    def rings() -> Iterable[str]:
        problems = []
        for queue in getattr(nic, "queues", ()):
            if hasattr(queue, "completed"):       # DmaNic RxQueue
                depth = len(queue.completed)
            elif hasattr(queue, "ring"):          # BypassQueue
                depth = len(queue.ring)
            else:                                  # pragma: no cover
                continue
            if depth > queue.capacity:
                problems.append(
                    f"{nic.name} queue {queue.index}: depth {depth} "
                    f"exceeds capacity {queue.capacity}"
                )
            if queue.drops < 0:
                problems.append(
                    f"{nic.name} queue {queue.index}: negative drop "
                    f"count {queue.drops}"
                )
        for ep in getattr(nic, "endpoints", ()):
            if len(ep.backlog) > ep.backlog_capacity:
                problems.append(
                    f"endpoint {ep.id}: backlog {len(ep.backlog)} exceeds "
                    f"capacity {ep.backlog_capacity}"
                )
        return problems

    reg.add("ring", rings)
    reg.add_quiesce("ring", lambda drained: rings())


# -- scheduler -----------------------------------------------------------


def _all_threads(kernel):
    for process in kernel.processes:
        yield from process.threads


def _install_scheduler_checks(reg: CheckRegistry, kernel) -> None:
    from ..os.process import ThreadState

    scheduler = kernel.scheduler

    def sampled() -> Iterable[str]:
        problems = []
        for core_id in range(scheduler.n_cores):
            for thread in scheduler.queued_threads(core_id):
                if thread.state is not ThreadState.READY:
                    problems.append(
                        f"thread {thread.name!r} queued on core {core_id} "
                        f"in state {thread.state.value}"
                    )
                if (thread.pinned_core is not None
                        and thread.pinned_core != core_id):
                    problems.append(
                        f"thread {thread.name!r} pinned to core "
                        f"{thread.pinned_core} but queued on {core_id}"
                    )
        held = sum(scheduler.queue_lengths())
        if held != scheduler.total_queued():
            problems.append(
                f"scheduler counts {scheduler.total_queued()} queued "
                f"thread(s) but its run queues hold {held}"
            )
        stats = kernel.stats
        for name in ("context_switches", "thread_switches", "irqs",
                     "ipis", "preemptions", "syscalls"):
            if getattr(stats, name) < 0:
                problems.append(f"kernel stat {name} went negative")
        return problems

    def quiesce(drained: bool) -> Iterable[str]:
        problems = list(sampled())
        if not drained:
            return problems
        queued = scheduler.total_queued()
        if queued:
            problems.append(
                f"{queued} thread(s) still queued after the run drained"
            )
        for thread in _all_threads(kernel):
            if thread.state in (ThreadState.READY, ThreadState.RUNNING):
                problems.append(
                    f"thread {thread.name!r} lost in state "
                    f"{thread.state.value} after the run drained"
                )
        return problems

    reg.add("scheduler", sampled)
    reg.add_quiesce("scheduler", quiesce)


# -- Lauberhorn accounting -----------------------------------------------


def _install_lauberhorn_checks(reg: CheckRegistry, nic) -> None:
    def accounting(drained: bool) -> Iterable[str]:
        problems = []
        lstats = nic.lstats
        agg_tryagains = agg_retires = agg_delivered = agg_completed = 0
        for ep in nic.endpoints:
            s = ep.stats
            agg_tryagains += s.tryagains
            agg_retires += s.retires
            agg_delivered += s.delivered
            agg_completed += s.completed
            answered = s.delivered + s.tryagains + s.retires
            outstanding = 1 if ep.parked is not None else 0
            if answered + outstanding > s.ctrl_loads:
                problems.append(
                    f"endpoint {ep.id}: {answered} answers + "
                    f"{outstanding} parked exceed {s.ctrl_loads} "
                    "CONTROL fills (a fill was answered twice)"
                )
            if drained and answered + outstanding != s.ctrl_loads:
                problems.append(
                    f"endpoint {ep.id}: {s.ctrl_loads} CONTROL fills but "
                    f"only {answered} answers + {outstanding} parked at "
                    "quiesce (a fill was dropped)"
                )
            if s.completed > s.delivered:
                problems.append(
                    f"endpoint {ep.id}: completed {s.completed} exceeds "
                    f"delivered {s.delivered}"
                )
        if lstats.tryagains != agg_tryagains:
            problems.append(
                f"tryagain ledger mismatch: nic counted {lstats.tryagains}, "
                f"endpoints counted {agg_tryagains}"
            )
        if lstats.retires != agg_retires:
            problems.append(
                f"retire ledger mismatch: nic counted {lstats.retires}, "
                f"endpoints counted {agg_retires}"
            )
        if lstats.delivered_fast + lstats.delivered_kernel > agg_delivered:
            problems.append(
                "delivery ledger mismatch: nic counted "
                f"{lstats.delivered_fast + lstats.delivered_kernel}, "
                f"endpoints counted {agg_delivered}"
            )
        if lstats.responses_sent != agg_completed:
            problems.append(
                f"response ledger mismatch: nic sent {lstats.responses_sent}, "
                f"endpoints completed {agg_completed}"
            )
        return problems

    reg.add("lauberhorn-accounting", lambda: accounting(False))
    reg.add_quiesce("lauberhorn-accounting", accounting)


# -- entry point ---------------------------------------------------------


def bed_links(bed) -> list:
    """Every link of every switch in a testbed or fleet, ToRs first."""
    links = []
    for switch in bed.switches:
        for port in switch.ports.values():
            links.append(port.ingress)
            links.append(port.egress)
    return links


def install_checks(bed, *, interval_ns: float = 250_000.0) -> CheckRegistry:
    """Register every applicable invariant; returns the registry.

    ``bed`` is a :class:`~repro.experiments.testbed.Testbed` or a
    :class:`repro.fleet.Fleet`: each host gets the per-host battery and
    every switch link gets packet conservation.  Call
    ``reg.start(horizon_ns)`` before running to sample periodically,
    and ``reg.assert_clean()`` after.
    """
    reg = CheckRegistry(bed.sim, interval_ns=interval_ns)
    _install_clock_checks(reg)
    for host in bed.hosts:
        nic = host.nic
        if host.machine.fabric is not None:
            _install_mesi_checks(reg, host.machine.fabric)
        if hasattr(nic, "queues") or hasattr(nic, "endpoints"):
            _install_ring_checks(reg, nic)
        if host.kernel is not None:
            _install_scheduler_checks(reg, host.kernel)
        if hasattr(nic, "lstats"):
            _install_lauberhorn_checks(reg, nic)
        if getattr(nic, "tenants", None) is not None:
            install_tenancy_checks(reg, nic)
    _install_conservation_checks(reg, bed_links(bed))
    return reg
