"""Fault injectors: wrap simulation components per a FaultPlan.

Installation is strictly additive and per-instance: injectors rebind
*bound attributes* on the objects they disturb (a link's fault hook, a
core's ``execute``, the fabric's timing helpers), never classes — so
an un-faulted machine in the same process is untouched, and a plan
whose domains are inactive installs nothing at all.

Two entry points:

* :func:`install_machine_faults` — called by ``Machine.__init__``:
  core hiccups/frequency dips, coherence jitter, DMA delay spikes.
* :func:`install_testbed_faults` — called by the testbed and fleet
  builders once all ports exist: link faults on every switch port,
  each NIC's RX stall hook, and client retransmission when frames can
  be lost.

Every injector draws from its own named stream
(``plan.rng("link", port_name)`` etc.), so schedules are deterministic
and independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .plan import FaultPlan

__all__ = [
    "InjectionStats",
    "LinkFaultInjector",
    "install_machine_faults",
    "install_testbed_faults",
    "install_link_faults",
    "install_nic_faults",
]

#: client retransmission timer when loss/corruption is active: well
#: above any healthy RTT in the repo's testbeds (tens of us), well
#: below experiment horizons.
RETRY_TIMEOUT_NS = 2_000_000.0


@dataclass
class InjectionStats:
    """What the injectors actually did (one instance per machine)."""

    frames_lost: int = 0
    frames_corrupted: int = 0
    frames_reordered: int = 0
    frames_duplicated: int = 0
    ring_stalls: int = 0
    dma_spikes: int = 0
    core_hiccups: int = 0
    coherence_jitters: int = 0
    crashes: int = 0
    restarts: int = 0

    def total(self) -> int:
        return (self.frames_lost + self.frames_corrupted
                + self.frames_reordered + self.frames_duplicated
                + self.ring_stalls + self.dma_spikes + self.core_hiccups
                + self.coherence_jitters + self.crashes)


# -- link faults ---------------------------------------------------------


def _corrupt_frame(frame, rng: random.Random):
    data = bytearray(frame.data)
    index = rng.randrange(len(data))
    data[index] ^= 1 << rng.randrange(8)
    return type(frame)(data=bytes(data), born_ns=frame.born_ns,
                       meta=frame.copy_meta())


class LinkFaultInjector:
    """Per-link frame fate decider, installed as ``link.fault``.

    :meth:`fate` maps one transmitted frame to zero or more
    ``(frame, extra_delay_ns)`` deliveries, updating the link's fault
    counters so the packet-conservation invariant can balance
    ``frames + duplicated == delivered + dropped + lost`` at quiesce.
    """

    def __init__(self, cfg, rng: random.Random, stats: InjectionStats):
        self.cfg = cfg
        self.rng = rng
        self.stats = stats
        #: optional flight recorder (set by repro.obs.instrument.arm_flight);
        #: None keeps fate() free of any observability work
        self.flight = None

    def fate(self, link, frame):
        cfg = self.cfg
        rng = self.rng
        flight = self.flight
        if cfg.loss_rate and rng.random() < cfg.loss_rate:
            link.stats.fault_lost += 1
            self.stats.frames_lost += 1
            if flight is not None:
                flight.note("fault.loss", link=link.name)
            if link.on_drop is not None:
                link.on_drop(link, frame, "fault-loss")
            return ()
        delivered = frame
        if cfg.corrupt_rate and rng.random() < cfg.corrupt_rate and frame.data:
            delivered = _corrupt_frame(frame, rng)
            link.stats.fault_corrupted += 1
            self.stats.frames_corrupted += 1
            if flight is not None:
                flight.note("fault.corrupt", link=link.name)
        extra = 0.0
        if cfg.reorder_rate and rng.random() < cfg.reorder_rate:
            extra = cfg.reorder_delay_ns
            link.stats.fault_reordered += 1
            self.stats.frames_reordered += 1
            if flight is not None:
                flight.note("fault.reorder", link=link.name,
                            delay_ns=extra)
        deliveries = [(delivered, extra)]
        if cfg.duplicate_rate and rng.random() < cfg.duplicate_rate:
            link.stats.fault_duplicated += 1
            self.stats.frames_duplicated += 1
            if flight is not None:
                flight.note("fault.duplicate", link=link.name)
            deliveries.append((delivered, extra))
        return deliveries


def install_link_faults(link, plan: FaultPlan, stats: InjectionStats,
                        path: str) -> None:
    """Attach a :class:`LinkFaultInjector` to one link."""
    if not plan.link.active:
        return
    link.fault = LinkFaultInjector(plan.link, plan.rng("link", path), stats)


# -- NIC faults ----------------------------------------------------------


def install_nic_faults(nic, plan: FaultPlan, stats: InjectionStats) -> None:
    """Install the RX-pipeline stall hook on one NIC instance."""
    cfg = plan.nic
    if cfg.ring_stall_rate <= 0:
        return
    rng = plan.rng("nic", nic.name)
    sim = nic.sim

    def rx_stall():
        if rng.random() < cfg.ring_stall_rate:
            stats.ring_stalls += 1
            flight = getattr(nic, "flight", None)
            if flight is not None:
                flight.note("fault.ring_stall", nic=nic.name,
                            stall_ns=cfg.ring_stall_ns)
            yield sim.timeout(cfg.ring_stall_ns)
        return None

    nic.rx_fault = rx_stall


def _install_dma_faults(machine, plan: FaultPlan,
                        stats: InjectionStats) -> None:
    cfg = plan.nic
    if cfg.dma_spike_rate <= 0:
        return
    link = machine.link
    rng = plan.rng("dma")
    sim = machine.sim
    orig_read, orig_write = link.dma_read, link.dma_write

    def dma_read(nbytes, addr=None):
        if rng.random() < cfg.dma_spike_rate:
            stats.dma_spikes += 1
            yield sim.timeout(cfg.dma_spike_ns)
        yield from orig_read(nbytes, addr)
        return None

    def dma_write(nbytes, addr=None):
        if rng.random() < cfg.dma_spike_rate:
            stats.dma_spikes += 1
            yield sim.timeout(cfg.dma_spike_ns)
        yield from orig_write(nbytes, addr)
        return None

    link.dma_read = dma_read
    link.dma_write = dma_write


# -- core faults ---------------------------------------------------------


def _install_core_faults(machine, plan: FaultPlan,
                         stats: InjectionStats) -> None:
    cfg = plan.core
    if not cfg.active:
        return
    for core in machine.cores:
        rng = plan.rng("core", core.id)
        _wrap_core(core, cfg, rng, stats)


def _wrap_core(core, cfg, rng: random.Random,
               stats: InjectionStats) -> None:
    if cfg.freq_dip_factor != 1.0:
        orig_ins_ns = core.instructions_ns
        factor = cfg.freq_dip_factor

        def instructions_ns(instructions):
            return orig_ins_ns(instructions) * factor

        core.instructions_ns = instructions_ns

    if cfg.hiccup_rate > 0:
        orig_execute = core.execute
        sim = core.sim

        def execute(instructions):
            if rng.random() < cfg.hiccup_rate:
                stats.core_hiccups += 1
                # The pipeline is paused, not retiring: stall time.
                core.counters.stall_ns += cfg.hiccup_ns
                yield sim.timeout(cfg.hiccup_ns)
            yield from orig_execute(instructions)
            return None

        core.execute = execute


# -- coherence faults ----------------------------------------------------


def _install_coherence_faults(machine, plan: FaultPlan,
                              stats: InjectionStats) -> None:
    cfg = plan.coherence
    if not cfg.active or machine.fabric is None:
        return
    fabric = machine.fabric
    rng = plan.rng("coherence")
    orig_transfer, orig_request = fabric._transfer_ns, fabric._request_ns

    def transfer_ns():
        ns = orig_transfer()
        if rng.random() < cfg.jitter_rate:
            stats.coherence_jitters += 1
            ns += cfg.jitter_ns
        return ns

    def request_ns():
        ns = orig_request()
        if rng.random() < cfg.jitter_rate:
            stats.coherence_jitters += 1
            ns += cfg.jitter_ns
        return ns

    fabric._transfer_ns = transfer_ns
    fabric._request_ns = request_ns


# -- entry points --------------------------------------------------------


def install_machine_faults(machine, plan: FaultPlan) -> InjectionStats:
    """Install the machine-scoped injectors; returns the stats sink.

    Idempotent per machine (``Machine.__init__`` calls it exactly
    once).  Inactive domains install nothing.
    """
    stats = InjectionStats()
    machine.fault_stats = stats
    _install_core_faults(machine, plan, stats)
    _install_coherence_faults(machine, plan, stats)
    _install_dma_faults(machine, plan, stats)
    return stats


def install_testbed_faults(bed) -> None:
    """Finish fault installation once a testbed or fleet is assembled.

    Covers the parts a bare machine cannot see: link injectors on
    every port of every switch (ToRs, spine, trunks), each host's NIC
    RX pipeline, and — when frames can be lost — client retransmission
    so closed-loop drivers still complete.  A port owned by a host's
    NIC charges that host's machine-level stats; client and trunk
    ports charge ``bed.fault_stats`` (a testbed's is its machine's).
    Fault RNG streams are keyed by port name alone, so a 1-host fleet
    draws the same schedules as the legacy testbed.
    """
    plan = bed.plan
    if plan is None or not plan.active:
        return
    stats_by_port = {
        host.nic.port.name: host.machine.fault_stats for host in bed.hosts
    }
    for switch in bed.switches:
        for port in switch.ports.values():
            stats = stats_by_port.get(port.name, bed.fault_stats)
            install_link_faults(port.ingress, plan, stats, f"{port.name}.in")
            install_link_faults(port.egress, plan, stats, f"{port.name}.out")
    for host in bed.hosts:
        install_nic_faults(host.nic, plan, host.machine.fault_stats)
    if plan.link.lossy:
        for client in bed.clients:
            client.retry_timeout_ns = RETRY_TIMEOUT_NS
