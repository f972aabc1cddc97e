"""Kernel-bypass datapath (DPDK/Arrakis/IX-style).

The NIC DMA-writes frames straight into per-queue user-space rings;
pinned application workers busy-poll those rings with a poll-mode
driver (PMD) — no interrupts, no syscalls, no socket layer.  This is
the "fastest kernel-bypass" baseline the paper sets out to beat:
excellent latency when a dedicated core is spinning on the right
queue, but the core burns energy while idle and the queue->core
binding is static (Section 2's critique).

Flow steering is static: a ``dst_port -> queue`` table configured at
setup (Intel Flow Director-style), falling back to RSS.

Spin modelling: rather than simulating every poll iteration (which
would melt the event queue during 15 ms idle gaps), an idle worker
waits on the queue's arrival gate and is *charged* busy time and
poll instructions for the entire gap on wake-up — identical timing and
energy, O(1) events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.machine import Machine
from ..net.headers import HeaderError
from ..net.link import Port
from ..net.packet import Frame, parse_udp_frame
from ..os import ops
from ..sim.engine import AnyOf
from ..sim.resources import Gate
from .base import BaseNic
from .rss import rss_queue_index

__all__ = ["BypassQueue", "BypassNic"]


@dataclass
class BypassQueue:
    """A user-space RX ring plus its arrival gate."""

    index: int
    capacity: int
    gate: Gate
    ring: list[Frame] = field(default_factory=list)
    drops: int = 0


class BypassNic(BaseNic):
    """A NIC in pure kernel-bypass mode."""

    def __init__(
        self,
        machine: Machine,
        port: Port,
        n_queues: int = 1,
        name: str = "bypass-nic",
    ):
        super().__init__(machine, port, name)
        if n_queues < 1:
            raise ValueError("need at least one queue")
        self.queues = [
            BypassQueue(
                index=i,
                capacity=machine.params.nic.rx_ring_entries,
                gate=Gate(machine.sim, f"{name}.q{i}"),
            )
            for i in range(n_queues)
        ]
        #: static flow steering: UDP dst port -> queue index
        self.flow_table: dict[int, int] = {}
        #: PMD spin-accounting quantum; runtime-settable (repro.ctrl
        #: poll-interval tuning).  Read fresh on every poll iteration,
        #: so a controller changing it mid-run takes effect at the next
        #: spin segment.  The default matches the historical constant.
        self.poll_quantum_ns = 1_000_000.0

    def steer_port(self, udp_port: int, queue_index: int) -> None:
        """Pin a UDP port's flows to one queue (Flow Director-style)."""
        if not 0 <= queue_index < len(self.queues):
            raise ValueError(f"no queue {queue_index}")
        self.flow_table[udp_port] = queue_index

    # -- receive path -------------------------------------------------------

    def _rx_frame(self, frame: Frame, ctx, rx_start_ns: float):
        queue = self._classify(frame)
        if len(queue.ring) >= queue.capacity:
            queue.drops += 1
            self.stats.rx_dropped += 1
            return
        yield from self.link.dma_write(len(frame.data))
        yield from self.link.dma_write(self.params.descriptor_bytes)
        queue.ring.append(frame)
        if ctx is not None:
            self.obs.record("nic.rx", "nic", ctx, rx_start_ns, self.sim.now,
                            queue=queue.index)
        queue.gate.open()

    def _classify(self, frame: Frame) -> BypassQueue:
        try:
            parsed = parse_udp_frame(frame, verify=False)
        except HeaderError:
            return self.queues[0]
        steered = self.flow_table.get(parsed.udp.dst_port)
        if steered is not None:
            return self.queues[steered]
        index = rss_queue_index(
            parsed.ip.src,
            parsed.ip.dst,
            parsed.udp.src_port,
            parsed.udp.dst_port,
            len(self.queues),
        )
        return self.queues[index]

    def bind_metrics(self, registry, prefix: str = "nic") -> None:
        super().bind_metrics(registry, prefix)
        for queue in self.queues:
            registry.probe(f"{prefix}.rxq{queue.index}", lambda q=queue: {
                "depth": len(q.ring), "drops": q.drops,
            })

    # -- PMD (user-space driver) --------------------------------------------

    def poll_op(self, queue: BypassQueue) -> ops.Call:
        """A thread op that busy-polls ``queue`` until a frame arrives.

        Usage in a worker body::

            frame = yield nic.poll_op(queue)
        """

        def pmd_poll(core, thread):
            params = self.params
            # Charge spin time in bounded quanta so energy accounting is
            # correct even while the worker is mid-spin when a run ends.
            while not queue.ring:
                segment_start = self.sim.now
                quantum = self.sim.timeout(self.poll_quantum_ns)
                yield AnyOf(self.sim, [queue.gate.wait(), quantum])
                # If the gate won the race, drop the guard timer from
                # the heap instead of letting it fire into the void.
                quantum.cancel()
                waited = self.sim.now - segment_start
                if waited > 0:
                    # The worker was spinning the whole time: busy, not idle.
                    core.counters.busy_ns += waited
                    per_iter_ns = core.instructions_ns(params.pmd_poll_instructions)
                    core.counters.instructions += int(
                        waited / per_iter_ns * params.pmd_poll_instructions
                    )
            frame = queue.ring.pop(0)
            if self.obs is not None and frame.peek_meta("obs") is not None:
                # Host receipt: the "app" span runs from here until the
                # response reaches transmit().
                frame.meta["_obs_rx_ns"] = self.sim.now
            # Final poll iteration that found the descriptor + RX work.
            yield from core.execute(
                params.pmd_poll_instructions + params.pmd_rx_instructions
            )
            return frame

        return ops.Call(pmd_poll)

    def poll_many_op(self, queues) -> ops.Call:
        """Busy-poll several rings round-robin until any has a frame.

        The multiplexing a bypass worker must do when services outnumber
        cores: every poll sweep pays the per-queue check for *all*
        queues, which is exactly the overhead the paper attributes to
        static queue/core assignment under dynamic workloads.
        """
        queue_list = list(queues)
        if not queue_list:
            raise ValueError("need at least one queue")

        def pmd_poll(core, thread):
            params = self.params
            sweep_cost = params.pmd_poll_instructions * len(queue_list)
            while True:
                ready = next((q for q in queue_list if q.ring), None)
                if ready is not None:
                    break
                segment_start = self.sim.now
                waits = [q.gate.wait() for q in queue_list]
                quantum = self.sim.timeout(self.poll_quantum_ns)
                yield AnyOf(self.sim, waits + [quantum])
                quantum.cancel()  # no-op if the quantum itself fired
                waited = self.sim.now - segment_start
                if waited > 0:
                    core.counters.busy_ns += waited
                    per_sweep_ns = core.instructions_ns(sweep_cost)
                    core.counters.instructions += int(
                        waited / per_sweep_ns * sweep_cost
                    )
            frame = ready.ring.pop(0)
            if self.obs is not None and frame.peek_meta("obs") is not None:
                frame.meta["_obs_rx_ns"] = self.sim.now
            yield from core.execute(sweep_cost + params.pmd_rx_instructions)
            return frame

        return ops.Call(pmd_poll)

    # -- transmit path ----------------------------------------------------------

    def transmit(self, frame: Frame, core):
        """PMD TX: descriptor write + doorbell, no syscall; generator."""
        obs = self.obs
        if obs is not None:
            # Close the host-software window opened at ring pop: parse,
            # unmarshal, handler, marshal (and for Snap, both channel
            # hops) all land in one "app" span.
            ctx = frame.peek_meta("obs")
            rx_ns = frame.pop_meta("_obs_rx_ns")
            if ctx is not None and rx_ns is not None:
                obs.record("app", "app", ctx, rx_ns, self.sim.now)
        yield from core.execute(self.params.pmd_tx_instructions)
        yield from self.link.mmio_write(core)
        delay = self.link.posted_delay_ns()

        def device_side():
            yield self.sim.timeout(delay)
            yield from self.link.dma_read(self.params.descriptor_bytes)
            yield from self.link.dma_read(len(frame.data))
            self.queue_tx(frame)

        self.sim.start(device_side())
        return None
