"""The traditional PCIe DMA NIC of Figure 1.

Receive path (steps 1-4 of the paper's Section 2 list):

1. the device parses the frame (streaming header decode);
2. RSS hashes the 4-tuple to pick an RX queue;
3. the payload and a completion descriptor are DMA-written into host
   memory for that queue;
4. if interrupts are enabled for the queue (NAPI semantics), the device
   raises an MSI-X interrupt at the queue's core.

The kernel-side NAPI poll handler then runs the softirq protocol
processing (:meth:`~repro.os.netstack.NetStack.softirq_rx`) for each
completed descriptor and re-enables the interrupt when the queue runs
dry — so under load, interrupts are naturally moderated, as in Linux.

Transmit: the driver writes a descriptor (ordinary memory), rings a
doorbell (posted MMIO write); the device then DMA-reads the descriptor
and payload and puts the frame on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hw.machine import Machine
from ..net.headers import HeaderError
from ..net.link import Port
from ..net.packet import Frame, parse_udp_frame
from ..os.kernel import Irq, Kernel
from .base import BaseNic
from .rss import rss_queue_index

__all__ = ["DmaNic", "RxQueue"]

#: NAPI poll budget: descriptors processed per poll invocation.
NAPI_BUDGET = 64


@dataclass
class RxQueue:
    """One host-side RX descriptor ring and its NAPI state."""

    index: int
    core_id: int
    capacity: int
    completed: list[Frame] = field(default_factory=list)
    irq_enabled: bool = True
    drops: int = 0

    @property
    def depth(self) -> int:
        return len(self.completed)


class DmaNic(BaseNic):
    """A conventional descriptor-ring, interrupt-driven NIC."""

    def __init__(
        self,
        machine: Machine,
        port: Port,
        n_queues: int = 1,
        name: str = "dma-nic",
    ):
        super().__init__(machine, port, name)
        if n_queues < 1:
            raise ValueError("need at least one RX queue")
        self.kernel: Optional[Kernel] = None
        self.queues = [
            RxQueue(
                index=i,
                core_id=i % machine.n_cores,
                capacity=machine.params.nic.rx_ring_entries,
            )
            for i in range(n_queues)
        ]
        #: interrupt moderation (ethtool rx-usecs-style): when > 0 the
        #: device holds a would-be interrupt for this long before
        #: raising it, batching completions behind one IRQ.  Runtime-
        #: settable (repro.ctrl tuning knob); the 0 default takes the
        #: exact pre-existing code path, keeping untuned runs
        #: byte-identical.
        self.irq_coalesce_ns = 0.0

    def attach_kernel(self, kernel: Kernel) -> None:
        self.kernel = kernel
        kernel.register_nic(self)

    def set_queue_core(self, queue_index: int, core_id: int) -> None:
        """Steer a queue's interrupt to a core (irqbalance-style)."""
        self.queues[queue_index].core_id = core_id

    # -- receive path -----------------------------------------------------------

    def _rx_frame(self, frame: Frame, ctx, rx_start_ns: float):
        queue = self._classify(frame)
        if queue.depth >= queue.capacity:
            queue.drops += 1
            self.stats.rx_dropped += 1
            return
        # DMA payload then completion descriptor into host memory.
        yield from self.link.dma_write(len(frame.data))
        yield from self.link.dma_write(self.params.descriptor_bytes)
        queue.completed.append(frame)
        if ctx is not None:
            self.obs.record("nic.rx", "nic", ctx, rx_start_ns, self.sim.now,
                            queue=queue.index)
        if queue.irq_enabled and self.kernel is not None:
            queue.irq_enabled = False
            if self.irq_coalesce_ns > 0:
                # Moderation hold-off runs device-side (off the RX
                # pipeline): completions landing in the gap ride the
                # same interrupt — their descriptors are already in
                # ``queue.completed`` when the NAPI poll finally runs.
                # Guarded so the 0 default takes the exact pre-existing
                # inline path.
                self.sim.start(self._raise_coalesced(queue))
            else:
                yield from self.link.raise_interrupt(
                    self.params.interrupt_raise_ns)
                self.kernel.deliver_irq(
                    queue.core_id,
                    Irq(name=f"{self.name}-rxq{queue.index}",
                        handler=self._napi_poll(queue)),
                )

    def _classify(self, frame: Frame) -> RxQueue:
        try:
            parsed = parse_udp_frame(frame, verify=False)
        except HeaderError:
            return self.queues[0]
        index = rss_queue_index(
            parsed.ip.src,
            parsed.ip.dst,
            parsed.udp.src_port,
            parsed.udp.dst_port,
            len(self.queues),
        )
        return self.queues[index]

    def _raise_coalesced(self, queue: RxQueue):
        """Device-side hold-off, then the usual MSI-X raise."""
        yield self.sim.timeout(self.irq_coalesce_ns)
        yield from self.link.raise_interrupt(self.params.interrupt_raise_ns)
        self.kernel.deliver_irq(
            queue.core_id,
            Irq(name=f"{self.name}-rxq{queue.index}",
                handler=self._napi_poll(queue)),
        )

    def _napi_poll(self, queue: RxQueue):
        """Build the NAPI poll IRQ handler for ``queue``."""

        def handler(kernel: Kernel, core):
            processed = 0
            costs = self.machine.params.nic
            while queue.completed and processed < NAPI_BUDGET:
                frame = queue.completed.pop(0)
                yield from core.execute(costs.driver_rx_instructions)
                yield from kernel.netstack.softirq_rx(core, frame)
                processed += 1
            if queue.completed:
                # Budget exhausted: re-arm a software poll, as NAPI does.
                kernel.deliver_irq(
                    queue.core_id,
                    Irq(name=f"{self.name}-rxq{queue.index}-napi",
                        handler=self._napi_poll(queue)),
                )
            else:
                queue.irq_enabled = True
            return None

        return handler

    def bind_metrics(self, registry, prefix: str = "nic") -> None:
        super().bind_metrics(registry, prefix)
        for queue in self.queues:
            registry.probe(f"{prefix}.rxq{queue.index}", lambda q=queue: {
                "depth": q.depth, "drops": q.drops,
            })

    # -- transmit path ------------------------------------------------------------

    def transmit(self, frame: Frame, core):
        """Driver TX: descriptor write + doorbell; generator on ``core``."""
        costs = self.machine.params.nic
        yield from core.execute(costs.driver_tx_instructions)
        # Doorbell: posted MMIO write; the device reacts after the
        # posted-write delay by fetching descriptor + payload via DMA.
        yield from self.link.mmio_write(core)
        delay = self.link.posted_delay_ns()

        def device_side():
            yield self.sim.timeout(delay)
            yield from self.link.dma_read(self.params.descriptor_bytes)
            yield from self.link.dma_read(len(frame.data))
            self.queue_tx(frame)

        self.sim.start(device_side())
        return None
