"""In-kernel UDP stack: sockets, softirq RX, syscall TX.

This is the Linux-baseline data path of Figure 1/Figure 5-left: the NIC
interrupts a core, the softirq parses the frame and enqueues it on a
socket, a blocked worker thread is woken through the scheduler, resumes
inside ``recvmsg``, copies the datagram out, and only then does
application code see the RPC.  Every one of those steps charges
instructions from :class:`~repro.hw.params.OsCostParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..hw.core import Core
from ..net.headers import HeaderError, MacAddress
from ..net.packet import Frame, build_udp_frame, parse_udp_frame
from ..obs.spans import public_meta
from ..sim.engine import Event
from .kernel import Kernel, KernelError
from .ops import SendDatagram
from .process import OsThread

__all__ = ["Datagram", "UdpSocket", "NetStack"]


@dataclass(slots=True)
class Datagram:
    """What ``recvmsg`` returns to a thread body."""

    payload: bytes
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    born_ns: float = 0.0
    meta: dict = field(default_factory=dict)


@dataclass
class SocketStats:
    enqueued: int = 0
    dropped: int = 0
    delivered: int = 0
    sent: int = 0


class UdpSocket:
    """A bound UDP socket with a bounded receive queue."""

    def __init__(self, netstack: "NetStack", port: int, capacity: int = 1024):
        self.netstack = netstack
        self.port = port
        self.capacity = capacity
        self.rx_queue: list[Datagram] = []
        #: events of threads blocked in recvmsg, FIFO
        self.waiters: list[Event] = []
        self.stats = SocketStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UdpSocket :{self.port} q={len(self.rx_queue)}>"


class NetStack:
    """The kernel network stack of one machine."""

    def __init__(
        self,
        kernel: Kernel,
        ip: int,
        mac: MacAddress,
    ):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.ip = ip
        self.mac = mac
        #: static neighbour table (we do not simulate ARP traffic)
        self.arp: dict[int, MacAddress] = {}
        self.sockets: dict[int, UdpSocket] = {}
        self.rx_parse_errors = 0
        self.rx_no_socket = 0
        #: span recorder (repro.obs); None keeps softirq/syscall paths
        #: free of any observability work beyond one attribute test
        self.obs = None
        kernel.netstack = self

    # -- socket API -------------------------------------------------------------

    def bind(self, port: int, capacity: int = 1024) -> UdpSocket:
        if port in self.sockets:
            raise ValueError(f"UDP port {port} already bound")
        socket = UdpSocket(self, port, capacity)
        self.sockets[port] = socket
        return socket

    def add_neighbor(self, ip: int, mac: MacAddress) -> None:
        self.arp[ip] = mac

    def bind_metrics(self, registry, prefix: str = "netstack") -> None:
        """Register stack counters and per-socket stats (live probes)."""
        registry.probe(prefix, lambda: {
            "rx_parse_errors": self.rx_parse_errors,
            "rx_no_socket": self.rx_no_socket,
            "sockets": len(self.sockets),
            # Aggregate socket-queue occupancy: the kernel stack's
            # dominant wait shows up here in the time-series windows.
            "rx_queued": sum(len(s.rx_queue) for s in self.sockets.values()),
        })
        for port, socket in self.sockets.items():
            registry.bind(f"{prefix}.udp{port}", socket.stats)
            registry.probe(f"{prefix}.udp{port}", lambda s=socket: {
                "queue_depth": len(s.rx_queue),
            })

    # -- syscall paths (run on a core, in thread context) --------------------------

    def sys_recv(self, core: Core, thread: OsThread, socket: UdpSocket):
        """``recvmsg``: generator returning 'ran' or 'blocked'."""
        self.kernel.stats.syscalls += 1
        yield from core.execute(self.costs.syscall_instructions)
        if socket.rx_queue:
            datagram = socket.rx_queue.pop(0)
            socket.stats.delivered += 1
            yield from core.execute(self.costs.socket_copy_instructions)
            obs = self.obs
            if obs is not None:
                ctx = datagram.meta.get("obs")
                enqueued_ns = datagram.meta.pop("_obs_enq_ns", None)
                if ctx is not None:
                    if enqueued_ns is not None:
                        obs.record("os.socket", "os", ctx, enqueued_ns,
                                   self.sim.now)
                    datagram.meta["_obs_rx_ns"] = self.sim.now
            thread.resume_value = datagram
            return "ran"
        event = Event(self.sim)
        socket.waiters.append(event)
        # The wake path re-enters the syscall: charge the copy-out when
        # the thread next runs.
        thread.pending_charge_instructions += self.costs.socket_copy_instructions
        self.kernel._block_thread(thread, event)
        return "blocked"

    def sys_send(self, core: Core, thread: OsThread, op: SendDatagram):
        """``sendmsg``: generator; charges TX path and submits to the NIC."""
        obs = self.obs
        ctx = op.meta.get("obs") if obs is not None else None
        if ctx is not None:
            # Close the application window opened at recvmsg hand-off:
            # wakeup, syscall return, unmarshal, handler, marshal.
            handed_ns = op.meta.get("_obs_rx_ns")
            if handed_ns is not None:
                obs.record("app", "app", ctx, handed_ns, self.sim.now)
        tx_start_ns = self.sim.now
        self.kernel.stats.syscalls += 1
        yield from core.execute(
            self.costs.syscall_instructions + self.costs.socket_tx_instructions
        )
        frame = self.build_frame(
            src_port=op.socket.port,
            dst_ip=op.dst_ip,
            dst_port=op.dst_port,
            payload=op.payload,
            meta=public_meta(op.meta),
        )
        op.socket.stats.sent += 1
        nic = self._nic()
        yield from nic.transmit(frame, core)
        if ctx is not None:
            obs.record("os.tx", "os", ctx, tx_start_ns, self.sim.now)
        return None

    def build_frame(
        self,
        src_port: int,
        dst_ip: int,
        dst_port: int,
        payload: bytes,
        meta: Optional[dict] = None,
    ) -> Frame:
        dst_mac = self.arp.get(dst_ip)
        if dst_mac is None:
            raise KernelError(f"no neighbour entry for IP {dst_ip:#010x}")
        return build_udp_frame(
            src_mac=self.mac,
            dst_mac=dst_mac,
            src_ip=self.ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            born_ns=self.sim.now,
            meta=dict(meta or {}),
        )

    def _nic(self):
        if not self.kernel.nics:
            raise KernelError("no NIC registered with the kernel")
        return self.kernel.nics[0]

    # -- softirq RX path (runs in IRQ context on the interrupted core) -----------

    def softirq_rx(self, core: Core, frame: Frame):
        """Protocol processing + socket delivery for one frame; generator.

        This is steps 5-9 of the paper's Section 2 list: general
        protocol processing, finding the process, and (via the
        scheduler) getting it onto a core.
        """
        obs = self.obs
        ctx = frame.peek_meta("obs") if obs is not None else None
        softirq_start_ns = self.sim.now
        yield from core.execute(self.costs.softirq_instructions)
        try:
            parsed = parse_udp_frame(frame)
        except HeaderError:
            self.rx_parse_errors += 1
            return None
        socket = self.sockets.get(parsed.udp.dst_port)
        if socket is None:
            self.rx_no_socket += 1
            return None
        yield from core.execute(self.costs.socket_rx_instructions)
        datagram = Datagram(
            payload=parsed.payload,
            src_ip=parsed.ip.src,
            src_port=parsed.udp.src_port,
            dst_ip=parsed.ip.dst,
            dst_port=parsed.udp.dst_port,
            born_ns=frame.born_ns,
            meta=frame.copy_meta(),
        )
        socket.stats.enqueued += 1
        if socket.waiters:
            waiter = socket.waiters.pop(0)
            yield from core.execute(self.costs.socket_wakeup_instructions)
            if ctx is not None:
                # Direct hand-off to a blocked recvmsg: no queue wait;
                # the "app" span starts here and absorbs the wakeup.
                datagram.meta["_obs_rx_ns"] = self.sim.now
            waiter.succeed(datagram)
        elif len(socket.rx_queue) < socket.capacity:
            if ctx is not None:
                datagram.meta["_obs_enq_ns"] = self.sim.now
            socket.rx_queue.append(datagram)
        else:
            socket.stats.dropped += 1
        if ctx is not None:
            obs.record("os.softirq", "os", ctx, softirq_start_ns, self.sim.now)
        return None
