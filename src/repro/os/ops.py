"""Thread operations: the instruction set of the OS model.

A simulated thread body is a Python generator that ``yield``s these op
objects; the kernel's per-core interpreter executes them, charging the
right core for the right amount of time and honouring preemption at op
boundaries.  This mirrors how the real systems differ:

* a Linux worker blocks in ``recvmsg`` (:class:`RecvFromSocket`);
* a kernel-bypass worker busy-polls a queue (:class:`Exec` in a loop);
* a Lauberhorn worker issues a *blocked load* on a CONTROL cache line
  (:class:`LoadLine`) — the op that keeps the **core** occupied but
  consumes no instructions, which is the crux of the paper.

Interrupts are delivered at op boundaries, except that a core stalled
inside :class:`LoadLine` cannot take one until the load completes —
exactly the behaviour Section 5.1 works around with Tryagain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sim.engine import Event

__all__ = [
    "ThreadOp",
    "Exec",
    "ExecNs",
    "Syscall",
    "Block",
    "YieldCpu",
    "LoadLine",
    "LoadLines",
    "StoreLine",
    "EvictLine",
    "MmioRead",
    "MmioWrite",
    "RecvFromSocket",
    "SendDatagram",
    "Sleep",
    "Call",
]


class ThreadOp:
    """Base class for everything a thread body may yield."""

    __slots__ = ()


@dataclass(slots=True)
class Exec(ThreadOp):
    """Retire ``instructions`` of straight-line code."""

    instructions: float


@dataclass(slots=True)
class ExecNs(ThreadOp):
    """Occupy the core (busy) for a fixed duration."""

    ns: float


@dataclass(slots=True)
class Syscall(ThreadOp):
    """Enter/leave the kernel (charges the syscall path length).

    ``action`` optionally names the syscall for tracing.
    """

    action: str = ""


@dataclass(slots=True)
class Block(ThreadOp):
    """Block the thread until ``event`` fires; resumes with its value.

    The core is released to run other threads (this is a *thread* block,
    unlike :class:`LoadLine` which is a *core* stall).
    """

    event: Event


@dataclass(slots=True)
class YieldCpu(ThreadOp):
    """Voluntarily yield the CPU (``sched_yield``/``schedule()``)."""


@dataclass(slots=True)
class Sleep(ThreadOp):
    """Block the thread for a fixed duration."""

    ns: float


@dataclass(slots=True)
class LoadLine(ThreadOp):
    """Coherent load of a device-homed cache line.

    The core stalls until the home answers (possibly for a long time —
    the Lauberhorn blocked load); the value sent back into the body is
    the line's bytes.
    """

    addr: int


@dataclass(slots=True)
class StoreLine(ThreadOp):
    """Coherent store to a device-homed cache line."""

    addr: int
    data: bytes


@dataclass(slots=True)
class LoadLines(ThreadOp):
    """Coherent loads of several device-homed lines, overlapped.

    Models a core streaming prefetchable lines (AUX payload lines) with
    memory-level parallelism: fills are issued in groups of the core's
    MLP depth rather than one blocking round trip each.  Resumes with
    the list of line contents in address order.
    """

    addrs: tuple[int, ...]


@dataclass(slots=True)
class EvictLine(ThreadOp):
    """Drop a device-homed line from this core's cache (DC CIVAC-style
    cache maintenance), so the next load misses and re-arms the NIC."""

    addr: int


@dataclass(slots=True)
class MmioRead(ThreadOp):
    """Uncached read of a device register (full link round trip)."""

    register: str = ""


@dataclass(slots=True)
class MmioWrite(ThreadOp):
    """Posted write to a device register (doorbell)."""

    register: str = ""
    #: called (in zero sim time) when the write becomes visible at the
    #: device, ``posted_delay_ns`` after the op retires.
    on_device: Optional[Callable[[], None]] = None


@dataclass(slots=True)
class Call(ThreadOp):
    """Run a device-library generator ``fn(core, thread)`` inline.

    The escape hatch for user-level I/O libraries (e.g. the bypass
    PMD's poll loop) that need to charge the core directly while the
    thread stays RUNNING.  The generator's return value is sent back
    into the thread body.  The thread cannot be preempted inside a
    Call — matching the reality that a busy-polling bypass worker never
    enters the kernel.
    """

    fn: Callable[[Any, Any], Any]


@dataclass(slots=True)
class RecvFromSocket(ThreadOp):
    """``recvmsg`` on a UDP socket: syscall + block if empty + wakeup."""

    socket: Any


@dataclass(slots=True)
class SendDatagram(ThreadOp):
    """``sendmsg`` on a UDP socket: syscall + netstack TX + NIC submit."""

    socket: Any
    dst_ip: int
    dst_port: int
    payload: bytes
    meta: dict = field(default_factory=dict)
