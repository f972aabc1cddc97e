"""The OS kernel model: per-core dispatch loops interpreting threads.

Each core runs a *core loop* simulation process that:

1. services pending interrupts (charging interrupt entry + handler);
2. picks the next thread from the scheduler;
3. charges the context-switch cost when crossing address spaces;
4. interprets the thread body's :mod:`repro.os.ops` operations until the
   thread blocks, yields, exits, or is preempted at the end of its
   timeslice.

Interrupts are taken at op boundaries — except while the core is
stalled in a coherent :class:`~repro.os.ops.LoadLine` (a blocked load
occupies the core at the hardware level; Section 5.1's reason for the
Tryagain/IPI dance, which :mod:`repro.os.nicsched` implements).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..hw.core import Core
from ..hw.machine import Machine
from ..sim.clock import MS
from ..sim.engine import Event
from ..sim.resources import Gate
from . import ops
from .process import OsProcess, OsThread, ThreadState
from .scheduler import Scheduler

__all__ = ["Irq", "Kernel", "KernelError"]


class KernelError(RuntimeError):
    """Inconsistent kernel state (a bug in a model built on the kernel)."""


@dataclass(slots=True)
class Irq:
    """A pending interrupt: a name, an optional handler, extra cost.

    ``handler`` is a generator function ``handler(kernel, core)`` run in
    interrupt context on the interrupted core (e.g. NAPI poll).
    """

    name: str
    handler: Optional[Callable[["Kernel", Core], Generator]] = None
    instructions: int = 0


@dataclass
class KernelStats:
    context_switches: int = 0
    thread_switches: int = 0
    irqs: int = 0
    ipis: int = 0
    preemptions: int = 0
    syscalls: int = 0


class Kernel:
    """The operating system of one simulated machine."""

    def __init__(
        self,
        machine: Machine,
        timeslice_ns: float = 1.0 * MS,
        steal: bool = True,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.costs = machine.params.os_costs
        self.timeslice_ns = timeslice_ns
        self.scheduler = Scheduler(machine.n_cores, steal=steal)
        self.stats = KernelStats()
        self.tracer = machine.tracer

        self.kernel_process = OsProcess(pid=0, name="kernel", is_kernel=True)
        self.processes: list[OsProcess] = [self.kernel_process]
        self._next_pid = 1
        self._next_tid = 1

        self._current: list[Optional[OsThread]] = [None] * machine.n_cores
        self._last_process: list[Optional[OsProcess]] = [None] * machine.n_cores
        self._pending_irqs: list[list[Irq]] = [[] for _ in range(machine.n_cores)]
        self._need_resched: list[bool] = [False] * machine.n_cores
        self._idle_gates = [Gate(self.sim, f"core{i}.idle") for i in range(machine.n_cores)]
        #: set by NetStack when attached
        self.netstack = None
        #: NIC devices attached to this kernel
        self.nics: list[Any] = []
        #: optional flight recorder (repro.obs.flight); None keeps the
        #: dispatch loop free of any observability work beyond one
        #: attribute test
        self.flight = None
        self._started = False

    def bind_metrics(self, registry, prefix: str = "kernel") -> None:
        """Register scheduler/syscall counters on a metrics registry
        (live probe of :class:`KernelStats`, read at snapshot time)."""
        registry.bind(prefix, self.stats)
        registry.probe(prefix, lambda: {
            "processes": len(self.processes),
            "runnable": self.scheduler.total_queued(),
            "idle_cores": len(self.scheduler.idle_cores),
        })
        for core_id in range(self.machine.n_cores):
            registry.probe(f"{prefix}.runq{core_id}", lambda c=core_id: {
                "depth": self.scheduler.queue_length(c),
            })

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the per-core dispatch loops (idempotent)."""
        if self._started:
            return
        self._started = True
        for core in self.machine.cores:
            self.sim.process(self._core_loop(core), name=f"core{core.id}-loop")

    def register_nic(self, nic: Any) -> None:
        self.nics.append(nic)

    # -- process/thread management --------------------------------------------

    def spawn_process(self, name: str) -> OsProcess:
        process = OsProcess(pid=self._next_pid, name=name)
        self._next_pid += 1
        self.processes.append(process)
        return process

    def spawn_thread(
        self,
        process: OsProcess,
        body: Generator,
        name: str = "",
        pinned_core: Optional[int] = None,
        priority: int = 0,
    ) -> OsThread:
        """Create a thread and make it runnable."""
        thread = OsThread(
            tid=self._next_tid,
            process=process,
            body=body,
            name=name,
            pinned_core=pinned_core,
            priority=priority,
        )
        self._next_tid += 1
        thread.exit_event = Event(self.sim)
        thread.pending_charge_instructions = 0
        process.threads.append(thread)
        self._make_runnable(thread)
        return thread

    def spawn_kernel_thread(
        self,
        body: Generator,
        name: str = "",
        pinned_core: Optional[int] = None,
        priority: int = 0,
    ) -> OsThread:
        return self.spawn_thread(
            self.kernel_process, body, name=name, pinned_core=pinned_core,
            priority=priority,
        )

    def current_thread(self, core_id: int) -> Optional[OsThread]:
        return self._current[core_id]

    # -- wakeups and interrupts -------------------------------------------------

    def wake(self, thread: OsThread, value: Any = None) -> None:
        """Transition a blocked thread to READY and place it."""
        if thread.state is not ThreadState.BLOCKED:
            raise KernelError(
                f"wake of {thread.name} in state {thread.state.value}"
            )
        thread.resume_value = value
        self._make_runnable(thread)

    def kill_thread(self, thread: OsThread) -> bool:
        """Forcibly terminate ``thread`` (fault injection / supervision).

        Returns True when the thread was torn down, False when it could
        not be killed *right now*: a RUNNING thread is mid-op on a core
        (killing it would corrupt the core's dispatch loop — callers
        retry later), and a READY thread caught in the dequeue-to-run
        window is treated the same way.  A killed thread's pending wake
        callbacks are neutered by the DONE state, its exit event fires
        (with None), and its body generator is closed so ``finally``
        blocks run.
        """
        if thread.state is ThreadState.DONE:
            return False
        if thread.state is ThreadState.RUNNING:
            return False
        if thread.state is ThreadState.READY:
            if not self.scheduler.remove(thread):
                return False  # being dispatched right now; retry later
        thread.state = ThreadState.DONE
        thread.exit_value = None
        if thread.exit_event is not None and not thread.exit_event.triggered:
            thread.exit_event.succeed(None)
        thread.body.close()
        return True

    def _make_runnable(self, thread: OsThread) -> None:
        core_id = self.scheduler.enqueue(thread)
        self._kick_core(core_id)

    def _kick_core(self, core_id: int) -> None:
        if core_id in self.scheduler.idle_cores:
            self._idle_gates[core_id].open()

    def deliver_irq(self, core_id: int, irq: Irq) -> None:
        """Queue an interrupt for ``core_id`` and kick it if idle.

        A core stalled in a blocked load will only notice once the load
        completes (hardware semantics).
        """
        self.stats.irqs += 1
        self._pending_irqs[core_id].append(irq)
        self._kick_core(core_id)

    def send_ipi(
        self,
        to_core: int,
        name: str = "ipi",
        handler: Optional[Callable[["Kernel", Core], Generator]] = None,
        resched: bool = True,
    ) -> None:
        """Deliver an inter-processor interrupt after the IPI latency."""
        self.stats.ipis += 1

        def arrive(_event) -> None:
            if resched:
                self._need_resched[to_core] = True
            self.deliver_irq(to_core, Irq(name=name, handler=handler))

        self.sim.timeout(self.costs.ipi_deliver_ns).add_callback(arrive)

    def preempt_core(self, core_id: int, name: str = "resched-ipi") -> None:
        """Ask ``core_id`` to reschedule as soon as it can take an IRQ."""
        self.send_ipi(core_id, name=name, resched=True)

    # -- core loop -----------------------------------------------------------------

    def _core_loop(self, core: Core):
        while True:
            if self._pending_irqs[core.id]:
                yield from self._service_irqs(core)
                continue
            thread = self.scheduler.pick_next(core.id)
            if thread is None:
                self.scheduler.idle_cores.add(core.id)
                core.context = "idle"
                yield self._idle_gates[core.id].wait()
                self.scheduler.idle_cores.discard(core.id)
                continue
            yield from self._dispatch(core, thread)

    def _service_irqs(self, core: Core):
        while self._pending_irqs[core.id]:
            irq = self._pending_irqs[core.id].pop(0)
            previous_context = core.context
            core.context = f"irq:{irq.name}"
            yield from core.execute(
                self.costs.interrupt_entry_instructions + irq.instructions
            )
            if irq.handler is not None:
                yield from irq.handler(self, core)
            core.context = previous_context
        return None

    def _charge_switch(self, core: Core, thread: OsThread):
        """Context-switch cost: full cost across address spaces."""
        if self._last_process[core.id] is not thread.process:
            self.stats.context_switches += 1
            yield from core.execute(self.costs.context_switch_instructions)
            # Tell any scheduling-state subscriber (the Lauberhorn NIC),
            # paying the push cost it declares (one posted line store).
            push_cost = 0
            for nic in self.nics:
                notify = getattr(nic, "on_context_switch", None)
                if notify is not None:
                    notify(core.id, thread.process)
                    push_cost += getattr(nic, "sched_push_instructions", 0)
            if push_cost:
                yield from core.execute(push_cost)
        else:
            yield from core.execute(self.costs.scheduler_pick_instructions)
        self._last_process[core.id] = thread.process
        self.stats.thread_switches += 1
        return None

    def _dispatch(self, core: Core, thread: OsThread):
        flight = self.flight
        if flight is not None:
            flight.note("sched.dispatch", core=core.id, thread=thread.name,
                        queued=self.scheduler.queue_length(core.id))
        yield from self._charge_switch(core, thread)
        thread.state = ThreadState.RUNNING
        thread.core_id = core.id
        thread.stats.scheduled_count += 1
        self._current[core.id] = thread
        core.context = thread.name
        slice_end = self.sim.now + self.timeslice_ns
        run_start = self.sim.now

        if thread.pending_charge_instructions:
            charge = thread.pending_charge_instructions
            thread.pending_charge_instructions = 0
            yield from core.execute(charge)

        try:
            while True:
                # Interrupt window between ops.
                if self._pending_irqs[core.id]:
                    yield from self._service_irqs(core)
                    core.context = thread.name
                if self._need_resched[core.id] or (
                    self.sim.now >= slice_end
                    and self.scheduler.queue_length(core.id) > 0
                ):
                    self._need_resched[core.id] = False
                    self.stats.preemptions += 1
                    thread.stats.preempted_count += 1
                    # Tick/IPI entry plus the resched path.
                    yield from core.execute(
                        self.costs.interrupt_entry_instructions
                        + self.costs.scheduler_pick_instructions
                    )
                    self._park(core, thread, run_start)
                    self.scheduler.enqueue(thread)
                    return None

                try:
                    op = thread.body.send(thread.resume_value)
                except StopIteration as stop:
                    self._park(core, thread, run_start)
                    thread.state = ThreadState.DONE
                    thread.exit_value = stop.value
                    thread.exit_event.succeed(stop.value)
                    return None
                thread.resume_value = None

                outcome = yield from self._execute_op(core, thread, op)
                if outcome == "blocked":
                    self._park(core, thread, run_start)
                    thread.stats.blocked_count += 1
                    return None
                if outcome == "yielded":
                    self._park(core, thread, run_start)
                    thread.stats.voluntary_yields += 1
                    self.scheduler.enqueue(thread)
                    return None
        except BaseException:
            self._park(core, thread, run_start)
            thread.state = ThreadState.DONE
            raise

    def _park(self, core: Core, thread: OsThread, run_start: float) -> None:
        thread.stats.cpu_ns += self.sim.now - run_start
        thread.core_id = None
        self._current[core.id] = None
        core.context = "kernel"

    # -- op execution -----------------------------------------------------------

    def _block_thread(self, thread: OsThread, event: Event) -> None:
        thread.state = ThreadState.BLOCKED

        def on_fire(ev: Event) -> None:
            if thread.state is ThreadState.BLOCKED:
                self.wake(thread, ev._value if ev._ok else None)

        event.add_callback(on_fire)

    def _execute_op(self, core: Core, thread: OsThread, op: ops.ThreadOp):
        """Interpret one op; returns 'ran', 'blocked', or 'yielded'."""
        if isinstance(op, ops.Exec):
            yield from core.execute(op.instructions)
            return "ran"
        if isinstance(op, ops.ExecNs):
            yield from core.busy_ns(op.ns)
            return "ran"
        if isinstance(op, ops.Syscall):
            self.stats.syscalls += 1
            yield from core.execute(self.costs.syscall_instructions)
            return "ran"
        if isinstance(op, ops.YieldCpu):
            yield from core.execute(self.costs.syscall_instructions)
            return "yielded"
        if isinstance(op, ops.Sleep):
            self._block_thread(thread, self.sim.timeout(op.ns))
            return "blocked"
        if isinstance(op, ops.Block):
            self._block_thread(thread, op.event)
            return "blocked"
        if isinstance(op, ops.LoadLine):
            data = yield from core.load_line(op.addr)
            thread.resume_value = data
            return "ran"
        if isinstance(op, ops.LoadLines):
            data = yield from core.load_lines(op.addrs)
            thread.resume_value = data
            return "ran"
        if isinstance(op, ops.StoreLine):
            yield from core.store_line(op.addr, op.data)
            return "ran"
        if isinstance(op, ops.EvictLine):
            yield from core.evict_line(op.addr)
            return "ran"
        if isinstance(op, ops.MmioRead):
            yield from self.machine.link.mmio_read(core)
            return "ran"
        if isinstance(op, ops.MmioWrite):
            yield from self.machine.link.mmio_write(core)
            if op.on_device is not None:
                landing = self.sim.timeout(self.machine.link.posted_delay_ns())
                landing.add_callback(lambda _event: op.on_device())
            return "ran"
        if isinstance(op, ops.Call):
            result = yield from op.fn(core, thread)
            thread.resume_value = result
            return "ran"
        if isinstance(op, ops.RecvFromSocket):
            if self.netstack is None:
                raise KernelError("no netstack attached")
            return (yield from self.netstack.sys_recv(core, thread, op.socket))
        if isinstance(op, ops.SendDatagram):
            if self.netstack is None:
                raise KernelError("no netstack attached")
            yield from self.netstack.sys_send(core, thread, op)
            return "ran"
        raise KernelError(f"unknown thread op {op!r}")
