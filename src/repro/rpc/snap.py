"""A Snap-style host networking stack (Marty et al., SOSP'19).

Section 2: "Snap, meanwhile, dedicates a subset of the CPU cores to
provide applications a uniform, yet highly configurable, abstraction of
a NIC" — the fourth point in the design space the paper surveys:

* dedicated *engine* cores busy-poll the NIC rings in a microkernel-ish
  user process, doing parse + RPC decode + demultiplex;
* decoded requests travel to per-service *application* workers over
  shared-memory channels (no syscalls on the data path);
* application workers block on their channel (they are schedulable,
  unlike bypass's pinned spinners), run the handler, and push responses
  back to the engine for transmission.

Relative to pure bypass this buys flexibility (apps don't own NIC
queues, workers can share cores) at the price of a cross-core hop in
each direction — which is exactly how it behaves in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.headers import HeaderError
from ..net.packet import parse_udp_frame
from ..os import ops
from ..sim.engine import AnyOf, Event, Simulator
from ..sim.resources import Gate
from .marshal import (
    MarshalError,
    count_fields,
    marshal_args,
    software_marshal_instructions,
    software_unmarshal_instructions,
    unmarshal_args,
)
from .message import RpcError, RpcMessage, RpcType
from .server import RPC_HEADER_DECODE_INSTRUCTIONS, USER_PARSE_INSTRUCTIONS, UserNetContext
from .service import ServiceError, ServiceRegistry

__all__ = ["SnapChannel", "SnapEngine", "snap_engine_body", "snap_worker_body"]

#: shared-memory enqueue/dequeue cost (cache-line ping-pong, no syscall)
CHANNEL_OP_INSTRUCTIONS = 120
#: engine-side per-response transmit bookkeeping
ENGINE_TX_INSTRUCTIONS = 150


@dataclass(slots=True)
class _Work:
    """One decoded request travelling engine -> worker."""

    message: RpcMessage
    reply_ip: int
    reply_port: int
    src_port: int
    #: frame metadata carried through to the response (request id,
    #: trace context, observability stamps)
    meta: dict = field(default_factory=dict)


@dataclass
class SnapChannel:
    """A shared-memory SPSC channel with blocking consumers."""

    sim: Simulator
    items: list = field(default_factory=list)
    waiters: list = field(default_factory=list)
    enqueued: int = 0

    def push(self, item) -> None:
        self.enqueued += 1
        if self.waiters:
            self.waiters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def pop_event(self) -> Event:
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.pop(0))
        else:
            self.waiters.append(event)
        return event


class SnapEngine:
    """Shared state between the engine core(s) and the workers."""

    def __init__(self, sim: Simulator, registry: ServiceRegistry,
                 netctx: UserNetContext):
        self.sim = sim
        self.registry = registry
        self.netctx = netctx
        #: service_id -> request channel
        self.request_channels: dict[int, SnapChannel] = {}
        #: response frames travelling worker -> engine
        self.response_frames: list = []
        #: wakes the engine's unified poll when a response is queued
        self.wake_gate = Gate(sim, "snap-engine")
        self.decode_errors = 0
        self.no_service = 0

    def channel_for(self, service_id: int) -> SnapChannel:
        channel = self.request_channels.get(service_id)
        if channel is None:
            channel = SnapChannel(self.sim)
            self.request_channels[service_id] = channel
        return channel

    def push_response(self, frame) -> None:
        self.response_frames.append(frame)
        self.wake_gate.open()


def _engine_poll_op(nic, queue_list, engine: SnapEngine):
    """Unified busy-poll over NIC rings *and* the response channel.

    Returns ("rx", frame) or ("tx", frame); charges spin time like the
    PMD poll (a Snap engine core is always hot).
    """

    def poll(core, thread):
        params = nic.params
        sweep = params.pmd_poll_instructions * (len(queue_list) + 1)
        quantum_ns = 1_000_000.0
        while True:
            if engine.response_frames:
                yield from core.execute(CHANNEL_OP_INSTRUCTIONS)
                return "tx", engine.response_frames.pop(0)
            ready = next((q for q in queue_list if q.ring), None)
            if ready is not None:
                frame = ready.ring.pop(0)
                yield from core.execute(sweep + params.pmd_rx_instructions)
                return "rx", frame
            segment_start = nic.sim.now
            waits = [q.gate.wait() for q in queue_list]
            waits.append(engine.wake_gate.wait())
            quantum = nic.sim.timeout(quantum_ns)
            waits.append(quantum)
            yield AnyOf(nic.sim, waits)
            quantum.cancel()  # no-op if the quantum itself fired
            waited = nic.sim.now - segment_start
            if waited > 0:
                core.counters.busy_ns += waited
                per_sweep_ns = core.instructions_ns(sweep)
                core.counters.instructions += int(waited / per_sweep_ns * sweep)

    return ops.Call(poll)


def snap_engine_body(nic, queues, engine: SnapEngine):
    """Thread body for a dedicated engine core: poll NIC rings and the
    response channel, decode, demultiplex, transmit."""
    queue_list = list(queues)
    while True:
        kind, frame = yield _engine_poll_op(nic, queue_list, engine)
        if kind == "tx":
            yield ops.Exec(ENGINE_TX_INSTRUCTIONS)

            def _tx(core, thread, frame=frame):
                yield from nic.transmit(frame, core)
                return None

            yield ops.Call(_tx)
            continue
        if nic.obs is not None and frame.peek_meta("obs") is not None:
            # Host receipt: the "app" span runs from the engine's ring
            # pop until the response re-enters nic.transmit — both
            # channel hops and the worker land inside it.
            frame.meta["_obs_rx_ns"] = nic.sim.now
        yield ops.Exec(USER_PARSE_INSTRUCTIONS + RPC_HEADER_DECODE_INSTRUCTIONS)
        try:
            parsed = parse_udp_frame(frame)
            message = RpcMessage.unpack(parsed.payload)
        except (HeaderError, RpcError):
            engine.decode_errors += 1
            continue
        if message.header.rpc_type is not RpcType.REQUEST:
            continue
        try:
            service = engine.registry.by_port(parsed.udp.dst_port)
        except ServiceError:
            engine.no_service += 1
            continue
        yield ops.Exec(CHANNEL_OP_INSTRUCTIONS)
        engine.channel_for(service.service_id).push(
            _Work(
                message=message,
                reply_ip=parsed.ip.src,
                reply_port=parsed.udp.src_port,
                src_port=parsed.udp.dst_port,
                meta=frame.copy_meta(),
            )
        )


def snap_worker_body(engine: SnapEngine, service, max_requests=None):
    """Thread body for one service's application worker: block on the
    channel, run the handler, hand the response to the engine."""
    channel = engine.channel_for(service.service_id)
    served = 0
    while max_requests is None or served < max_requests:
        work = yield ops.Block(channel.pop_event())
        yield ops.Exec(CHANNEL_OP_INSTRUCTIONS)
        message = work.message
        try:
            args = unmarshal_args(message.payload) if message.payload else []
            method = service.method(message.header.method_id)
            yield ops.Exec(software_unmarshal_instructions(
                count_fields(args), len(message.payload)))
            yield ops.Exec(method.cost_for(args))
            results = method.handler(args)
            payload = marshal_args(list(results))
            yield ops.Exec(software_marshal_instructions(
                count_fields(results), len(payload)))
        except (MarshalError, ServiceError) as exc:
            payload = marshal_args(["__rpc_error__", type(exc).__name__])
        response = RpcMessage.response(
            message.header.service_id,
            message.header.method_id,
            message.header.request_id,
            payload,
        )
        frame = engine.netctx.build_frame(
            src_port=work.src_port,
            dst_ip=work.reply_ip,
            dst_port=work.reply_port,
            payload=response.pack(),
            meta=dict(work.meta),
        )
        yield ops.Exec(CHANNEL_OP_INSTRUCTIONS)
        engine.push_response(frame)
        served += 1
    return served
