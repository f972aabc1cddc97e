"""Client (load generator) nodes.

A :class:`ClientNode` models the *remote* end of an RPC: it has its own
switch port and MAC/IP, sends byte-exact request frames, and matches
response frames by request id.  It deliberately has no OS model — the
paper's measurements are about the *server's* end-system cost, so the
client is an infinitely fast traffic source/sink and the wire fabric
provides the (constant) propagation component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..net.headers import HeaderError, MacAddress
from ..net.link import Port, SwitchFabric
from ..net.packet import build_udp_frame, parse_udp_frame
from ..rpc.marshal import MarshalError, marshal_args, unmarshal_args
from ..rpc.message import RpcError, RpcMessage, RpcType
from ..sim.engine import Event, Simulator

__all__ = ["RpcResult", "ClientNode"]


@dataclass(slots=True)
class RpcResult:
    """Outcome of one RPC seen from the client."""

    request_id: int
    args: Sequence[Any]
    results: Sequence[Any]
    sent_ns: float
    received_ns: float

    @property
    def rtt_ns(self) -> float:
        return self.received_ns - self.sent_ns


class ClientNode:
    """A remote RPC client with its own network identity."""

    def __init__(
        self,
        sim: Simulator,
        switch: SwitchFabric,
        mac: MacAddress,
        ip: int,
        name: str = "client",
        src_port_base: int = 40000,
    ):
        self.sim = sim
        self.mac = mac
        self.ip = ip
        self.name = name
        self.port: Port = switch.attach(mac, name)
        self.src_port_base = src_port_base
        self._next_request_id = 1
        self._pending: dict[int, tuple[float, Sequence[Any], Event]] = {}
        self.unmatched_responses = 0
        self.parse_errors = 0
        #: when set (fault runs with a lossy wire), a watchdog
        #: retransmits each request until its response arrives, so
        #: closed-loop drivers survive frame loss.  None (the default)
        #: spawns no watchdog at all — the loss-free timeline is
        #: byte-identical to a client without this feature.
        self.retry_timeout_ns: Optional[float] = None
        self.max_retries = 16
        self.retries = 0
        self.give_ups = 0
        #: span recorder (repro.obs); None keeps the request path free
        #: of any observability work beyond this attribute test
        self.obs = None
        self._obs_roots: dict[int, Any] = {}
        self.port.egress.deliver_to(self._on_frame)

    # -- sending ----------------------------------------------------------------

    def send_request(
        self,
        dst_mac: MacAddress,
        dst_ip: int,
        dst_port: int,
        service_id: int,
        method_id: int,
        args: Sequence[Any],
        src_port: Optional[int] = None,
    ) -> Event:
        """Fire one request; the returned event yields an RpcResult.

        ``src_port`` pins the UDP source port (one value per *flow*) so
        fleet load balancers see stable flow 4-tuples; the default
        rotates through 1024 ports as before.
        """
        request_id = self._next_request_id
        self._next_request_id += 1
        payload = marshal_args(list(args))
        message = RpcMessage.request(service_id, method_id, request_id, payload)
        frame = build_udp_frame(
            src_mac=self.mac,
            dst_mac=dst_mac,
            src_ip=self.ip,
            dst_ip=dst_ip,
            src_port=(self.src_port_base + (request_id % 1024)
                      if src_port is None else src_port),
            dst_port=dst_port,
            payload=message.pack(),
            born_ns=self.sim.now,
            meta={"request_id": request_id},
        )
        obs = self.obs
        if obs is not None:
            # Root span of this request's trace; the context rides in
            # frame.meta and every layer hangs children under it.
            root = obs.start_trace("rpc", "client", request_id=request_id,
                                   client=self.name)
            frame.meta["obs"] = root.ctx
            self._obs_roots[request_id] = root
        done = Event(self.sim)
        self._pending[request_id] = (self.sim.now, list(args), done)
        self.port.send(frame)
        if self.retry_timeout_ns is not None:
            # A process: long-lived, it retransmits until the response
            # lands or its retries run out.
            self.sim.process(
                self._retry_watchdog(request_id, frame),
                name=f"{self.name}-retry-{request_id}",
            )
        return done

    def _retry_watchdog(self, request_id: int, frame):
        """Retransmit ``frame`` until its response arrives (fault runs).

        The server side is idempotent from the client's point of view:
        a duplicate response is dropped by the pending-table pop, so
        retransmitting on a timeout is always safe.
        """
        for _attempt in range(self.max_retries):
            yield self.sim.timeout(self.retry_timeout_ns)
            if request_id not in self._pending:
                return None
            self.retries += 1
            yield self.port.send(frame)
        if request_id in self._pending:
            self.give_ups += 1
        return None

    def call(
        self,
        dst_mac: MacAddress,
        dst_ip: int,
        dst_port: int,
        service_id: int,
        method_id: int,
        args: Sequence[Any],
        src_port: Optional[int] = None,
    ):
        """Generator: send one request and wait for its response."""
        done = self.send_request(
            dst_mac, dst_ip, dst_port, service_id, method_id, args,
            src_port=src_port,
        )
        result = yield done
        return result

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    # -- receiving ------------------------------------------------------------------

    def _on_frame(self, frame) -> None:
        """Match one landed response frame to its pending request."""
        try:
            parsed = parse_udp_frame(frame)
            message = RpcMessage.unpack(parsed.payload)
        except (HeaderError, RpcError):
            self.parse_errors += 1
            return
        if message.header.rpc_type is not RpcType.RESPONSE:
            self.unmatched_responses += 1
            return
        pending = self._pending.pop(message.header.request_id, None)
        if pending is None:
            self.unmatched_responses += 1
            return
        sent_ns, args, done = pending
        if self.obs is not None:
            root = self._obs_roots.pop(message.header.request_id, None)
            if root is not None:
                ctx = frame.peek_meta("obs")
                wire_ns = frame.pop_meta("_obs_wire_ns", frame.born_ns)
                if ctx is not None:
                    self.obs.record("wire.resp", "net", ctx,
                                    wire_ns, self.sim.now)
                self.obs.finish(root)
        try:
            results = unmarshal_args(message.payload) if message.payload else []
        except MarshalError:
            results = []
        done.succeed(
            RpcResult(
                request_id=message.header.request_id,
                args=args,
                results=results,
                sent_ns=sent_ns,
                received_ns=self.sim.now,
            )
        )
