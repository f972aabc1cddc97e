"""High-level facade: build and drive a simulated RPC cluster.

For users who want the paper's systems without assembling machines,
kernels, NICs, and worker loops by hand::

    from repro.api import SimulatedCluster

    cluster = SimulatedCluster(stack="lauberhorn")

    @cluster.service("kv", port=9000)
    def get(args, cost=800):
        return [f"value-of-{args[0]}"]

    cluster.start()
    result = cluster.call("kv", "get", ["key1"])
    print(result.results, result.rtt_ns)

One ``SimulatedCluster`` is one server machine (with the chosen stack),
a switch, and a client node.  Services are registered with the
:meth:`service` decorator; :meth:`start` spawns the per-stack workers
(user loops + NIC-driven dispatchers for Lauberhorn, socket workers for
Linux, pinned PMD workers for bypass).  :meth:`call` runs the simulator
until the response arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .experiments.testbed import (
    Testbed,
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
)
from .nic.lauberhorn import EndpointKind
from .os.nicsched import NicScheduler, lauberhorn_user_loop
from .rpc.server import bypass_worker, linux_udp_worker
from .rpc.service import MethodDef, ServiceDef
from .sim.clock import MS
from .workloads.client import RpcResult

__all__ = ["SimulatedCluster", "ClusterError"]

STACKS = ("lauberhorn", "linux", "bypass")


class ClusterError(RuntimeError):
    """Misuse of the cluster facade."""


@dataclass
class _ServiceSpec:
    service: ServiceDef
    methods: dict[str, MethodDef]
    dedicated_core: Optional[int]


class SimulatedCluster:
    """A one-server simulated deployment with a pluggable stack."""

    def __init__(
        self,
        stack: str = "lauberhorn",
        seed: int = 0,
        n_dispatchers: int = 2,
        **testbed_kwargs,
    ):
        if stack not in STACKS:
            raise ClusterError(f"unknown stack {stack!r}; pick from {STACKS}")
        self.stack = stack
        self.n_dispatchers = n_dispatchers
        builders = {
            "lauberhorn": build_lauberhorn_testbed,
            "linux": build_linux_testbed,
            "bypass": build_bypass_testbed,
        }
        if stack == "bypass":
            testbed_kwargs.setdefault("n_queues", 8)
        self.testbed: Testbed = builders[stack](seed=seed, **testbed_kwargs)
        self._services: dict[str, _ServiceSpec] = {}
        self._next_port = 9000
        self._next_core = 0
        self._started = False

    # -- registration ---------------------------------------------------------

    def service(
        self,
        name: str,
        port: Optional[int] = None,
        cost: int = 1000,
        encrypted: bool = False,
        dedicated_core: Optional[int] = None,
    ) -> Callable:
        """Decorator registering ``fn(args) -> results`` as a method.

        Multiple methods may be attached to one service name; the first
        registration creates the service.  ``cost`` is the handler's
        simulated CPU cost in instructions.
        """
        if self._started:
            raise ClusterError("register services before start()")

        def decorator(fn: Callable[[Sequence], Sequence]) -> Callable:
            spec = self._services.get(name)
            if spec is None:
                udp_port = port if port is not None else self._next_port
                self._next_port = max(self._next_port, udp_port) + 1
                service = self.testbed.registry.create_service(
                    name, udp_port=udp_port, encrypted=encrypted
                )
                spec = _ServiceSpec(service=service, methods={},
                                    dedicated_core=dedicated_core)
                self._services[name] = spec
            method = self.testbed.registry.add_method(
                spec.service, fn.__name__, fn, cost_instructions=cost
            )
            spec.methods[fn.__name__] = method
            return fn

        return decorator

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the stack's per-service machinery (idempotent)."""
        if self._started:
            return
        if not self._services:
            raise ClusterError("no services registered")
        self._started = True
        starter = getattr(self, f"_start_{self.stack}")
        starter()

    def _claim_core(self, spec: _ServiceSpec) -> int:
        if spec.dedicated_core is not None:
            return spec.dedicated_core
        core = self._next_core
        self._next_core = (self._next_core + 1) % self.testbed.machine.n_cores
        return core

    # The starters stay hand-rolled: a cluster service may carry several
    # methods, and deploy_service registers exactly one.

    def _start_lauberhorn(self) -> None:
        bed = self.testbed
        for spec in self._services.values():
            process = bed.kernel.spawn_process(spec.service.name)
            process.service = spec.service
            bed.nic.register_service(spec.service, process.pid)
            endpoint = bed.nic.create_endpoint(
                EndpointKind.USER, service=spec.service
            )
            if spec.dedicated_core is not None:
                bed.kernel.spawn_thread(
                    process,
                    lauberhorn_user_loop(bed.nic, endpoint, bed.registry),
                    name=f"{spec.service.name}-loop",
                    pinned_core=spec.dedicated_core,
                )
        # Dispatchers pick up every service without a dedicated loop.
        self.scheduler = NicScheduler(
            bed.kernel, bed.nic, bed.registry,
            n_dispatchers=self.n_dispatchers, promote=True,
        )

    def _start_linux(self) -> None:
        bed = self.testbed
        for spec in self._services.values():
            socket = bed.netstack.bind(spec.service.udp_port)
            process = bed.kernel.spawn_process(spec.service.name)
            process.service = spec.service
            bed.kernel.spawn_thread(
                process,
                linux_udp_worker(socket, bed.registry),
                name=f"{spec.service.name}-worker",
                pinned_core=spec.dedicated_core,
            )

    def _start_bypass(self) -> None:
        bed = self.testbed
        for index, spec in enumerate(self._services.values()):
            queue_index = index % len(bed.nic.queues)
            bed.nic.steer_port(spec.service.udp_port, queue_index)
            process = bed.kernel.spawn_process(spec.service.name)
            process.service = spec.service
            bed.kernel.spawn_thread(
                process,
                bypass_worker(bed.nic, bed.nic.queues[queue_index],
                              bed.user_netctx, bed.registry),
                name=f"{spec.service.name}-pmd",
                pinned_core=self._claim_core(spec),
            )

    # -- driving -----------------------------------------------------------------

    def call(
        self,
        service_name: str,
        method_name: str,
        args: Sequence,
        timeout_ms: float = 100.0,
    ) -> RpcResult:
        """Synchronous convenience: one RPC, advancing the simulation."""
        if not self._started:
            raise ClusterError("start() the cluster first")
        spec = self._services.get(service_name)
        if spec is None:
            raise ClusterError(f"unknown service {service_name!r}")
        method = spec.methods.get(method_name)
        if method is None:
            raise ClusterError(
                f"service {service_name!r} has no method {method_name!r}"
            )
        bed = self.testbed
        done = bed.clients[0].send_request(
            bed.server_mac, bed.server_ip, spec.service.udp_port,
            spec.service.service_id, method.method_id, args,
        )
        deadline = bed.sim.now + timeout_ms * MS
        while not done.processed and bed.sim.peek() <= deadline:
            bed.sim.step()
        if not done.processed:
            raise ClusterError(
                f"no response from {service_name}.{method_name} within "
                f"{timeout_ms} ms of simulated time"
            )
        return done._value

    def run(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms`` of virtual time."""
        self.testbed.machine.run(until=self.testbed.sim.now + duration_ms * MS)

    # -- introspection ---------------------------------------------------------------

    @property
    def stats(self):
        """The NIC's stats object (stack-specific shape)."""
        return getattr(self.testbed.nic, "lstats", self.testbed.nic.stats)

    def busy_ns(self) -> float:
        return self.testbed.machine.total_busy_ns()
