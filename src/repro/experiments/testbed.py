"""Ready-made system assemblies for tests, examples, and benchmarks.

A *testbed* is one server machine (with one of the three NIC/stack
flavours), a switch, and one or more client nodes, wired up with
consistent MAC/IP identities.  Experiments ask for a testbed, register
services, spawn workers, and drive load.

The per-stack wiring lives in ``_assemble_*`` helpers shared with the
rack-scale builder (:mod:`repro.fleet`): a fleet host is the same
assembly pointed at a ToR port with its own MAC/IP, which is what
makes a 1-host fleet byte-identical to these legacy beds.
:func:`deploy_service` likewise centralises the echo-service
deployment recipes that used to live in ``four_stacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hw.machine import Machine
from ..hw.params import ENZIAN, ENZIAN_PCIE, MachineParams
from ..net.headers import MacAddress
from ..net.link import SwitchFabric
from ..net.packet import ip_address
from ..nic.bypass import BypassNic
from ..nic.dma import DmaNic
from ..os.kernel import Kernel
from ..os.netstack import NetStack
from ..rpc.server import UserNetContext
from ..rpc.service import ServiceRegistry
from ..workloads.client import ClientNode

__all__ = ["Testbed", "build_linux_testbed", "build_bypass_testbed",
           "build_lauberhorn_testbed", "deploy_service",
           "SERVER_MAC", "SERVER_IP"]

SERVER_MAC = MacAddress.from_string("02:00:00:00:00:01")
SERVER_IP = ip_address("10.0.0.1")


def _client_identity(index: int) -> tuple[MacAddress, int]:
    mac = MacAddress.from_string(f"02:00:00:00:01:{index:02x}")
    ip = ip_address(f"10.0.1.{index + 1}")
    return mac, ip


@dataclass
class Testbed:
    """One assembled system under test."""

    machine: Machine
    switch: SwitchFabric
    nic: object
    kernel: Optional[Kernel]
    netstack: Optional[NetStack]
    registry: ServiceRegistry
    clients: list[ClientNode] = field(default_factory=list)
    #: user-space net identity for bypass workers (bypass testbeds only)
    user_netctx: Optional[UserNetContext] = None
    #: this server's network identity (fleet hosts override these)
    server_mac: MacAddress = SERVER_MAC
    server_ip: int = SERVER_IP

    @property
    def sim(self):
        return self.machine.sim

    # A testbed is the one-host fleet: the bed-level attributes of
    # repro.fleet.Fleet, so installers need one body for either bed.

    @property
    def hosts(self) -> list:
        return [self]

    @property
    def switches(self) -> list:
        return [self.switch]

    @property
    def plan(self):
        """The active fault plan the machine was built under, or None."""
        return self.machine.faults

    @property
    def fault_stats(self):
        return self.machine.fault_stats

    def call_args(self, service, method) -> dict:
        """Keyword arguments for :meth:`ClientNode.call` to a service."""
        return dict(
            dst_mac=self.server_mac,
            dst_ip=self.server_ip,
            dst_port=service.udp_port,
            service_id=service.service_id,
            method_id=method.method_id,
        )


def _finish_faults(bed: Testbed) -> None:
    """Install wire/NIC-level fault injectors once all ports exist.

    A no-op (not even an import of the injectors) unless the machine
    was built under an active fault plan.
    """
    if bed.plan is not None:
        from ..faults.inject import install_testbed_faults

        install_testbed_faults(bed)


def _base(
    params: MachineParams,
    n_clients: int,
    seed: int,
    switch_latency_ns: float,
) -> tuple[Machine, SwitchFabric, list[ClientNode]]:
    machine = Machine(params, seed=seed)
    switch = SwitchFabric(
        machine.sim,
        bandwidth_bps=params.link_bps,
        port_latency_ns=switch_latency_ns,
    )
    clients = []
    for index in range(n_clients):
        mac, ip = _client_identity(index)
        clients.append(
            ClientNode(machine.sim, switch, mac, ip, name=f"client{index}")
        )
    return machine, switch, clients


def _assemble_linux(
    machine: Machine,
    switch: SwitchFabric,
    clients: list[ClientNode],
    *,
    n_queues: int = 4,
    mac: MacAddress = SERVER_MAC,
    ip: int = SERVER_IP,
    port_name: str = "server",
    nic_name: Optional[str] = None,
) -> Testbed:
    """Wire the conventional kernel stack onto ``switch``; no faults yet."""
    kernel = Kernel(machine)
    netstack = NetStack(kernel, ip=ip, mac=mac)
    for client in clients:
        netstack.add_neighbor(client.ip, client.mac)
    port = switch.attach(mac, port_name)
    nic_kwargs = {} if nic_name is None else {"name": nic_name}
    nic = DmaNic(machine, port, n_queues=n_queues, **nic_kwargs)
    nic.attach_kernel(kernel)
    nic.start()
    kernel.start()
    return Testbed(
        machine=machine,
        switch=switch,
        nic=nic,
        kernel=kernel,
        netstack=netstack,
        registry=ServiceRegistry(),
        clients=clients,
        server_mac=mac,
        server_ip=ip,
    )


def build_linux_testbed(
    params: MachineParams = ENZIAN_PCIE,
    n_clients: int = 1,
    n_queues: int = 4,
    seed: int = 0,
    switch_latency_ns: float = 250.0,
) -> Testbed:
    """Server running the conventional kernel stack on a DMA NIC."""
    machine, switch, clients = _base(params, n_clients, seed, switch_latency_ns)
    bed = _assemble_linux(machine, switch, clients, n_queues=n_queues)
    _finish_faults(bed)
    return bed


def build_bypass_testbed(
    params: MachineParams = ENZIAN_PCIE,
    n_clients: int = 1,
    n_queues: int = 1,
    seed: int = 0,
    switch_latency_ns: float = 250.0,
    with_kernel: bool = True,
) -> Testbed:
    """Server running a kernel-bypass (PMD) stack.

    A kernel still exists (it hosts/pins the worker threads), but the
    data path never enters it.
    """
    machine, switch, clients = _base(params, n_clients, seed, switch_latency_ns)
    bed = _assemble_bypass(machine, switch, clients, n_queues=n_queues,
                           with_kernel=with_kernel)
    _finish_faults(bed)
    return bed


def _assemble_bypass(
    machine: Machine,
    switch: SwitchFabric,
    clients: list[ClientNode],
    *,
    n_queues: int = 1,
    with_kernel: bool = True,
    mac: MacAddress = SERVER_MAC,
    ip: int = SERVER_IP,
    port_name: str = "server",
    nic_name: Optional[str] = None,
) -> Testbed:
    """Wire a kernel-bypass (PMD) stack onto ``switch``; no faults yet."""
    kernel = Kernel(machine) if with_kernel else None
    port = switch.attach(mac, port_name)
    nic_kwargs = {} if nic_name is None else {"name": nic_name}
    nic = BypassNic(machine, port, n_queues=n_queues, **nic_kwargs)
    nic.start()
    if kernel is not None:
        kernel.register_nic(nic)
        kernel.start()
    arp = {client.ip: client.mac for client in clients}
    return Testbed(
        machine=machine,
        switch=switch,
        nic=nic,
        kernel=kernel,
        netstack=None,
        registry=ServiceRegistry(),
        clients=clients,
        user_netctx=UserNetContext(ip=ip, mac=mac, arp=arp),
        server_mac=mac,
        server_ip=ip,
    )


def build_lauberhorn_testbed(
    params: MachineParams = ENZIAN,
    n_clients: int = 1,
    seed: int = 0,
    switch_latency_ns: float = 250.0,
    n_aux: int = 31,
    dma_threshold_bytes: int = 4096,
    tryagain_timeout_ns: Optional[float] = None,
    preempt_on_backlog: bool = False,
) -> Testbed:
    """Server with the Lauberhorn cache-coherent NIC (needs a coherent
    machine preset such as ENZIAN or MODERN_SERVER_CXL)."""
    machine, switch, clients = _base(params, n_clients, seed, switch_latency_ns)
    bed = _assemble_lauberhorn(
        machine, switch, clients,
        n_aux=n_aux,
        dma_threshold_bytes=dma_threshold_bytes,
        tryagain_timeout_ns=tryagain_timeout_ns,
        preempt_on_backlog=preempt_on_backlog,
    )
    _finish_faults(bed)
    return bed


def _assemble_lauberhorn(
    machine: Machine,
    switch: SwitchFabric,
    clients: list[ClientNode],
    *,
    n_aux: int = 31,
    dma_threshold_bytes: int = 4096,
    tryagain_timeout_ns: Optional[float] = None,
    preempt_on_backlog: bool = False,
    mac: MacAddress = SERVER_MAC,
    ip: int = SERVER_IP,
    port_name: str = "server",
    nic_name: Optional[str] = None,
) -> Testbed:
    """Wire the coherent-NIC stack onto ``switch``; no faults yet."""
    from ..nic.lauberhorn import LauberhornNic

    kernel = Kernel(machine)
    registry = ServiceRegistry()
    port = switch.attach(mac, port_name)
    nic_kwargs = {} if nic_name is None else {"name": nic_name}
    nic = LauberhornNic(
        machine,
        port,
        registry,
        mac=mac,
        ip=ip,
        n_aux=n_aux,
        dma_threshold_bytes=dma_threshold_bytes,
        tryagain_timeout_ns=tryagain_timeout_ns,
        preempt_on_backlog=preempt_on_backlog,
        **nic_kwargs,
    )
    kernel.register_nic(nic)
    nic.start()
    kernel.start()
    return Testbed(
        machine=machine,
        switch=switch,
        nic=nic,
        kernel=kernel,
        netstack=None,
        registry=registry,
        clients=clients,
        server_mac=mac,
        server_ip=ip,
    )


def deploy_service(
    bed: Testbed,
    stack: str,
    handler=None,
    *,
    name: str = "echo",
    udp_port: int = 9000,
    cost_instructions: int = 500,
    method_name: str = "m",
    core: Optional[int] = None,
    tenant=None,
    encrypted: bool = False,
):
    """Register a one-method service on ``bed`` and spawn its workers.

    ``stack`` names the serving architecture the bed was assembled for
    (``linux``/``snap``/``bypass``/``lauberhorn``).  ``core`` pins the
    primary worker; left as None, the Linux worker is placed by the
    scheduler and the others pin to core 0 (snap uses ``core`` for the
    engine and ``core + 1`` for the worker).
    ``tenant`` (lauberhorn only) binds the service to a tenant of the
    NIC's attached :class:`repro.tenancy.TenantTable`.  Per-deployment
    tweaks are bed configuration set before the call, e.g.
    ``bed.nic.set_queue_core(...)`` or ``bed.nic.backlog_capacity``
    (the end-point default :meth:`LauberhornNic.create_endpoint` reads).
    Returns ``(service, method)``.
    """
    if handler is None:
        handler = lambda a: list(a)  # noqa: E731 — echo by default
    service = bed.registry.create_service(name, udp_port=udp_port,
                                          encrypted=encrypted)
    method = bed.registry.add_method(service, method_name, handler,
                                     cost_instructions=cost_instructions)
    if core is None and stack != "linux":
        core = 0
    if stack == "linux":
        from ..rpc.server import linux_udp_worker

        socket = bed.netstack.bind(udp_port)
        proc = bed.kernel.spawn_process("srv")
        bed.kernel.spawn_thread(proc, linux_udp_worker(socket, bed.registry),
                                pinned_core=core)
    elif stack == "snap":
        from ..rpc.snap import SnapEngine, snap_engine_body, snap_worker_body

        bed.nic.steer_port(udp_port, 0)
        engine = SnapEngine(bed.sim, bed.registry, bed.user_netctx)
        engine_proc = bed.kernel.spawn_process("snap-engine")
        bed.kernel.spawn_thread(
            engine_proc,
            snap_engine_body(bed.nic, [bed.nic.queues[0]], engine),
            pinned_core=core,
        )
        worker_proc = bed.kernel.spawn_process("snap-worker")
        bed.kernel.spawn_thread(
            worker_proc, snap_worker_body(engine, service),
            pinned_core=core + 1,
        )
    elif stack == "bypass":
        from ..rpc.server import bypass_worker

        bed.nic.steer_port(udp_port, 0)
        proc = bed.kernel.spawn_process("pmd")
        bed.kernel.spawn_thread(
            proc,
            bypass_worker(bed.nic, bed.nic.queues[0], bed.user_netctx,
                          bed.registry),
            pinned_core=core,
        )
    elif stack == "lauberhorn":
        from ..nic.lauberhorn import EndpointKind
        from ..os.nicsched import lauberhorn_user_loop

        proc = bed.kernel.spawn_process("srv")
        bed.nic.register_service(service, proc.pid, tenant=tenant)
        endpoint = bed.nic.create_endpoint(EndpointKind.USER, service=service)
        bed.kernel.spawn_thread(
            proc, lauberhorn_user_loop(bed.nic, endpoint, bed.registry),
            pinned_core=core,
        )
    else:
        raise ValueError(f"unknown stack {stack!r}")
    return service, method
