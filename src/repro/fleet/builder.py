"""Fleet builder: N hosts x a ToR/spine topology, one virtual clock.

A :class:`Fleet` generalises the single-machine testbed: each
:class:`HostSpec` picks a serving stack (``linux``/``snap``/``bypass``/
``lauberhorn``) and a rack, and the builder wires every host's machine
into one shared :class:`~repro.sim.engine.Simulator` behind a
:class:`~repro.net.topology.Topology`.  Per-host assembly is exactly
the legacy testbed wiring (:mod:`repro.experiments.testbed`), which is
what the differential harness leans on: a fleet of one host on a
1-ToR topology replays byte-identical to ``build_*_testbed``.

Identities are positional and stable:

* host ``i`` gets MAC ``02:00:00:00:00:{i+1:02x}`` and IP
  ``10.0.0.{i+1}`` — host 0 *is* the legacy ``SERVER_MAC``/
  ``SERVER_IP``, with the legacy port and NIC names, so every
  name-derived fault stream matches the single-machine beds;
* client ``i`` keeps the legacy ``02:00:00:00:01:{i:02x}`` /
  ``10.0.1.{i+1}`` identity.

Host 0's machine is seeded with the fleet's root seed (legacy
behaviour); host ``i > 0`` draws ``derive_seed(seed, "fleet", "host",
i)`` so adding a host never perturbs existing hosts' RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

from ..experiments.testbed import (
    SERVER_IP,
    SERVER_MAC,
    Testbed,
    _assemble_bypass,
    _assemble_lauberhorn,
    _assemble_linux,
    deploy_service,
)
from ..hw.machine import Machine
from ..hw.params import ENZIAN, ENZIAN_PCIE, MachineParams
from ..net.headers import MacAddress
from ..net.packet import ip_address
from ..net.topology import Topology, TopologySpec
from ..sim.rng import derive_seed
from ..workloads.client import ClientNode
from .routing import EcmpBalancer

__all__ = ["HostSpec", "Host", "Deployment", "Fleet", "build_fleet",
           "host_mac", "host_ip"]

#: default NIC model names, per stack (host 0 keeps them verbatim;
#: host i > 0 appends ``-h{i}`` so fault/metric names never collide)
_NIC_BASENAMES = {
    "linux": "dma-nic",
    "snap": "bypass-nic",
    "bypass": "bypass-nic",
    "lauberhorn": "lauberhorn",
}


def host_mac(index: int) -> MacAddress:
    """Server MAC for host ``index`` (index 0 == legacy SERVER_MAC)."""
    return MacAddress.from_string(f"02:00:00:00:00:{index + 1:02x}")


def host_ip(index: int) -> int:
    """Server IP for host ``index`` (index 0 == legacy SERVER_IP)."""
    return ip_address(f"10.0.0.{index + 1}")


@dataclass(frozen=True)
class HostSpec:
    """What to build on one fleet slot."""

    stack: str = "linux"
    #: machine preset; None picks the stack's legacy default
    #: (ENZIAN for lauberhorn, ENZIAN_PCIE otherwise)
    params: Optional[MachineParams] = None
    #: which ToR this host plugs into
    tor: int = 0
    #: RX queues; None picks the stack's legacy default
    n_queues: Optional[int] = None

    def __post_init__(self):
        if self.stack not in _NIC_BASENAMES:
            raise ValueError(f"unknown stack {self.stack!r}")

    def resolved_params(self) -> MachineParams:
        if self.params is not None:
            return self.params
        return ENZIAN if self.stack == "lauberhorn" else ENZIAN_PCIE


@dataclass
class Host(Testbed):
    """One fleet member: a legacy testbed plus its fleet coordinates."""

    index: int = 0
    stack: str = "linux"
    tor: int = 0


@dataclass(frozen=True)
class Deployment:
    """One replica of a replicated service."""

    host: Host
    service: object
    method: object


@dataclass
class Fleet:
    """An assembled rack: hosts + clients behind one switch topology."""

    topology: Topology
    hosts: list[Host]
    clients: list[ClientNode]
    seed: int = 0
    #: replicas of the last :meth:`deploy` call, in host order
    deployments: list[Deployment] = field(default_factory=list)
    balancer: Optional[EcmpBalancer] = None
    #: fault counters for gear no host owns (client + trunk ports)
    fault_stats: object = None
    #: the ambient fault plan the fleet was built under (or None)
    plan: object = None

    @property
    def sim(self):
        return self.hosts[0].machine.sim

    @property
    def switches(self):
        return list(self.topology.switches())

    @property
    def machines(self):
        return [host.machine for host in self.hosts]

    def host_for(self, stack: str) -> Host:
        """First host running ``stack`` (KeyError if none does)."""
        for host in self.hosts:
            if host.stack == stack:
                return host
        raise KeyError(f"no host runs stack {stack!r}")

    def run(self, until=None):
        """Advance the shared simulator (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until)

    # -- service deployment ------------------------------------------------

    def deploy(
        self,
        name: str = "echo",
        udp_port: int = 9000,
        handler: Optional[Callable] = None,
        *,
        cost_instructions: int = 500,
        method_name: str = "m",
        replicas: Optional[Sequence[int]] = None,
        tenant=None,
    ) -> list[Deployment]:
        """Deploy one service on ``replicas`` (host indices; default all)
        and stand up the ECMP balancer over them.  ``tenant`` (a tenant
        *name*) binds the replicas on tenanted lauberhorn hosts to that
        tenant of each host's own table."""
        indices = (list(range(len(self.hosts)))
                   if replicas is None else list(replicas))
        deployments = []
        for index in indices:
            host = self.hosts[index]
            host_tenant = tenant
            if tenant is not None and getattr(host.nic, "tenants",
                                              None) is None:
                host_tenant = None
            service, method = deploy_service(
                host, host.stack, handler,
                name=name, udp_port=udp_port,
                cost_instructions=cost_instructions,
                method_name=method_name,
                tenant=host_tenant,
            )
            deployments.append(Deployment(host, service, method))
        self.deployments = deployments
        self.balancer = EcmpBalancer(deployments, seed=self.seed,
                                     dst_port=udp_port)
        return deployments

    def send(self, client: ClientNode, flow_port: int, args):
        """Fire one request of flow ``(client, flow_port)`` at the
        replica the balancer picks; returns the completion event."""
        if self.balancer is None:
            raise RuntimeError("deploy() a service before send()")
        deployment = self.balancer.pick(client.ip, flow_port)
        return client.send_request(
            args=args, src_port=flow_port,
            **deployment.host.call_args(deployment.service,
                                        deployment.method),
        )


def _host_from_bed(bed: Testbed, index: int, stack: str, tor: int) -> Host:
    values = {f.name: getattr(bed, f.name) for f in fields(Testbed)}
    return Host(index=index, stack=stack, tor=tor, **values)


def build_fleet(
    hosts: Sequence[HostSpec],
    topo: Optional[TopologySpec] = None,
    n_clients: int = 1,
    seed: int = 0,
    switch_latency_ns: float = 250.0,
    client_tor: int = 0,
) -> Fleet:
    """Assemble a fleet on one shared simulator.

    Construction order mirrors the legacy ``_base`` + assembly
    sequence — machines, switches, clients, then per-host stacks — so
    a 1-host, 1-ToR fleet is event-for-event the legacy testbed.
    Fault plans are ambient, exactly as for single testbeds: build
    under ``with plan:`` and every machine, link, and NIC picks it up.
    """
    specs = list(hosts)
    if not specs:
        raise ValueError("a fleet needs at least one host")
    if topo is None:
        topo = TopologySpec(port_latency_ns=switch_latency_ns)
    for spec in specs:
        if not 0 <= spec.tor < topo.n_tors:
            raise ValueError(f"host ToR {spec.tor} outside topology "
                             f"({topo.n_tors} ToRs)")

    # 1. Machines — host 0 owns the simulator and the root seed.
    machines = [Machine(specs[0].resolved_params(), seed=seed)]
    sim = machines[0].sim
    for index in range(1, len(specs)):
        machines.append(Machine(
            specs[index].resolved_params(),
            seed=derive_seed(seed, "fleet", "host", str(index)),
            sim=sim,
        ))

    # 2. The switch topology (degenerate 1-ToR == the legacy switch).
    topology = Topology(
        sim, topo,
        bandwidth_bps=specs[0].resolved_params().link_bps,
        seed=seed,
    )

    # 3. Clients, with their legacy identities.
    clients = []
    for index in range(n_clients):
        mac = MacAddress.from_string(f"02:00:00:00:01:{index:02x}")
        ip = ip_address(f"10.0.1.{index + 1}")
        clients.append(ClientNode(
            sim, topology.tors[client_tor], mac, ip, name=f"client{index}",
        ))
        topology.register_endpoint(mac, client_tor)

    # 4. Per-host stack assembly, in index order.
    built: list[Host] = []
    for index, spec in enumerate(specs):
        mac, ip = host_mac(index), host_ip(index)
        port_name = "server" if index == 0 else f"host{index}"
        nic_name = (None if index == 0
                    else f"{_NIC_BASENAMES[spec.stack]}-h{index}")
        common = dict(mac=mac, ip=ip, port_name=port_name,
                      nic_name=nic_name)
        tor_fabric = topology.tors[spec.tor]
        if spec.stack == "linux":
            bed = _assemble_linux(
                machines[index], tor_fabric, clients,
                n_queues=4 if spec.n_queues is None else spec.n_queues,
                **common,
            )
        elif spec.stack in ("snap", "bypass"):
            bed = _assemble_bypass(
                machines[index], tor_fabric, clients,
                n_queues=1 if spec.n_queues is None else spec.n_queues,
                **common,
            )
        else:
            bed = _assemble_lauberhorn(machines[index], tor_fabric, clients,
                                       **common)
        topology.register_endpoint(mac, spec.tor)
        # the span origin label matches the host's metrics namespace
        # (host<i>.*), so root-span tags join against the right rows
        bed.nic.obs_host = f"host{index}"
        built.append(_host_from_bed(bed, index, spec.stack, spec.tor))

    fleet = Fleet(topology=topology, hosts=built, clients=clients,
                  seed=seed, plan=machines[0].faults)
    if fleet.plan is not None:
        from ..faults.inject import InjectionStats, install_testbed_faults

        fleet.fault_stats = InjectionStats()
        install_testbed_faults(fleet)
    return fleet
