"""One-call arming of a testbed or fleet: spans on, metrics bound.

The span hooks live in the components themselves (client, NICs, the
kernel netstack), each guarded by an ``obs is None`` test so unarmed
runs pay a single attribute check.  :func:`arm_testbed` flips them all
on with one shared :class:`~repro.obs.spans.SpanRecorder`;
:func:`bind_testbed_metrics` registers every component's stats objects
with a :class:`~repro.obs.metrics.MetricsRegistry`.

Each function takes a :class:`~repro.experiments.testbed.Testbed` or a
:class:`repro.fleet.Fleet` through the attributes both share: a
testbed is the one-host fleet (``bed.hosts == [bed]``,
``bed.switches == [bed.switch]``).
"""

from __future__ import annotations

from typing import Optional

from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .spans import SpanRecorder

__all__ = ["arm_testbed", "arm_flight", "bind_testbed_metrics"]


def arm_testbed(bed, recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Attach one span recorder to every layer of a testbed or fleet:
    every host's NIC and netstack, and every client."""
    if recorder is None:
        recorder = SpanRecorder(bed.sim, tracer=bed.hosts[0].machine.tracer)
    for client in bed.clients:
        client.obs = recorder
    for host in bed.hosts:
        host.nic.obs = recorder
        if host.netstack is not None:
            host.netstack.obs = recorder
    return recorder


def arm_flight(bed, flight: Optional[FlightRecorder] = None,
               recorder: Optional[SpanRecorder] = None,
               capacity: int = 512) -> FlightRecorder:
    """Attach one flight recorder to every event source in a testbed
    or fleet.

    Feeds: scheduler dispatch decisions (every host's kernel), Tryagain
    bounces and ring stalls (every host's NIC), wire fault injections
    (the link injectors on every switch's ports, when a fault plan is
    active), and — when ``recorder`` is passed — span opens/closes.
    Pair with ``checks.flight = flight`` to get the dump-on-violation
    post-mortem.
    """
    if flight is None:
        flight = FlightRecorder(bed.sim, capacity=capacity)
    for host in bed.hosts:
        host.nic.flight = flight
        if host.kernel is not None:
            host.kernel.flight = flight
    for switch in bed.switches:
        for port in switch.ports.values():
            for link in (port.ingress, port.egress):
                injector = getattr(link, "fault", None)
                if injector is not None:
                    injector.flight = flight
    if recorder is not None:
        recorder.flight = flight
    return flight


def _bind_client_metrics(registry: MetricsRegistry, client,
                         prefix: str) -> None:
    registry.probe(prefix, lambda c=client: {
        "outstanding": c.outstanding,
        "parse_errors": c.parse_errors,
        "unmatched_responses": c.unmatched_responses,
        "retries": c.retries,
        "give_ups": c.give_ups,
    })


def bind_testbed_metrics(bed, registry: Optional[MetricsRegistry] = None,
                         prefix: str = "") -> MetricsRegistry:
    """Bind every component's stats into one registry namespace.

    A testbed's rows are unprefixed (``machine``, ``nic``, …); a
    fleet's hosts are namespaced ``host<i>.*`` so identically named
    NICs/kernels never collide.  Every switch is bound under its own
    name (``switch`` for a testbed or the degenerate 1-ToR fabric,
    else ``tor0``/``tor1``/…/``spine``), and clients once per bed.
    """
    if registry is None:
        registry = MetricsRegistry()
    p = f"{prefix}." if prefix else ""
    for host in bed.hosts:
        hp = p if host is bed else f"{p}host{host.index}."
        host.machine.bind_metrics(registry, prefix=f"{hp}machine")
        if host.kernel is not None:
            host.kernel.bind_metrics(registry, prefix=f"{hp}kernel")
        host.nic.bind_metrics(registry, prefix=f"{hp}nic")
        if host.netstack is not None:
            host.netstack.bind_metrics(registry, prefix=f"{hp}netstack")
    for switch in bed.switches:
        switch.bind_metrics(registry, prefix=f"{p}{switch.name}")
    for client in bed.clients:
        _bind_client_metrics(registry, client, f"{p}{client.name}")
    return registry
