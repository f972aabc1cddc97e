"""Per-request records are slotted, not frozen.

A frozen dataclass's ``__init__`` makes one ``object.__setattr__`` call
per field, several times the cost of a slotted one, and a simulated RPC
builds dozens of records (headers, RPC messages, thread ops, CONTROL
lines) that live for one request.  Those records are
``@dataclass(slots=True)``; ``frozen=True`` is kept for identity,
config and retained records.

This fence runs the six perfbench workloads at seed 1, as
``test_perfbench_pins.py`` does, and counts every construction of a
frozen dataclass defined under ``repro`` while they simulate.  Only the
allowlisted classes may be built per request, and at most a
per-workload ceiling of them per offered request.  It counts and never
times, so it is deterministic.
"""

import collections
import dataclasses
import importlib
import pathlib
import pkgutil
import sys

import pytest

import repro
from repro.hw.coherence import FillResponse
from repro.net.headers import EthernetHeader, Ipv4Header, UdpHeader
from repro.net.packet import ParsedUdp
from repro.nic.lauberhorn.endpoint import InflightRequest, PendingRequest
from repro.nic.lauberhorn.telemetry import RpcTimeline
from repro.nic.lauberhorn.wire import RequestLine, ResponseLine
from repro.os import ops
from repro.os.kernel import Irq
from repro.os.netstack import Datagram
from repro.rpc.message import RpcHeader, RpcMessage
from repro.rpc.snap import _Work
from repro.workloads.client import RpcResult

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import scenarios  # noqa: E402

SEED = 1
#: frozen records that may be built per request: a MAC address is an
#: identity (hashed, and a dataclass default), a trace record a log
#: entry retained and handed to subscribers
PER_REQUEST_FROZEN = {"MacAddress", "TraceRecord"}
#: constructions of any other frozen class, per offered request
OTHER_FROZEN_LIMIT = 0.01
#: constructions of the allowlisted classes, per offered request: a
#: frame's MACs are decoded only where ``ParsedUdp.eth`` is read (the
#: Lauberhorn NIC's reply address), and tenant_storm's trace records
#: add 5.58
PER_REQUEST_CEILINGS = {
    "echo4.linux": 0.0,
    "echo4.snap": 0.0,
    "echo4.bypass": 0.0,
    "echo4.lauberhorn": 2.0,
    "tenant_storm": 7.6,
    "fleet_mixed": 0.21,
}
#: records built and consumed once per simulated request
PER_REQUEST_RECORDS = (
    EthernetHeader, Ipv4Header, UdpHeader, ParsedUdp, RpcHeader,
    RpcMessage, RequestLine, ResponseLine, RpcResult, Datagram,
    PendingRequest, InflightRequest, RpcTimeline, FillResponse, Irq,
    _Work,
    ops.Exec, ops.ExecNs, ops.Syscall, ops.Block, ops.YieldCpu,
    ops.Sleep, ops.LoadLine, ops.StoreLine, ops.LoadLines, ops.EvictLine,
    ops.MmioRead, ops.MmioWrite, ops.Call, ops.RecvFromSocket,
    ops.SendDatagram,
)


def _frozen_dataclasses() -> list[type]:
    """Every frozen dataclass defined in a ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and dataclasses.is_dataclass(value)
                    and value.__dataclass_params__.frozen
                    and "__init__" in value.__dict__):
                found.append(value)
    return found


@pytest.fixture(scope="module")
def frozen_per_request():
    """Workload -> (frozen constructions by class name, offered)."""
    counts = collections.Counter()
    originals = {}

    def counted(cls, init):
        def counting_init(self, *args, **kwargs):
            counts[cls.__qualname__] += 1
            init(self, *args, **kwargs)
        return counting_init

    results = {}
    try:
        for cls in _frozen_dataclasses():
            originals[cls] = cls.__dict__["__init__"]
            cls.__init__ = counted(cls, originals[cls])
        for workload, build in scenarios.WORKLOADS.items():
            run = build(SEED)
            counts.clear()
            rep = run()
            assert rep.problems == []
            results[workload] = (dict(counts), rep.offered)
    finally:
        for cls, init in originals.items():
            cls.__init__ = init
    return results


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_only_allowlisted_frozen_records_per_request(workload,
                                                    frozen_per_request):
    counts, offered = frozen_per_request[workload]
    others = {name: n for name, n in counts.items()
              if name not in PER_REQUEST_FROZEN}
    assert sum(others.values()) / offered < OTHER_FROZEN_LIMIT, (
        f"{workload} built frozen records per request: "
        f"{sorted(others.items(), key=lambda item: -item[1])}")
    allowed = sum(n for name, n in counts.items()
                  if name in PER_REQUEST_FROZEN) / offered
    assert allowed <= PER_REQUEST_CEILINGS[workload], (
        f"{workload}: {allowed:.2f} frozen constructions per offered "
        f"request, over its ceiling of {PER_REQUEST_CEILINGS[workload]}")


@pytest.mark.parametrize("cls", PER_REQUEST_RECORDS,
                         ids=lambda cls: cls.__qualname__)
def test_per_request_record_is_slotted(cls):
    assert not cls.__dataclass_params__.frozen
    assert not hasattr(cls.__new__(cls), "__dict__")
