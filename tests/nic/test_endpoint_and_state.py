"""Unit tests for endpoints, the sched table, load stats, and RSS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Region
from repro.nic import rss_hash, rss_queue_index
from repro.nic.lauberhorn import Endpoint, EndpointKind, SchedTable
from repro.nic.lauberhorn.endpoint import PendingRequest
from repro.nic.lauberhorn.loadstats import LoadStats


def make_endpoint(n_aux=4, line=128, backlog=2):
    region = Region(0x10000, Endpoint.region_size(line, n_aux))
    return Endpoint(
        endpoint_id=0,
        kind=EndpointKind.USER,
        region=region,
        line_bytes=line,
        n_aux=n_aux,
        service=None,
        backlog_capacity=backlog,
    )


def make_request(service=None, tag=1):
    class _Svc:
        service_id = 1
        name = "s"

    return PendingRequest(
        service=service or _Svc(),
        method_id=1,
        tag=tag,
        payload=b"",
        reply_ip=0,
        reply_port=0,
        reply_mac=None,
        born_ns=0.0,
        arrived_ns=0.0,
    )


def test_endpoint_line_layout_disjoint():
    ep = make_endpoint(n_aux=4)
    all_addrs = set(ep.ctrl_addrs) | set(ep.aux_addrs) | set(ep.resp_aux_addrs)
    assert len(all_addrs) == 2 + 4 + 4
    assert all(addr in ep.region for addr in all_addrs)


def test_region_size_covers_lines():
    assert Endpoint.region_size(128, 4) == (2 + 8) * 128


def test_parity_of():
    ep = make_endpoint()
    assert ep.parity_of(ep.ctrl_addrs[0]) == 0
    assert ep.parity_of(ep.ctrl_addrs[1]) == 1
    assert ep.parity_of(ep.ctrl_addrs[1] + 5) == 1
    with pytest.raises(ValueError):
        ep.parity_of(ep.aux_addrs[0])


def test_is_ctrl():
    ep = make_endpoint()
    assert ep.is_ctrl(ep.ctrl_addrs[0])
    assert not ep.is_ctrl(ep.aux_addrs[0])


def test_max_line_payload():
    ep = make_endpoint(n_aux=4, line=128)
    from repro.nic.lauberhorn.wire import max_inline_payload

    assert ep.max_line_payload() == max_inline_payload(128) + 4 * 128


def test_backlog_capacity_enforced():
    ep = make_endpoint(backlog=2)
    assert ep.push_backlog(make_request(tag=1))
    assert ep.push_backlog(make_request(tag=2))
    assert not ep.push_backlog(make_request(tag=3))
    assert ep.stats.backlog_peak == 2


def test_sched_table_tracks_switches():
    table = SchedTable()
    table.record_switch(0, 10)
    table.record_switch(1, 10)
    assert table.is_running(10)
    assert table.cores_of(10) == frozenset({0, 1})
    table.record_switch(0, 20)  # core 0 now runs pid 20
    assert table.cores_of(10) == frozenset({1})
    table.record_switch(1, 20)
    assert not table.is_running(10)
    assert table.updates == 4


def test_load_stats_ewma_rate():
    load = LoadStats()
    svc = load.service(1)
    for t in (0, 1000, 2000, 3000):
        svc.note_arrival(float(t))
    # 1 arrival per 1000ns = 1e6/s
    assert svc.arrival_rate_per_sec() == pytest.approx(1e6, rel=0.01)
    assert svc.arrivals == 4


def test_load_stats_hottest():
    load = LoadStats()
    slow = load.service(1)
    fast = load.service(2)
    for t in (0, 10_000):
        slow.note_arrival(float(t))
    for t in (0, 100):
        fast.note_arrival(float(t))
    assert load.hottest(1)[0].service_id == 2


def test_load_stats_most_backlogged():
    load = LoadStats()
    load.service(1).backlog_now = 3
    load.service(2).backlog_now = 9
    assert load.most_backlogged().service_id == 2
    load.service(2).backlog_now = 0
    load.service(1).backlog_now = 0
    assert load.most_backlogged() is None


def test_rss_deterministic_and_spread():
    h1 = rss_hash(1, 2, 3, 4)
    assert h1 == rss_hash(1, 2, 3, 4)
    assert h1 != rss_hash(1, 2, 3, 5)
    # Spread: many flows over 8 queues should touch most queues.
    queues = {
        rss_queue_index(0x0A000001, 0x0A000002, 40000 + i, 9000, 8)
        for i in range(64)
    }
    assert len(queues) >= 6


def test_rss_rejects_zero_queues():
    with pytest.raises(ValueError):
        rss_queue_index(1, 2, 3, 4, 0)


def _ref_rss_hash(src_ip, dst_ip, src_port, dst_port):
    """The reference: FNV-1a over the four fields' bytes, chunk by chunk."""
    value = 0xCBF29CE484222325
    for chunk in (
        src_ip.to_bytes(4, "big"),
        dst_ip.to_bytes(4, "big"),
        src_port.to_bytes(2, "big"),
        dst_port.to_bytes(2, "big"),
    ):
        for byte in chunk:
            value ^= byte
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
       st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_rss_hash_equals_the_per_chunk_reference(src, dst, sport, dport):
    assert rss_hash(src, dst, sport, dport) == _ref_rss_hash(
        src, dst, sport, dport)
