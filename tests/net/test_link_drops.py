"""Regression: links must account every dropped frame, with bytes and
an observer hook — before this, a tail-dropped frame only bumped an
aggregate counter and nothing downstream could see which frame died."""

from repro.net.headers import MacAddress
from repro.net.link import Link
from repro.net.packet import build_udp_frame
from repro.sim.engine import Simulator


def _frame(payload=b"x" * 100):
    return build_udp_frame(
        src_mac=MacAddress.from_string("02:00:00:00:00:01"),
        dst_mac=MacAddress.from_string("02:00:00:00:00:02"),
        src_ip=1, dst_ip=2, src_port=1, dst_port=2,
        payload=payload, born_ns=0.0,
    )


def _send(sim, link, frame):
    sim.run(until=link.send(frame))


def test_delivered_frames_are_counted():
    sim = Simulator()
    link = Link(sim, name="l")
    _send(sim, link, _frame())
    sim.run(until=sim.timeout(10_000.0))
    assert link.stats.frames == 1
    assert link.stats.delivered == 1
    assert link.stats.dropped == 0
    assert link.stats.in_flight() == 0


def test_tail_drop_counts_frames_bytes_and_reason():
    sim = Simulator()
    link = Link(sim, queue_frames=1, name="l")
    observed = []
    link.on_drop = lambda _l, frame, reason: observed.append(
        (frame.wire_bytes, reason)
    )
    first, second = _frame(), _frame(b"y" * 200)
    _send(sim, link, first)
    _send(sim, link, second)
    sim.run(until=sim.timeout(10_000.0))

    assert link.stats.frames == 2
    assert link.stats.delivered == 1
    assert link.stats.dropped == 1
    assert link.stats.dropped_bytes == second.wire_bytes
    assert observed == [(second.wire_bytes, "queue-full")]
    # Conservation balances even with the drop.
    assert link.stats.in_flight() == 0


def test_in_flight_positive_before_delivery():
    sim = Simulator()
    link = Link(sim, propagation_ns=5_000.0, name="l")
    _send(sim, link, _frame())
    assert link.stats.in_flight() == 1  # on the wire
    sim.run(until=sim.timeout(10_000.0))
    assert link.stats.in_flight() == 0
