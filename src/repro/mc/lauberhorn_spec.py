"""Specification of the Figure 4 NIC<->CPU protocol.

Models one end-point: two CONTROL lines, a CPU running the user-mode
receive loop, and the NIC — with nondeterministic packet arrivals,
nondeterministic Tryagain timeouts, and (optionally) OS preemption via
IPI.  The checker verifies the races the paper worries about are
benign:

* a response is only ever extracted after the CPU's store (no
  fetch-exclusive of a stale line);
* a parked fill is answered exactly once (Tryagain never races a
  delivery into double-answering);
* no request is lost or duplicated (conservation);
* the system never deadlocks — in particular a blocked core can always
  be released (the Tryagain timeout is always enabled while parked,
  which is exactly why the 15 ms timeout exists).

``bug=`` injects known protocol mistakes so tests can confirm the
checker actually catches them (a checker that never fails is vacuous).

State tuple layout::

    (cpu_phase, cpu_parity, line0, line1, parked, inflight,
     arrivals_left, queue, delivered, responded, ipi_pending)

* cpu_phase in {"ready", "waiting", "processing", "got_tryagain",
  "in_kernel"}
* line{0,1} in {"nic", "cpu_clean", "cpu_dirty"} — who holds the line
* parked / inflight: parity (0/1) or None
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .checker import Spec

__all__ = ["LauberhornProtocolSpec", "ProtocolConfig"]

_PHASES = ("ready", "waiting", "processing", "got_tryagain", "in_kernel")


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs bounding the model."""

    total_packets: int = 3
    preemption: bool = False
    #: None for the correct protocol, or a seeded bug:
    #: "skip_store"          — CPU may move on without writing the response
    #: "tryagain_keeps_parked" — Tryagain answers but forgets to unpark
    bug: Optional[str] = None


class LauberhornProtocolSpec(Spec):
    """The two-CONTROL-line protocol as a checkable spec."""

    def __init__(self, config: ProtocolConfig = ProtocolConfig()):
        self.config = config
        self.name = f"lauberhorn-protocol(n={config.total_packets}" + (
            ",preempt" if config.preemption else ""
        ) + (f",bug={config.bug}" if config.bug else "") + ")"

    # -- state helpers ------------------------------------------------------

    def initial_states(self) -> Iterable[tuple]:
        return [
            (
                "ready", 0,        # CPU about to load CONTROL[0]
                "nic", "nic",      # both lines at home
                None, None,        # nothing parked, nothing in flight
                self.config.total_packets, 0,  # arrivals_left, queue
                0, 0,              # delivered, responded
                False,             # ipi_pending
            )
        ]

    @staticmethod
    def _unpack(state):
        return state

    def actions(self, state) -> Iterable[tuple[str, tuple]]:
        (phase, parity, line0, line1, parked, inflight,
         arrivals, queue, delivered, responded, ipi) = state
        lines = [line0, line1]
        bug = self.config.bug

        def make(phase=phase, parity=parity, lines=None, parked=parked,
                 inflight=inflight, arrivals=arrivals, queue=queue,
                 delivered=delivered, responded=responded, ipi=ipi,
                 _cur=(line0, line1)):
            l0, l1 = _cur if lines is None else (lines[0], lines[1])
            return (phase, parity, l0, l1, parked, inflight,
                    arrivals, queue, delivered, responded, ipi)

        out: list[tuple[str, tuple]] = []

        # A packet arrives from the network.
        if arrivals > 0:
            out.append(("pkt_arrive", make(arrivals=arrivals - 1, queue=queue + 1)))

        # CPU issues its load on CONTROL[parity].
        if phase == "ready" and lines[parity] == "nic" and parked is None:
            out.append(("cpu_issue_load", make(phase="waiting", parked=parity)))

        # NIC completion: a parked fill on the line opposite the
        # in-flight request extracts the response (fetch exclusive).
        if parked is not None and inflight is not None and parked != inflight:
            new_lines = list(lines)
            new_lines[inflight] = "nic"
            out.append((
                "nic_complete",
                make(lines=new_lines, inflight=None, responded=responded + 1),
            ))

        # NIC delivery: answer the parked fill with a queued request.
        if parked is not None and inflight is None and queue > 0:
            new_lines = list(lines)
            new_lines[parked] = "cpu_clean"
            out.append((
                "nic_deliver",
                make(
                    phase="processing",
                    lines=new_lines,
                    parked=None,
                    inflight=parked,
                    queue=queue - 1,
                    delivered=delivered + 1,
                ),
            ))

        # Tryagain: the timeout may fire at any moment while parked (and
        # the completion, if owed, has already been processed — the NIC
        # handles completion before parking in the implementation; here
        # completion and tryagain are both enabled and the checker
        # explores both orders).
        if parked is not None and inflight is None:
            new_lines = list(lines)
            new_lines[parked] = "cpu_clean"
            keeps_parked = parked if bug == "tryagain_keeps_parked" else None
            out.append((
                "nic_tryagain",
                make(phase="got_tryagain", lines=new_lines, parked=keeps_parked),
            ))

        # OS preemption: an IPI targets the blocked core; the NIC must
        # follow with a Tryagain (covered above) for the core to notice.
        if self.config.preemption and phase == "waiting" and not ipi:
            out.append(("os_send_ipi", make(ipi=True)))

        # CPU finishes the handler and stores the response.
        if phase == "processing":
            new_lines = list(lines)
            new_lines[parity] = "cpu_dirty"
            out.append((
                "cpu_store_response",
                make(phase="ready", parity=1 - parity, lines=new_lines),
            ))
            if bug == "skip_store":
                out.append((
                    "cpu_skip_store",
                    make(phase="ready", parity=1 - parity),
                ))

        # CPU handles a Tryagain: evict the clean line, then either
        # enter the kernel (pending IPI) or retry the load.
        if phase == "got_tryagain":
            new_lines = list(lines)
            new_lines[parity] = "nic"
            if ipi:
                out.append(("cpu_enter_kernel", make(phase="in_kernel", lines=new_lines)))
            else:
                out.append(("cpu_evict_retry", make(phase="ready", lines=new_lines)))

        # The kernel runs (scheduling etc.), then resumes the loop.
        if phase == "in_kernel":
            out.append(("cpu_kernel_return", make(phase="ready", ipi=False)))

        return out

    # -- invariants ----------------------------------------------------------

    def invariants(self):
        def no_stale_extract(state):
            """If a completion is owed and the CPU has moved on (its
            next load is parked), the response line must be dirty —
            otherwise fetch-exclusive would transmit garbage."""
            (_p, _pa, l0, l1, parked, inflight, *_rest) = state
            if parked is not None and inflight is not None and parked != inflight:
                return (l0, l1)[inflight] == "cpu_dirty"
            return True

        def parked_line_at_home(state):
            """A parked fill means the CPU missed: it cannot also hold
            the line."""
            (_p, _pa, l0, l1, parked, *_rest) = state
            return parked is None or (l0, l1)[parked] == "nic"

        def conservation(state):
            """No request is lost or duplicated."""
            (_p, _pa, _line0, _line1, _parked, inflight,
             arrivals, queue, delivered, responded, _ipi) = state
            owed = 1 if inflight is not None else 0
            return (
                delivered == responded + owed
                and arrivals + queue + delivered == self.config.total_packets
            )

        def waiting_is_parked(state):
            """A waiting CPU's fill is parked at the NIC (no answer was
            lost in transit)."""
            (phase, parity, _line0, _line1, parked, *_rest) = state
            return phase != "waiting" or parked == parity

        def bounded_counters(state):
            (_p, _pa, _line0, _line1, _parked, _inflight,
             arrivals, queue, delivered, responded, _ipi) = state
            n = self.config.total_packets
            return (
                0 <= arrivals <= n and 0 <= queue <= n
                and 0 <= delivered <= n and 0 <= responded <= n
            )

        return [
            ("NoStaleResponseExtraction", no_stale_extract),
            ("ParkedLineAtHome", parked_line_at_home),
            ("RequestConservation", conservation),
            ("WaitingImpliesParked", waiting_is_parked),
            ("BoundedCounters", bounded_counters),
        ]

    def is_terminal(self, state) -> bool:
        # No state should be action-free: even fully drained states have
        # the load/tryagain cycle.  (Deadlock checking stays strict.)
        return False

    # -- convenience ------------------------------------------------------------

    @staticmethod
    def describe(state) -> str:
        (phase, parity, l0, l1, parked, inflight,
         arrivals, queue, delivered, responded, ipi) = state
        return (
            f"cpu={phase}@{parity} lines=({l0},{l1}) parked={parked} "
            f"inflight={inflight} net={arrivals}+{queue} "
            f"done={responded}/{delivered} ipi={ipi}"
        )
