"""Microbenchmarks for the discrete-event engine hot path.

The engine in :mod:`repro.sim.engine` is the substrate every experiment
runs on, so its events/sec throughput bounds how much simulated load,
how many seeds, and how many scenarios the reproduction can explore.
This script measures the patterns that dominate real experiment
profiles:

* **timer_churn** — thousands of interleaved processes each sleeping on
  fresh :class:`Timeout` objects (the NIC/OS pipeline-stage pattern);
  exercises timer-heap push/pop throughput.
* **zero_delay_chain** — long chains of ``yield sim.timeout(0)`` (the
  wake-up-chain pattern used for same-instant hand-offs); exercises the
  same-timestamp fast path.
* **anyof_fanin** — repeated ``AnyOf`` over a fan-in of timers (the
  quantum/poll pattern in the kernel-bypass and SNAP models).
* **cancel_churn** — retry loops that arm a guard timer and cancel it
  (the Tryagain pattern); only runs on engines with ``Timeout.cancel``.
* **frame_churn** — build + parse a byte-exact UDP frame per event (the
  data-plane allocation pattern); exercises the ``Frame`` slots/lazy-
  meta diet alongside the engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine.py --guard BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine.py --guard BENCH_engine.json --update

Each benchmark reports events/sec (scheduled engine events divided by
wall-clock time, best of ``--repeat`` runs).  ``--out`` writes a JSON
report so successive PRs can track the trajectory; ``--guard BASELINE``
compares the current run against a stored report and fails (exit 1) if
any benchmark regresses more than ``--tolerance`` (default 5%) — the
regression fence for hot-path changes like the observability hooks.  A
benchmark that ran at baseline size but has no baseline entry is a
guard failure too, so new benchmarks cannot silently dodge the fence;
``--guard BASELINE --update`` rewrites the baseline from this run (in
canonical key order) instead of judging it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.net.headers import MacAddress
from repro.net.packet import build_udp_frame, ip_address, parse_udp_frame
from repro.sim import AnyOf, Simulator
from repro.sim.engine import Timeout

try:  # profiling hooks shipped with the hot-path overhaul
    from repro.sim.profile import attach_profile
except ImportError:  # pragma: no cover - pre-overhaul engine
    attach_profile = None

HAS_CANCEL = hasattr(Timeout, "cancel")


# -- workloads ---------------------------------------------------------------


def _run_timer_churn(n_procs: int, n_timers: int) -> tuple[Simulator, int]:
    """Interleaved timers with co-prime delays: pure heap churn."""
    sim = Simulator()

    def sleeper(delay):
        for _ in range(n_timers):
            yield sim.timeout(delay)

    # Co-prime-ish delays keep timestamps mostly distinct, so nearly
    # every event is a genuine heap reorder rather than a same-time pop.
    for i in range(n_procs):
        sim.process(sleeper(7 + (i * 13) % 97))
    sim.run()
    return sim, n_procs * n_timers


def _run_zero_delay_chain(n_procs: int, chain_len: int) -> tuple[Simulator, int]:
    """Same-instant wake-up chains: the urgent/zero-delay fast path."""
    sim = Simulator()

    def chain():
        for _ in range(chain_len):
            yield sim.timeout(0)

    for _ in range(n_procs):
        sim.process(chain())
    sim.run()
    return sim, n_procs * chain_len


def _run_anyof_fanin(n_rounds: int, fan_in: int) -> tuple[Simulator, int]:
    """Repeated AnyOf over a timer fan-in (quantum/poll pattern)."""
    sim = Simulator()

    def poller():
        for round_no in range(n_rounds):
            timers = [
                sim.timeout(10 + ((round_no + k) * 7) % 31, value=k)
                for k in range(fan_in)
            ]
            yield AnyOf(sim, timers)

    sim.process(poller())
    sim.run()
    return sim, n_rounds * fan_in


def _run_cancel_churn(n_procs: int, n_rounds: int) -> tuple[Simulator, int]:
    """Arm a long guard timer, win the race, cancel it (Tryagain)."""
    sim = Simulator()

    def retrier():
        for _ in range(n_rounds):
            guard = sim.timeout(1_000_000)  # would fire far in the future
            yield sim.timeout(5)
            guard.cancel()

    for _ in range(n_procs):
        sim.process(retrier())
    sim.run()
    return sim, n_procs * n_rounds * 2


def _run_frame_churn(n_procs: int, n_frames: int) -> tuple[Simulator, int]:
    """One byte-exact UDP frame built and parsed per event."""
    sim = Simulator()
    src_mac, dst_mac = MacAddress(0x0A0B0C0D0E01), MacAddress(0x0A0B0C0D0E02)
    src_ip, dst_ip = ip_address("10.0.0.1"), ip_address("10.0.0.2")
    payload = bytes(64)

    def pump(delay):
        for _ in range(n_frames):
            frame = build_udp_frame(
                src_mac, dst_mac, src_ip, dst_ip, 9000, 9001, payload,
                born_ns=sim.now,
            )
            parse_udp_frame(frame, verify=False)
            yield sim.timeout(delay)

    for i in range(n_procs):
        sim.process(pump(5 + (i * 11) % 53))
    sim.run()
    return sim, n_procs * n_frames


BENCHMARKS = {
    "timer_churn": {
        "runner": _run_timer_churn,
        "full": (2_000, 200),
        "quick": (200, 50),
    },
    "zero_delay_chain": {
        "runner": _run_zero_delay_chain,
        "full": (500, 800),
        "quick": (50, 100),
    },
    "anyof_fanin": {
        "runner": _run_anyof_fanin,
        "full": (4_000, 16),
        "quick": (200, 8),
    },
    "cancel_churn": {
        "runner": _run_cancel_churn,
        "full": (1_000, 200),
        "quick": (100, 40),
        "requires_cancel": True,
    },
    "frame_churn": {
        "runner": _run_frame_churn,
        "full": (500, 200),
        "quick": (50, 40),
    },
}


# -- harness -----------------------------------------------------------------


def run_benchmark(name: str, quick: bool = False, repeat: int = 3) -> dict:
    """Run one benchmark; returns a JSON-ready result dict."""
    spec = BENCHMARKS[name]
    args = spec["quick" if quick else "full"]
    best_elapsed = float("inf")
    events = 0
    profile_report = None
    for _ in range(repeat):
        started = time.perf_counter()
        sim, events = spec["runner"](*args)
        elapsed = time.perf_counter() - started
        if elapsed < best_elapsed:
            best_elapsed = elapsed
            if attach_profile is not None:
                # Counters live on the simulator; a post-run attach sees
                # the whole run, including heap high-water marks.
                profile_report = attach_profile(sim).report()
    result = {
        "events": events,
        "seconds": round(best_elapsed, 6),
        "events_per_sec": round(events / best_elapsed),
        "args": list(args),
    }
    if profile_report is not None:
        result["profile"] = profile_report
    return result


def check_guard(report: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regressions of ``report`` vs ``baseline`` beyond ``tolerance``.

    Benchmarks present in both and run at matching sizes are compared
    (a --quick run against a full baseline would be noise).  A
    benchmark in the current report with *no* baseline entry at all is
    a failure — new benchmarks must be recorded (``--update``) before
    the fence can vouch for them.  Returns human-readable failure
    lines; empty means within fence.
    """
    failures = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name in report["benchmarks"]:
        if name not in base_benchmarks:
            failures.append(
                f"{name}: no baseline entry — rerun with --update (or "
                f"`make bench-engine`) to record one"
            )
    for name, base in base_benchmarks.items():
        current = report["benchmarks"].get(name)
        if current is None or current["args"] != base["args"]:
            continue
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if current["events_per_sec"] < floor:
            drop = 100.0 * (1 - current["events_per_sec"]
                            / base["events_per_sec"])
            failures.append(
                f"{name}: {current['events_per_sec']} ev/s is {drop:.1f}% "
                f"below baseline {base['events_per_sec']} "
                f"(allowed {100 * tolerance:.0f}%)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--repeat", type=int, default=3,
                        help="take the best of N runs (default 3)")
    parser.add_argument("--out", default=None,
                        help="write a JSON report to this path")
    parser.add_argument("--guard", default=None, metavar="BASELINE",
                        help="compare against a stored JSON report; exit 1 "
                             "if any benchmark regresses past --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed fractional regression for --guard "
                             "(default 0.05)")
    parser.add_argument("--update", action="store_true",
                        help="with --guard: rewrite the baseline from this "
                             "run (canonical key order) instead of judging "
                             "it; benchmarks not run this time keep their "
                             "old entries")
    parser.add_argument("names", nargs="*", choices=[[], *BENCHMARKS],
                        help="subset of benchmarks to run")
    opts = parser.parse_args(argv)
    if opts.repeat < 1:
        parser.error("--repeat must be >= 1")
    if not 0 <= opts.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    if opts.update and not opts.guard:
        parser.error("--update requires --guard BASELINE")

    selected = opts.names or list(BENCHMARKS)
    report = {
        "engine": "repro.sim.engine",
        "mode": "quick" if opts.quick else "full",
        "has_cancel": HAS_CANCEL,
        "benchmarks": {},
    }
    print(f"{'benchmark':<20} {'events':>10} {'seconds':>9} {'events/sec':>12}")
    for name in selected:
        if BENCHMARKS[name].get("requires_cancel") and not HAS_CANCEL:
            print(f"{name:<20} {'skipped (no Timeout.cancel)':>33}")
            continue
        result = run_benchmark(name, quick=opts.quick, repeat=opts.repeat)
        report["benchmarks"][name] = result
        print(f"{name:<20} {result['events']:>10} {result['seconds']:>9.4f} "
              f"{result['events_per_sec']:>12}")
    if opts.out:
        with open(opts.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {opts.out}")
    if opts.guard:
        if opts.update:
            try:
                with open(opts.guard) as handle:
                    baseline = json.load(handle)
            except FileNotFoundError:
                baseline = {}
            merged = dict(baseline)
            merged.update({k: v for k, v in report.items()
                           if k != "benchmarks"})
            merged_benchmarks = dict(baseline.get("benchmarks", {}))
            merged_benchmarks.update(report["benchmarks"])
            merged["benchmarks"] = merged_benchmarks
            with open(opts.guard, "w") as handle:
                json.dump(merged, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"\nbaseline {opts.guard} updated "
                  f"({len(report['benchmarks'])} benchmark(s) rewritten)")
            return 0
        with open(opts.guard) as handle:
            baseline = json.load(handle)
        failures = check_guard(report, baseline, opts.tolerance)
        if failures:
            print(f"\nBENCH GUARD FAILED vs {opts.guard}:")
            for line in failures:
                print(f"  - {line}")
            return 1
        print(f"\nbench guard: within {100 * opts.tolerance:.0f}% "
              f"of {opts.guard}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
