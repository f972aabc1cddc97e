#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark from two source trees.

Runs ``perfbench/run.py`` from a parent tree and a change tree in turn,
the parent first in odd pairs and the change first in even ones, so a
drift in host speed falls on both sides.  Every pair must agree on the
output digest and on the share of requests that failed.  It prints one row
per pair, each side's median and quartiles for every end-to-end metric
that ``BENCHMARK.json`` declares, and, for the claimed metric, how many
pairs the change won and whether the medians differ by more than the
parent's quartile spread.  A claim is met only with at least 10 pairs,
9 in 10 of them won and that gap; a run that attempted no requests is
a failed check.

Usage (from the repository root)::

    python tools/perf_ab.py PARENT_TREE CHANGE_TREE --workload echo4.linux \\
        --seed 3 --pairs 10 --metric norm_us_per_req

Each tree is a full checkout (for example ``git archive <commit> | tar
-x -C DIR``); every run starts from the tree's own root, so it builds
and imports that tree's ``src``.  The exit status is 0 only when every
run passed its checks, the pairs agreed, and the claim was met.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from dataclasses import dataclass

REPO = pathlib.Path(__file__).resolve().parent.parent
#: a claim needs at least this many pairs, and this share of them won
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Run:
    """One ``perfbench/run.py`` invocation."""

    digest: str
    correct: bool
    attempted: int
    failed: int
    #: metric name -> value
    metrics: dict


@dataclass
class Verdict:
    """The gain rule applied to one metric's paired samples."""

    pairs: int
    wins: int
    #: parent median minus change median, signed so a gain is positive
    gap: float
    #: the parent's upper minus lower quartile
    spread: float

    @property
    def met(self) -> bool:
        return (self.pairs >= MIN_PAIRS
                and self.wins >= WIN_SHARE * self.pairs
                and self.gap > self.spread)


def quartiles(values: list) -> tuple:
    """Lower quartile, median and upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, median, upper = statistics.quantiles(values, n=4)
    return lower, median, upper


def verdict(parent: list, change: list, better: str) -> Verdict:
    """Count the pairs the change won (ties count for neither side) and
    compare the gap between medians with the parent's quartile spread."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    lower, median, upper = quartiles(parent)
    gap = sign * (median - statistics.median(change))
    return Verdict(len(parent), wins, gap, upper - lower)


def parse_output(stdout: str) -> Run:
    """The digest line and the final JSON line of one run's output."""
    lines = stdout.strip().splitlines()
    digest = next((line.split(":", 1)[1].strip() for line in lines
                   if line.startswith("digest:")), "")
    result = json.loads(lines[-1])
    return Run(digest, result["correct"], result["attempted"],
               result["failed"], {name: entry["value"]
                for name, entry in result["metrics"].items()})


def pair_problems(pair: int, parent: Run, change: Run) -> list:
    """What one pair's two runs fail of the checks: each passed its own,
    and they agree on the digest and on the share of requests failed."""
    problems = [f"pair {pair}: {side} failed its checks"
                for side, run in (("parent", parent), ("change", change))
                if not run.correct]
    if parent.digest != change.digest:
        problems.append(f"pair {pair}: digests differ "
                        f"({parent.digest} vs {change.digest})")
    idle = [side for side, run in (("parent", parent), ("change", change))
            if not run.attempted]
    if idle:
        problems.append(f"pair {pair}: {' and '.join(idle)} attempted "
                        f"no requests")
        return problems
    # the sides repeat the workload a different number of times
    shares = [run.failed / run.attempted for run in (parent, change)]
    if shares[0] != shares[1]:
        problems.append(f"pair {pair}: failed shares differ "
                        f"({shares[0]:g} vs {shares[1]:g})")
    return problems


def run_tree(tree: pathlib.Path, args) -> Run:
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"perf_ab: no output from {tree}:\n{done.stderr}")
    return parse_output(done.stdout)


def _row(*cells) -> str:
    return "  ".join(f"{cell:>14}" if i else f"{cell:<22}"
                     for i, cell in enumerate(cells))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--metric", default="norm_us_per_req")
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    declared = {entry["name"]: entry for entry in bench["end_to_end"]}
    if args.metric not in declared:
        parser.error(f"unknown metric {args.metric!r}; choose from "
                     f"{', '.join(declared)}")

    runs = {"parent": [], "change": []}
    problems = []
    print(_row("pair", "first", f"parent {args.metric}",
               f"change {args.metric}", "failed", "digest"))
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_tree(getattr(args, side), args))
        parent, change = runs["parent"][-1], runs["change"][-1]
        problems += pair_problems(pair, parent, change)
        print(_row(pair, order[0], _fmt(parent.metrics[args.metric]),
                   _fmt(change.metrics[args.metric]),
                   f"{parent.failed}/{change.failed}", parent.digest[:12]),
              flush=True)

    print()
    print(_row("metric", "parent q1", "parent median", "parent q3",
               "change q1", "change median", "change q3", "change/parent"))
    for name, entry in declared.items():
        parent = [run.metrics[name] for run in runs["parent"]]
        change = [run.metrics[name] for run in runs["change"]]
        p_lo, p_med, p_hi = quartiles(parent)
        c_lo, c_med, c_hi = quartiles(change)
        ratio = c_med / p_med if p_med else float("nan")
        worse = ratio - 1 if entry["better"] == "lower" else 1 - ratio
        note = (f"  worse by more than its bound ({entry['bound']:g})"
                if worse > entry["bound"] else "")
        print(_row(f"{name} ({entry['unit']})", *map(_fmt, (
            p_lo, p_med, p_hi, c_lo, c_med, c_hi, ratio))) + note)

    result = verdict([run.metrics[args.metric] for run in runs["parent"]],
                     [run.metrics[args.metric] for run in runs["change"]],
                     declared[args.metric]["better"])
    print()
    short = (f" (a claim needs at least {MIN_PAIRS} pairs)"
             if result.pairs < MIN_PAIRS else "")
    print(f"{args.metric}: change won {result.wins} of {result.pairs} "
          f"pairs; median gap {_fmt(result.gap)} vs parent quartile "
          f"spread {_fmt(result.spread)}; claim "
          f"{'met' if result.met else 'not met'}{short}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return 0 if result.met and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
