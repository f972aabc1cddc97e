"""The MESI hook against the re-derive-everything hook it replaced.

The production hook skips the per-line checks when a line has a sole
valid holder and looks for illegal transitions only when some holder
is EXCLUSIVE.  This module keeps the original hook, which re-derives
every check after every op, as the reference, installs both on one
fabric with a registry each, and drives seeded random programs over
4 lines x 4 cores: every wrapped fabric op, interleaved in simulated
time, plus holder states forged behind the fabric's back.  Both must
record the same violations, in the same order, at the same times.
"""

import random
from collections import Counter

from repro.check import CheckRegistry
from repro.check.invariants import _install_mesi_checks, _line_problems
from repro.hw import ECI, CoherenceError, CoherenceFabric, LineState, Region
from repro.hw.coherence import MemoryHome
from repro.sim import Simulator

N_LINES = 4
#: 8 and 9 share hash slots with 0 and 1 in a set of up to 4 entries,
#: so a small set of these ids need not iterate in ascending order
CORES = (0, 1, 8, 9)
BASE = 0x40000
GENERATOR_OPS = ("load", "store", "evict", "posted_write", "device_recall")
PLAIN_OPS = ("device_claim", "device_write")
#: a marker in the detail of each kind of violation the hook records
KINDS = ("S->E", "M->E", "multiple writers", "coexists", "INVALID holder")
#: simulated time between steps (a load miss takes ~300 ns)
ADVANCE_NS = (0.0, 0.0, 50.0, 200.0, 1000.0)
#: forged holder edits; None deletes the core's entry
FORGED = (LineState.SHARED, LineState.EXCLUSIVE, LineState.MODIFIED,
          LineState.INVALID, None)


def _install_reference(reg, fabric, cases: Counter) -> None:
    """The original hook: every check re-derived after every op.

    ``cases`` tallies what the programs exercised, so the test can
    show it covers the paths the production hook skips.
    """
    illegal = {("S", "E"), ("M", "E")}
    prev: dict[int, dict[int, str]] = {}

    def note(addr: int, op: str) -> None:
        line_addr = fabric._line_addr(addr)
        line = fabric._lines.get(line_addr)
        if line is None:
            return
        if list(line.holders.values()) == [LineState.INVALID]:
            cases["sole INVALID holder"] += 1
        reg._record(f"mesi:{op}", _line_problems(line_addr, line))
        current = {c: s.value for c, s in line.holders.items()}
        before = prev.get(line_addr, {})
        transitions = []
        for core in set(before) | set(current):
            old = before.get(core, "I")
            new = current.get(core, "I")
            if (old, new) in illegal:
                transitions.append(
                    f"line {line_addr:#x}: core {core} made illegal "
                    f"transition {old}->{new} during {op}"
                )
        if len(transitions) > 1:
            cases["several transitions in one op"] += 1
        reg._record("mesi:transition", transitions)
        prev[line_addr] = current

    def wrap_generator(name: str) -> None:
        orig = getattr(fabric, name)

        def wrapper(*args):
            result = yield from orig(*args)
            note(args[1] if len(args) > 1 else args[0], name)
            return result

        setattr(fabric, name, wrapper)

    def wrap_plain(name: str) -> None:
        orig = getattr(fabric, name)

        def wrapper(*args):
            result = orig(*args)
            note(args[0], name)
            return result

        setattr(fabric, name, wrapper)

    for name in GENERATOR_OPS:
        wrap_generator(name)
    for name in PLAIN_OPS:
        wrap_plain(name)


def _both_hooks(cases: Counter):
    """A fabric with N_LINES memory-homed lines and both hooks on it."""
    sim = Simulator()
    fabric = CoherenceFabric(sim, ECI)
    fabric.register_home(Region(BASE, N_LINES * fabric.line_bytes),
                         MemoryHome(sim))
    production = CheckRegistry(sim)
    reference = CheckRegistry(sim)
    _install_mesi_checks(production, fabric)
    _install_reference(reference, fabric, cases)
    return sim, fabric, production, reference


def _recorded(reg) -> list[tuple[str, float, str]]:
    return [(v.name, v.time_ns, v.detail) for v in reg.violations]


def _run_program(seed: int, cases: Counter, steps: int = 60):
    rng = random.Random(seed)
    sim, fabric, production, reference = _both_hooks(cases)
    line_bytes = fabric.line_bytes
    for _ in range(steps):
        line_addr = BASE + rng.randrange(N_LINES) * line_bytes
        addr = line_addr + rng.randrange(line_bytes)
        core = rng.choice(CORES)
        if rng.random() < 0.3:
            state = rng.choice(FORGED)
            holders = fabric._lines[line_addr].holders
            if state is None:
                holders.pop(core, None)
            else:
                holders[core] = state
        else:
            op = rng.choice(GENERATOR_OPS + PLAIN_OPS)
            if op in ("load", "evict"):
                sim.process(getattr(fabric, op)(core, addr))
            elif op in ("store", "posted_write"):
                sim.process(getattr(fabric, op)(core, addr, b"\x01"))
            elif op == "device_recall":
                sim.process(fabric.device_recall(addr))
            elif op == "device_claim":
                fabric.device_claim(addr)
            else:
                try:
                    fabric.device_write(addr, b"\x02")
                except CoherenceError:
                    pass  # held line: the op raised, so neither hook ran
        # Let ops overlap, finish in between, or pile up at one instant.
        sim.run(until=sim.now + rng.choice(ADVANCE_NS))
    sim.run()
    return _recorded(production), _recorded(reference)


def test_hook_matches_reference_on_random_programs():
    cases: Counter = Counter()
    for seed in range(300):
        production, reference = _run_program(seed, cases)
        assert production == reference, f"seed {seed}"
        cases["violations"] += len(reference)
        for _name, _time, detail in reference:
            for kind in KINDS:
                cases[kind] += kind in detail
    # The programs must reach every path the production hook gates.
    assert cases["violations"] > 300
    for kind in KINDS + ("sole INVALID holder",):
        assert cases[kind] > 0, (kind, cases)


def test_several_cores_moving_at_once_report_in_reference_order():
    cases: Counter = Counter()
    sim, fabric, production, reference = _both_hooks(cases)
    for core in (9, 1):
        sim.process(fabric.load(core, BASE))
        sim.run()
    holders = fabric._lines[BASE].holders
    assert holders == {9: LineState.SHARED, 1: LineState.SHARED}
    holders[9] = holders[1] = LineState.EXCLUSIVE
    sim.process(fabric.load(1, BASE))     # a hit; the hooks validate
    sim.run()
    assert cases["several transitions in one op"] == 1
    assert _recorded(production) == _recorded(reference)
    moved = [detail.split()[3] for name, _time, detail in _recorded(production)
             if name == "mesi:transition"]
    assert moved == ["9", "1"]            # the set's order, not ascending
