"""The paper's claims, one row each, checked on structured results.

Every shape claim — who wins, by what factor, where a crossover falls,
which invariant a grid cell keeps — is a :class:`Claim`: an id
``<experiment>.<name>``, the paper section, the experiment, a selector
over the experiment's ``run_experiments`` value (the JSON form the
golden corpus holds) and a predicate every selected item must meet.
``tests/golden/test_claims.py`` evaluates every row in tier-1, and
``tools/regen_golden.py`` writes nothing while a row fails.

Experiment modules never import this module, so editing a claim
invalidates no cached job (the cache fingerprints a job's import
closure).  Derived properties (``dma_wins``, ``requests_per_sec``) are
read from the record rebuilt from its JSON, never re-derived here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..experiments.crossover import CrossoverPoint
from ..experiments.e22_control import MIX_EPOCHS
from ..experiments.e24_tenancy import TENANT_COUNTS
from ..experiments.four_stacks import STACKS
from ..experiments.sensitivity import SensitivityPoint
from ..experiments.throughput import ThroughputResult
from ..sim.clock import MS

__all__ = ["CLAIMS", "Claim", "check", "failures"]


@dataclass(frozen=True)
class Claim:
    """One paper claim: what it reads and the predicate that must hold."""

    id: str
    #: the paper section (or DESIGN.md item) the claim reproduces
    section: str
    experiment: str
    #: experiment value -> the items the claim speaks about
    select: Callable[[Any], list]
    #: item -> whether the claim holds for it
    holds: Callable[[Any], bool]


def check(claim: Claim, value: Any) -> tuple[int, list]:
    """``(items selected, items the claim fails on)`` for one value."""
    items = claim.select(value)
    return len(items), [item for item in items if not claim.holds(item)]


def failures(values: dict[str, Any]) -> list[str]:
    """Ids of the rows that fail on ``values`` (experiment -> value).

    Rows of experiments absent from ``values`` are skipped; a row that
    cannot find the record it names fails.
    """
    failed = []
    for claim in CLAIMS:
        if claim.experiment not in values:
            continue
        try:
            _selected, failing = check(claim, values[claim.experiment])
        except LookupError:
            failing = [None]
        if failing:
            failed.append(claim.id)
    return failed


def _rows(experiment: str, section: str, select: Callable[[Any], list],
          **holds: Callable[[Any], bool]) -> list[Claim]:
    """One claim per keyword, ``<experiment>.<keyword>``, all reading
    the items ``select`` picks."""
    return [Claim(f"{experiment}.{name}", section, experiment, select,
                  predicate) for name, predicate in holds.items()]


# -- selectors ------------------------------------------------------------

def _whole(view: Callable[[Any], Any]) -> Callable[[Any], list]:
    """Select one item: the whole value, seen through ``view``."""
    return lambda value: [view(value)]


def _keyed(key: str, part: Callable[[Any], list] = lambda v: v,
           record: type | None = None) -> Callable[[Any], list]:
    """Select one item: ``part(value)``'s records keyed by ``key``,
    rebuilt as ``record`` instances when one is given."""

    def select(value):
        rows = part(value)
        if record is None:
            return [{row[key]: row for row in rows}]
        return [{row[key]: record(**row) for row in rows}]

    return select


def _field(name: str, key: str = "stack") -> Callable[[Any], list]:
    """Select one item: ``{record[key]: record[name]}``."""
    return _whole(lambda v: {row[key]: row[name] for row in v})


def _grid(*keys: str) -> Callable[[Any], list]:
    """Select one item: the records keyed by the tuple of ``keys``."""
    return _whole(lambda v: {tuple(row[k] for k in keys): row for row in v})


def _each(part: Callable[[Any], list] = lambda v: v,
          where: Callable[[dict], bool] = lambda row: True
          ) -> Callable[[Any], list]:
    """Select every record of ``part(value)`` that ``where`` accepts."""
    return lambda value: [row for row in part(value) if where(row)]


def _cells(**fields) -> Callable[[Any], list]:
    """E23-E25: the cells whose fields equal ``fields``."""
    return _each(where=lambda cell: all(cell[k] == v
                                        for k, v in fields.items()))


def _ascending(values: list) -> bool:
    return values == sorted(values)


# -- E1-E18: the paper's figures and sections -----------------------------

ECI, PCIE3 = "Enzian / ECI (coherent)", "Enzian / PCIe Gen3 DMA"
PCIE5 = "Modern server / PCIe Gen5 DMA"
CXL = "Modern server / CXL 3.0 (coherent, projected)"
HOT, KERNEL, PROMOTE = ("lauberhorn-hot", "lauberhorn-kernel",
                        "lauberhorn-promote")
SPIN, BLOCKED = "bypass (spin)", "lauberhorn (blocked load)"
TRUSTED, RESIDENT = ("trusted NIC (no IOMMU)",
                     "IOMMU, IOTLB-resident pool (16 pages)")
THRASH, STRICT = ("IOMMU, thrashing ring (1024 pages)",
                  "IOMMU, thrashing + strict unmap")


def _by_services(value) -> list:
    """E4: one ``{stack: record}`` item per service count."""
    counts = sorted({row["n_services"] for row in value})
    return [{row["stack"]: row for row in value if row["n_services"] == n}
            for n in counts]


_correct_models = _each(where=lambda row: row["config"] in (
    "correct n=2", "correct n=3", "correct n=4", "correct n=3 + preemption"))
_peak = _keyed("config", lambda v: v[0], ThroughputResult)

_FIGURES = [
    *_rows("e1", "Figure 2", _field("round_trip_ns", key="label"),
           eci_beats_same_machine_dma=lambda t: t[ECI] < t[PCIE3] / 2.5,
           eci_round_trip_under_1500ns=lambda t: t[ECI] < 1500,
           cxl_beats_modern_dma_3x=lambda t: t[CXL] < t[PCIE5] / 3,
           eci_competes_with_modern_dma=lambda t: t[ECI] < t[PCIE5] * 1.5),
    *_rows("e2", "§2 steps 1-12", _whole(lambda v: v[0]),
           twelve_receive_steps=lambda steps: len(steps) == 12),
    *_rows("e2", "§2 steps 1-12", _whole(lambda v: {
               stack: m["busy_ns_per_request"] for stack, m in v[1].items()}),
           host_software_ordering=lambda b: (
               b["lauberhorn"] < b["bypass"] < b["linux"]),
           lauberhorn_software_under_500ns=lambda b: b["lauberhorn"] < 500,
           lauberhorn_software_far_below_stacks=lambda b: (
               b["lauberhorn"] < b["bypass"] / 3
               and b["lauberhorn"] < b["linux"] / 10)),
    *_rows("e3", "Figure 5, §5.2", _keyed("config"),
           hot_beats_kernel_beats_linux=lambda c: (
               c[HOT]["p50_rtt_ns"] < c[KERNEL]["p50_rtt_ns"]
               < c["linux"]["p50_rtt_ns"]),
           promotion_converges_to_hot_path=lambda c: (
               c[PROMOTE]["p50_rtt_ns"] <= c[HOT]["p50_rtt_ns"] * 1.2
               and c[PROMOTE]["kernel_dispatches"] <= 2
               and c[PROMOTE]["fast_dispatches"] >= 15),
           hot_path_software_under_500ns=lambda c: (
               c[HOT]["busy_ns_per_request"] < 500),
           kernel_dispatch_undercuts_linux_cpu=lambda c: (
               c[KERNEL]["busy_ns_per_request"]
               < c["linux"]["busy_ns_per_request"])),
    *_rows("e4", "§1, §4", _by_services,
           every_stack_completes_the_mix=lambda s: (
               s["lauberhorn"]["completed"] == s["bypass"]["completed"]
               == s["linux"]["completed"]),
           lauberhorn_beats_bypass_beats_linux=lambda s: (
               s["lauberhorn"]["p50_ns"] < s["bypass"]["p50_ns"]
               < s["linux"]["p50_ns"]),
           lauberhorn_uses_least_cpu=lambda s: (
               s["lauberhorn"]["busy_ns_per_request"]
               < s["linux"]["busy_ns_per_request"]
               and s["lauberhorn"]["busy_ns_per_request"]
               < s["bypass"]["busy_ns_per_request"] / 10)),
    *_rows("e4", "§1, §4", _grid("stack", "n_services"),
           bypass_sweep_cost_grows_with_queues=lambda m: (
               m[("bypass", 32)]["busy_ns_per_request"]
               > m[("bypass", 2)]["busy_ns_per_request"]),
           lauberhorn_cost_stays_flat=lambda m: (
               m[("lauberhorn", 32)]["busy_ns_per_request"]
               < m[("lauberhorn", 2)]["busy_ns_per_request"] * 3)),
    *_rows("e5", "§6",
           _keyed("payload_bytes", lambda v: v[0], CrossoverPoint),
           small_messages_ride_cache_lines=lambda p: (
               not p[64].dma_wins and not p[512].dma_wins),
           large_messages_take_dma=lambda p: p[16384].dma_wins),
    *_rows("e5", "§6", _whole(lambda v: v[1]),
           crossover_near_4kib=lambda size: (
               size is not None and 1024 <= size <= 8192)),
    *_rows("e5", "§6", _whole(lambda v: v[0]),
           rtts_grow_with_size=lambda points: (
               _ascending([p["line_rtt_ns"] for p in points])
               and _ascending([p["dma_rtt_ns"] for p in points]))),
    *_rows("e6", "§5.1", _keyed("stack", lambda v: v[0]),
           spinning_burns_the_core=lambda e: (
               e[SPIN]["busy_ns"] > 10 * e[BLOCKED]["busy_ns"]),
           blocked_load_runs_under_10us=lambda e: e[BLOCKED]["busy_ns"] < 1e4,
           blocked_load_stalls_not_spins=lambda e: (
               e[BLOCKED]["stall_ns"] > 20 * MS),
           blocked_load_halves_spin_energy=lambda e: (
               e[BLOCKED]["energy_mj"] < e[SPIN]["energy_mj"] / 2),
           halted_linux_cheapest_while_idle=lambda e: (
               e["linux (interrupt)"]["energy_mj"]
               < e[BLOCKED]["energy_mj"])),
    *_rows("e6", "§5.1", _keyed("timeout_ns", lambda v: v[1]),
           keepalives_decay_with_timeout=lambda t: (
               t[1 * MS]["tryagains_per_sec"] > 900
               and t[15 * MS]["tryagains_per_sec"] < 70
               and t[100 * MS]["tryagains_per_sec"] < 11),
           fabric_traffic_negligible_at_15ms=lambda t: (
               t[15 * MS]["fabric_transactions_per_sec"] < 100)),
    *_rows("e7", "§6", _correct_models,
           correct_protocol_verifies=lambda r: r["ok"],
           state_spaces_stay_small=lambda r: r["states"] < 10_000),
    *_rows("e7", "§6", _keyed("config"),
           ownership_protocol_verifies=lambda c: c["ownership: correct"]["ok"],
           seeded_bugs_are_caught=lambda c: (
               not c["bug: tryagain keeps parked"]["ok"] and all(
                   not c[bug]["ok"] and c[bug]["violated"] == invariant
                   for bug, invariant in (
                       ("bug: skip response store",
                        "NoStaleResponseExtraction"),
                       ("ownership bug: overwrite parked fill",
                        "NoOrphanedLoad"))))),
    *_rows("e8", "§4, §5.2", _whole(dict),
           push_overhead_negligible=lambda r: (
               r["push_overhead_pct"] < 2.0 and r["push_overhead_ns"] < 50)),
    *_rows("e8", "§4, §5.2", _whole(lambda v: v["alternatives"]),
           coherent_store_beats_mmio_read_and_dma=lambda a: (
               a["coherent posted line store (Lauberhorn)"]
               < min(a["PCIe MMIO read (synchronous)"] / 10,
                     a["descriptor DMA enqueue (driver)"]))),
    *_rows("e9", "§6", _field("p50_rtt_ns"),
           nested_rpc_several_fold_over_sockets=lambda p: (
               p["lauberhorn"] < p["linux"] / 2.5),
           nested_rpc_near_10us=lambda p: p["lauberhorn"] < 15_000),
    *_rows("e10", "Figure 4", _whole(dict),
           one_fill_one_recall_no_upgrade=lambda r: (
               r["fills_per_request"] == r["recalls_per_request"] == 1.0
               and r["upgrades_per_request"] == 0.0),
           two_line_transfers_per_rpc=lambda r: (
               r["line_transfers_per_request"] == 2.0)),
    *_rows("e11", "§2", _field("p50_rtt_ns"),
           latency_ordering=lambda p: (
               p["lauberhorn"] < p["bypass"] < p["snap"] < p["linux"])),
    *_rows("e11", "§2", _field("busy_ns_per_request"),
           lauberhorn_cpu_a_third_of_any_stack=lambda b: (
               b["lauberhorn"] * 3 < min(b["bypass"], b["snap"], b["linux"]))),
    *_rows("e12", "DESIGN.md §6", _keyed("config", lambda v: v[0]),
           deserialise_offload_cuts_host_cpu=lambda c: (
               c["lauberhorn"]["busy_ns_per_request"]
               < c["lauberhorn+sw-unmarshal"]["busy_ns_per_request"] / 1.5),
           deserialise_offload_cuts_latency=lambda c: (
               c["lauberhorn"]["p50_rtt_ns"]
               < c["lauberhorn+sw-unmarshal"]["p50_rtt_ns"])),
    *_rows("e12", "DESIGN.md §6", _keyed("config", lambda v: v[1]),
           nic_crypto_costs_no_host_cycles=lambda c: (
               c["lauberhorn+encrypted"]["p50_rtt_ns"]
               - c["lauberhorn"]["p50_rtt_ns"] < 500
               and abs(c["lauberhorn+encrypted"]["busy_ns_per_request"]
                       - c["lauberhorn"]["busy_ns_per_request"]) < 50),
           host_crypto_pays_cycles_and_latency=lambda c: all(
               c["linux+encrypted"][key] > c["linux"][key] + 500
               for key in ("busy_ns_per_request", "p50_rtt_ns"))),
    *_rows("e13", "§6", _whole(dict),
           every_request_traced=lambda r: r["completed"] == 20,
           half_the_requests_kernel_dispatched=lambda r: (
               r["kernel_dispatch_fraction"] == 0.5),
           cold_service_stage_shows=lambda r: (
               r["services"]["cold"]["service"]["p50_ns"]
               > r["services"]["hot"]["service"]["p50_ns"] * 1.5)),
    *_rows("e14", "efficiency corollary", _each(lambda v: v[0]),
           every_request_completes=lambda row: row["completed"] == 300),
    *_rows("e14", "efficiency corollary", _peak,
           throughput_ordering=lambda p: (
               p["lauberhorn"].requests_per_sec_per_core
               > p["bypass"].requests_per_sec_per_core
               > p["linux"].requests_per_sec_per_core),
           throughput_regimes=lambda p: (
               p["linux"].requests_per_sec_per_core > 50e3
               and p["lauberhorn"].requests_per_sec_per_core > 500e3)),
    *_rows("e14", "efficiency corollary", _whole(lambda v: [
               ThroughputResult(**row).requests_per_sec for row in v[1]]),
           endpoints_scale_near_linearly=lambda rates: (
               rates[0] < rates[1] < rates[2] and rates[2] > rates[0] * 2.5)),
    *_rows("e15", "tail-latency corollary", _grid("stack", "rate_per_sec"),
           low_load_ordering=lambda s: (
               s[("lauberhorn", 50e3)]["p50_ns"]
               < s[("bypass", 50e3)]["p50_ns"]
               < s[("linux", 50e3)]["p50_ns"]),
           linux_saturates_by_600k=lambda s: (
               s[("linux", 600e3)]["p50_ns"]
               > s[("linux", 50e3)]["p50_ns"] * 5),
           bypass_and_lauberhorn_flat_at_600k=lambda s: all(
               s[(stack, 600e3)]["p50_ns"] < s[(stack, 50e3)]["p50_ns"] * 1.5
               for stack in ("bypass", "lauberhorn"))),
    *_rows("e15", "tail-latency corollary", _each(),
           no_losses=lambda row: row["completed"] == 250),
    *_rows("e16", "§3", _field("rtt_ns", key="config"),
           tax_grows_with_iotlb_pressure=lambda r: (
               r[TRUSTED] < r[RESIDENT] < r[THRASH] < r[STRICT]),
           resident_pool_tax_under_10pct=lambda r: (
               r[RESIDENT] < r[TRUSTED] * 1.10),
           thrashing_tax_over_15pct=lambda r: (
               r[THRASH] > r[TRUSTED] * 1.15
               and r[STRICT] > r[TRUSTED] * 1.25)),
    *_rows("e16", "§3", _field("iotlb_hit_rate", key="config"),
           iotlb_hit_rates_explain_the_tax=lambda h: (
               h[RESIDENT] > 0.95 and h[THRASH] < 0.80)),
    *_rows("e17", "§1", _keyed("stack"),
           same_trace_completed=lambda s: (
               s["lauberhorn"]["invocations"] == s["linux"]["invocations"]
               > 200),
           lauberhorn_wins_median_tail_and_cpu=lambda s: all(
               s["lauberhorn"][key] < s["linux"][key] / 1.5
               for key in ("p50_ns", "p99_ns", "busy_ns_per_invocation")),
           zipf_head_rides_fast_path=lambda s: (
               s["lauberhorn"]["kernel_dispatch_fraction"] < 0.7)),
    *_rows("e18", "§4",
           _keyed("one_way_ns", lambda v: v[0], SensitivityPoint),
           lauberhorn_wins_at_realistic_latency=lambda p: all(
               p[ns].lauberhorn_wins for ns in (125, 350, 700))),
    *_rows("e18", "§4", _whole(lambda v: v[1]),
           break_even_implausibly_slow=lambda ns: (
               ns is not None and ns >= 1000)),
    *_rows("e18", "§4", _whole(lambda v: v[0]),
           rtt_grows_with_link_latency=lambda points: _ascending(
               [p["lauberhorn_rtt_ns"] for p in points])),
]


# -- E21-E25: the observability, control, fleet and tenancy grids ---------

def _victim(cell) -> dict:
    """An E25 cell's victim objective ledger."""
    return cell["slo"]["specs"]["victim"]


def _storm_pairs(isolation: str) -> Callable[[Any], list]:
    """E24: ``(solo, storm cell)`` pairs of each section's headline."""
    wanted = [("single", f"{nt}t-storm-{isolation}")
              for nt in TENANT_COUNTS] + [("fleet", f"storm-{isolation}")]

    def select(cells):
        by_key = {(cell["section"], cell["label"]): cell for cell in cells}
        return [(by_key[(section, "solo")], by_key[(section, label)])
                for section, label in wanted
                if (section, "solo") in by_key and (section, label) in by_key]

    return select


def _placement(cells) -> list:
    """E23: the all-Lauberhorn vs all-kernel placement pair."""
    by_label = {cell["label"]: cell for cell in cells
                if cell["section"] == "placement"}
    if "all" in by_label and "none" in by_label:
        return [(by_label["all"], by_label["none"])]
    return []


def _mean_victim_root(cell, host: str) -> float:
    summary = cell["flame"].get(f"{host}/victim", {})
    n = summary.get("n_traces", 0)
    return summary.get("root_sum_ns", 0.0) / n if n else 0.0


def _tournament(where: Callable[[dict], bool]) -> Callable[[Any], list]:
    """E22: the tournament cells ``where`` accepts."""
    return _each(lambda v: v["cells"], where)


def _adaptive(value) -> list:
    """E22: the greedy placement of the adaptive mix (full runs only)."""
    return [value["adaptive"]["adaptive"]] if value["adaptive"] else []


_GRIDS = [
    # one item per stack
    *_rows("e21", "§6 tracing", _each(),
           violation_freezes_flight_dump=lambda r: bool(
               r["flight_dump"] and r["flight_dump"]["events"]
               and r["flight_dump"]["reason"])),
    *_rows("e22", "§6 control", _tournament(lambda c: c["policy"] == "none"),
           inert_controller_never_actuates=lambda c: not c["actuations"]),
    *_rows("e22", "§6 control", _tournament(lambda c: c["policy"] != "none"),
           active_policy_reaches_an_epoch=lambda c: c["epochs"] >= 1),
    *_rows("e22", "§6 control", _tournament(lambda c: True),
           every_cell_completes_requests=lambda c: c["completed"] >= 1),
    *_rows("e22", "§6 control", _adaptive,
           adaptive_mix_runs_every_epoch=lambda mix: (
               len(mix["epochs"]) == MIX_EPOCHS),
           greedy_chooser_explores_every_stack=lambda mix: (
               {r["stack"] for r in mix["epochs"]} >= set(STACKS))),
    *_rows("e23", "§1 datacenter", _each(),
           fleet_invariants_hold=lambda c: c["violations"] == 0,
           every_cell_completes=lambda c: c["completed"] == c["n_requests"],
           balancer_ledger_balances=lambda c: (
               sum(c["routed"]) == c["completed"]
               and len(c["routed"]) == len(c["stacks"]))),
    *_rows("e23", "§1 datacenter", _placement,
           coherent_placement_beats_kernel=lambda pair: (
               pair[0]["p50_rtt_ns"] < pair[1]["p50_rtt_ns"])),
    *_rows("e24", "§3 isolation", _each(),
           tenant_invariants_hold=lambda c: c["violations"] == 0,
           victim_fully_served=lambda c: (
               c["victim_completed"] == c["n_victim"])),
    *_rows("e24", "§3 isolation",
           _each(where=lambda c: c["isolated"] and bool(c["pattern"])),
           isolated_aggressor_is_policed=lambda c: (
               c["ledger"].get("aggressor.rate_dropped", 0) > 0)),
    *_rows("e24", "§3 isolation", _cells(pattern="dmaflood"),
           dmaflood_charges_dma_fallbacks=lambda c: (
               c["ledger"].get("aggressor.dma_fallbacks", 0) > 0)),
    *_rows("e24", "§3 isolation", _storm_pairs("on"),
           isolation_keeps_victim_within_2x_solo=lambda pair: (
               pair[1]["victim_p999_ns"] <= 2.0 * pair[0]["victim_p999_ns"])),
    *_rows("e24", "§3 isolation", _storm_pairs("off"),
           unisolated_victim_exceeds_2x_solo=lambda pair: (
               pair[1]["victim_p999_ns"] > 2.0 * pair[0]["victim_p999_ns"])),
    *_rows("e25", "§6 tracing", _each(),
           slo_invariants_hold=lambda c: c["violations"] == 0,
           victim_fully_served=lambda c: (
               c["victim_completed"] == c["n_victim"]),
           speedscope_export_validates=lambda c: c["speedscope_ok"],
           flame_folds_are_exact=lambda c: all(
               group["exact"] and group["self_sum_ns"] == group["root_sum_ns"]
               for group in c["flame"].values())),
    *_rows("e25", "§6 tracing", _cells(interference="calm"),
           calm_cells_never_alert=lambda c: (
               c["slo"]["n_alerts"] == 0 and not _victim(c)["violated"])),
    *_rows("e25", "§6 tracing",
           _cells(interference="storm", tightness="tight", guarded=False),
           tight_storm_exhausts_victim_budget=lambda c: (
               _victim(c)["violated"])),
    *_rows("e25", "§6 tracing",
           _each(where=lambda c: not c["guarded"] and _victim(c)["violated"]),
           burn_alert_precedes_exhaustion=lambda c: (
               _victim(c)["first_alert_ns"] is not None
               and _victim(c)["first_alert_ns"]
               < _victim(c)["exhausted_ns"])),
    *_rows("e25", "§6 tracing",
           _cells(interference="storm", tightness="loose"),
           loose_objective_never_trips=lambda c: (
               not _victim(c)["violated"] and _victim(c)["alerts"] == 0)),
    *_rows("e25", "§6 tracing", _cells(interference="storm", guarded=False),
           storm_diffs_victim_and_aggressor_flames=lambda c: c["flame_diff"]),
    *_rows("e25", "§6 control", _cells(guarded=True),
           slo_guard_acts_on_an_alert=lambda c: (
               c["guard_actuations"] > 0 and _victim(c)["alerts"] >= 1),
           slo_guard_saves_the_budget=lambda c: not _victim(c)["violated"]),
    *_rows("e25", "§6 tracing", _cells(section="fleet", interference="storm"),
           fleet_flame_singles_out_host0=lambda c: (
               _mean_victim_root(c, "host0")
               > 2 * _mean_victim_root(c, "host1"))),
]

#: every claim, E1 first
CLAIMS: tuple[Claim, ...] = tuple(_FIGURES + _GRIDS)
