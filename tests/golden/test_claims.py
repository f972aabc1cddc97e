"""The claims ledger (:mod:`repro.exp.claims`), evaluated in tier-1.

Rows run on results the suite computes anyway: E1-E18 on the golden
runs, E19-E23 on the digest runs (E21-E23's full grids), E24 and E25 on
their smoke runs and on the committed full-grid artifacts, which CI's
full-grid step proves the code rewrites byte for byte.  A row that
selects nothing in every corpus fails: it would assert nothing.
"""

import copy
import json
import pathlib

import pytest

from repro.exp.claims import CLAIMS, check, failures
from repro.exp.golden import GOLDEN_EXPERIMENTS, HASHED_EXPERIMENTS
from repro.experiments.e24_tenancy import TENANCY_ARTIFACT
from repro.experiments.e25_slo import SLO_ARTIFACT

GOLDEN_DIR = pathlib.Path(__file__).parent
REPO = GOLDEN_DIR.parents[1]
#: full grids no tier-1 test runs: their committed artifacts
COMMITTED = {"e24": TENANCY_ARTIFACT, "e25": SLO_ARTIFACT}


def _corpora(experiment: str, request) -> dict:
    """Corpus name -> the experiment's value in it."""
    if experiment in GOLDEN_EXPERIMENTS:
        return {"golden run":
                request.getfixturevalue("fresh_values")[experiment]}
    if experiment in HASHED_EXPERIMENTS:
        return {"digest run":
                request.getfixturevalue("hashed_values")[experiment]}
    smoke, _root = request.getfixturevalue("smoke_run")(experiment)
    artifact = COMMITTED[experiment]
    cells = json.loads((REPO / artifact).read_text())["cells"]
    return {"smoke run": smoke, artifact: cells}


def test_claim_ids_are_unique():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds(claim, request):
    selected = 0
    for corpus, value in _corpora(claim.experiment, request).items():
        count, failing = check(claim, value)
        assert not failing, (
            f"{claim.id} ({claim.section}) fails on the {corpus}, for "
            f"{len(failing)} of {count} item(s): {repr(failing)[:600]}")
        selected += count
    assert selected, (
        f"{claim.id} selects nothing in any corpus: a claim must speak "
        "about at least one result")


def _set(*path, value):
    """A perturbation setting the item at ``path`` to ``value``."""

    def perturb(result):
        for step in path[:-1]:
            result = result[step]
        result[path[-1]] = value

    return perturb


def _update(match: dict, part=lambda value: value, **fields):
    """A perturbation updating ``fields`` of the ``part`` row that
    matches every item of ``match``."""
    return lambda result: next(
        row for row in part(result)
        if all(row[key] == want for key, want in match.items())
    ).update(fields)


#: experiment -> (perturbation of its golden value, claims it must break)
PERTURBED = {
    # the E1 ECI round trip with a 5x slower ECI link (779 -> 3,579 ns)
    "e1": (_update({"label": "Enzian / ECI (coherent)"}, round_trip_ns=3579.0),
           {"e1.eci_beats_same_machine_dma", "e1.eci_round_trip_under_1500ns",
            "e1.eci_competes_with_modern_dma"}),
    "e2": (_set(1, "lauberhorn", "busy_ns_per_request", value=450.0),
           {"e2.lauberhorn_software_far_below_stacks"}),
    "e3": (_update({"config": "lauberhorn-promote"}, kernel_dispatches=3),
           {"e3.promotion_converges_to_hot_path"}),
    "e4": (_update({"stack": "bypass", "n_services": 8}, completed=299),
           {"e4.every_stack_completes_the_mix"}),
    "e5": (_set(1, value=16384), {"e5.crossover_near_4kib"}),
    "e6": (_update({"timeout_ns": 15e6}, lambda v: v[1],
                   tryagains_per_sec=80.0),
           {"e6.keepalives_decay_with_timeout"}),
    "e7": (_update({"config": "bug: tryagain keeps parked"}, ok=True),
           {"e7.seeded_bugs_are_caught"}),
    "e8": (_set("push_overhead_pct", value=3.0),
           {"e8.push_overhead_negligible"}),
    "e9": (_update({"stack": "lauberhorn"}, p50_rtt_ns=13_000.0),
           {"e9.nested_rpc_several_fold_over_sockets"}),
    "e10": (_set("upgrades_per_request", value=1.0),
            {"e10.one_fill_one_recall_no_upgrade"}),
    "e11": (_update({"stack": "snap"}, p50_rtt_ns=70_000.0),
            {"e11.latency_ordering"}),
    "e12": (_update({"config": "linux+encrypted"}, lambda v: v[1],
                    busy_ns_per_request=6912.8),
            {"e12.host_crypto_pays_cycles_and_latency"}),
    "e13": (_set("kernel_dispatch_fraction", value=0.4),
            {"e13.half_the_requests_kernel_dispatched"}),
    "e14": (_update({"n_cores": 4}, lambda v: v[1], duration_ns=252_000.0),
            {"e14.endpoints_scale_near_linearly"}),
    "e15": (_update({"stack": "linux", "rate_per_sec": 600e3},
                    p50_ns=20_000.0),
            {"e15.linux_saturates_by_600k"}),
    "e16": (_update({"config": "IOMMU, IOTLB-resident pool (16 pages)"},
                    iotlb_hit_rate=0.9),
            {"e16.iotlb_hit_rates_explain_the_tax"}),
    "e17": (_update({"stack": "lauberhorn"}, kernel_dispatch_fraction=0.8),
            {"e17.zipf_head_rides_fast_path"}),
    "e18": (_set(1, value=700.0), {"e18.break_even_implausibly_slow"}),
}


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_perturbed_golden_breaks_named_claims(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert failures({name: golden}) == []
    perturb, broken = PERTURBED[name]
    perturbed = copy.deepcopy(golden)
    perturb(perturbed)
    assert set(failures({name: perturbed})) == broken
