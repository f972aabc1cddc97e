"""E23: the fleet smoke run, its artifact, and the claims' teeth."""

import copy
import json

import pytest

from repro.exp.claims import CLAIMS, check, failures
from repro.exp.pool import jsonable
from repro.experiments.e23_fleet import (
    FLEET_ARTIFACT,
    SECTIONS,
    FleetCell,
    _flow_requests,
    cell_labels,
    measure_fleet_cell,
    render_fleet,
    write_fleet_artifact,
)


@pytest.fixture(scope="module")
def smoke(smoke_run):
    """The CI-sized run: one fleet cell per headline section."""
    value, root = smoke_run("e23")
    cells = [FleetCell(**cell) for cell in value]
    return cells, root / FLEET_ARTIFACT


@pytest.fixture
def value(smoke_run):
    """A private copy of the smoke run's cells, to break."""
    return copy.deepcopy(smoke_run("e23")[0])


def test_smoke_cells_complete_cleanly(smoke):
    cells, _path = smoke
    assert [(c.section, c.label) for c in cells] == \
        [("scaling", "r2"), ("placement", "mixed")]
    for cell in cells:
        assert cell.violations == 0
        assert cell.completed == cell.n_requests > 0
        assert sum(cell.routed) == cell.completed
        assert cell.check_samples > 0
    # The mixed placement exercises all four stacks in one rack pair.
    assert set(cells[1].stacks) == {"linux", "snap", "bypass", "lauberhorn"}


def test_smoke_artifact_round_trips_and_validates(smoke, capsys):
    cells, path = smoke
    payload = write_fleet_artifact(cells, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "e23"
    assert on_disk["sections"] == list(SECTIONS)
    render_fleet(cells)
    out = capsys.readouterr().out
    assert "replica-count scaling" in out
    assert "placement grid" in out


def test_validation_rejects_a_violating_cell(value):
    assert failures({"e23": value}) == []
    value[0]["violations"] = 2
    assert failures({"e23": value}) == ["e23.fleet_invariants_hold"]


def test_validation_rejects_a_leaky_ledger(value):
    value[0]["routed"][0] += 1
    assert failures({"e23": value}) == ["e23.balancer_ledger_balances"]


def test_validation_rejects_incomplete_runs(value):
    value[0]["completed"] -= 1
    # the balancer's ledger no longer sums to the completed count either
    assert failures({"e23": value}) == ["e23.every_cell_completes",
                                        "e23.balancer_ledger_balances"]


def test_validation_requires_full_grid_when_complete(value):
    # The placement headline needs the all- and no-Lauberhorn cells,
    # which only the full, digest-pinned run has.
    by_id = {claim.id: claim for claim in CLAIMS}
    assert check(by_id["e23.coherent_placement_beats_kernel"], value) == (
        0, [])


def test_cell_measurement_is_deterministic():
    first = measure_fleet_cell("scaling", "r2")
    second = measure_fleet_cell("scaling", "r2")
    assert jsonable(first) == jsonable(second)


def test_labels_cover_every_section():
    for section in SECTIONS:
        assert cell_labels(section)
    with pytest.raises(KeyError):
        cell_labels("nope")


def test_flow_request_splitter():
    uniform = _flow_requests(16, 128, 0.0)
    assert sum(uniform) == 128
    assert uniform == [8] * 16
    skewed = _flow_requests(16, 128, 1.5)
    assert sum(skewed) <= 128
    assert all(n >= 1 for n in skewed)
    # Zipf weights are monotone: the head flow dominates the tail.
    assert skewed[0] == max(skewed)
    assert skewed[0] > skewed[-1]
