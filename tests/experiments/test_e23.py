"""E23: the fleet smoke run, artifact schema, and validation teeth."""

import copy
import json

import pytest

from repro.exp.pool import jsonable
from repro.experiments.e23_fleet import (
    FLEET_ARTIFACT,
    SECTIONS,
    FleetCell,
    _flow_requests,
    cell_labels,
    measure_fleet_cell,
    render_fleet,
    validate_fleet_payload,
    write_fleet_artifact,
)


@pytest.fixture(scope="module")
def smoke(smoke_run):
    """The CI-sized run: one fleet cell per headline section."""
    value, root = smoke_run("e23")
    cells = [FleetCell(**cell) for cell in value]
    return cells, root / FLEET_ARTIFACT


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
    validate_fleet_payload(payload, complete=False)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "e23"
    assert on_disk["sections"] == list(SECTIONS)
    render_fleet(cells)
    out = capsys.readouterr().out
    assert "replica-count scaling" in out
    assert "placement grid" in out


def test_validation_rejects_a_violating_cell(smoke):
    cells, path = smoke
    broken = copy.deepcopy(write_fleet_artifact(cells, str(path)))
    broken["cells"][0]["violations"] = 2
    with pytest.raises(ValueError, match="violation"):
        validate_fleet_payload(broken, complete=False)


def test_validation_rejects_a_leaky_ledger(smoke):
    cells, path = smoke
    broken = copy.deepcopy(write_fleet_artifact(cells, str(path)))
    broken["cells"][0]["routed"][0] += 1
    with pytest.raises(ValueError, match="routed"):
        validate_fleet_payload(broken, complete=False)


def test_validation_rejects_incomplete_runs(smoke):
    cells, path = smoke
    broken = copy.deepcopy(write_fleet_artifact(cells, str(path)))
    broken["cells"][0]["completed"] -= 1
    with pytest.raises(ValueError, match="completed"):
        validate_fleet_payload(broken, complete=False)


def test_validation_requires_full_grid_when_complete(smoke):
    cells, path = smoke
    payload = write_fleet_artifact(cells, str(path))
    with pytest.raises(ValueError, match="missing cells"):
        validate_fleet_payload(payload, complete=True)


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
