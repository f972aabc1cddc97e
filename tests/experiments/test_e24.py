"""E24: the tenancy smoke run, its artifact, and the claims' teeth."""

import copy
import json
from pathlib import Path

import pytest

from repro.exp.claims import failures
from repro.exp.golden import golden_digest
from repro.exp.pool import jsonable
from repro.experiments.e24_tenancy import (
    GRID,
    SECTIONS,
    TENANCY_ARTIFACT,
    TenancyCell,
    cell_labels,
    measure_single_cell,
    render_tenancy,
    write_tenancy_artifact,
)

HASHES = Path(__file__).parents[1] / "golden" / "hashes.json"


@pytest.fixture(scope="module")
def smoke(smoke_run):
    """The CI-sized run: solo + the 2-tenant storm headline pair."""
    value, root = smoke_run("e24")
    cells = [TenancyCell(**cell) for cell in value]
    return cells, root / TENANCY_ARTIFACT


@pytest.fixture
def value(smoke_run):
    """A private copy of the smoke run's cells, to break."""
    return copy.deepcopy(smoke_run("e24")[0])


def _full_grid(cells: list) -> list:
    """E24's whole grid in grid order, stubbed from the smoke cells:
    solo cells copy the solo, ``-on`` cells the isolated storm cell and
    the rest the unisolated one."""
    by_label = {cell["label"]: cell for cell in cells}
    grid = []
    for key, _fn, _kwargs in GRID.points:
        section, label = key.split("@")
        if label == "solo":
            source, pattern = "solo", ""
        else:
            source = "2t-storm-on" if label.endswith("-on") else "2t-storm-off"
            pattern = label.split("-")[-2]
        grid.append(dict(copy.deepcopy(by_label[source]), section=section,
                         label=label, pattern=pattern))
    return grid


def test_smoke_cells_complete_cleanly(smoke):
    cells, _path = smoke
    assert [(c.section, c.label) for c in cells] == \
        [("single", "solo"), ("single", "2t-storm-off"),
         ("single", "2t-storm-on")]
    for cell in cells:
        assert cell.violations == 0
        assert cell.victim_completed == cell.n_victim > 0
        assert cell.check_samples > 0
    solo, off, on = cells
    # The headline in miniature: the unisolated victim's tail blows
    # past 2x solo; budgets + DWRR + policing pull it back under.
    assert off.victim_p999_ns > 2.0 * solo.victim_p999_ns
    assert on.victim_p999_ns <= 2.0 * solo.victim_p999_ns
    assert on.ledger["aggressor.rate_dropped"] > 0
    assert off.ledger["aggressor.rate_dropped"] == 0


def test_tenant_ledger_conserves_in_every_cell(smoke):
    cells, _path = smoke
    for cell in cells:
        for name in cell.tenants:
            arrivals = cell.ledger[f"{name}.arrivals"]
            admitted = cell.ledger[f"{name}.admitted"]
            policed = cell.ledger[f"{name}.rate_dropped"]
            assert arrivals == admitted + policed


def test_smoke_artifact_round_trips_and_validates(smoke, capsys):
    cells, path = smoke
    payload = write_tenancy_artifact(cells, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "e24"
    assert on_disk["sections"] == list(SECTIONS)
    render_tenancy(cells)
    out = capsys.readouterr().out
    assert "noisy neighbours" in out


def test_smoke_artifact_matches_digest_pin(smoke):
    cells, path = smoke
    pin = json.loads(HASHES.read_text())["e24_smoke"]
    assert golden_digest(write_tenancy_artifact(cells, str(path))) == pin, (
        "E24 smoke artifact drifted from its pin; if intended, re-pin with "
        "`python tools/regen_golden.py --hashes`")


def test_validation_rejects_a_violating_cell(value):
    assert failures({"e24": value}) == []
    value[0]["violations"] = 1
    assert failures({"e24": value}) == ["e24.tenant_invariants_hold"]


def test_validation_rejects_a_starved_victim(value):
    value[0]["victim_completed"] -= 1
    assert failures({"e24": value}) == ["e24.victim_fully_served"]


def test_validation_rejects_an_unpoliced_isolated_aggressor(value):
    for cell in value:
        if cell["isolated"] and cell["pattern"]:
            cell["ledger"]["aggressor.rate_dropped"] = 0
    assert failures({"e24": value}) == ["e24.isolated_aggressor_is_policed"]


def test_validation_requires_full_grid_and_headline_when_complete(value):
    grid = _full_grid(value)
    assert [(c["section"], c["label"]) for c in grid] == [
        (section, label) for section in SECTIONS
        for label in cell_labels(section)]
    # the stubbed dmaflood cells charge no DMA fallbacks: that row fails
    # on the stubs already
    stubbed = set(failures({"e24": grid}))
    assert stubbed == {"e24.dmaflood_charges_dma_fallbacks"}
    # Headline teeth: an isolated storm cell whose tail exceeds 2x solo
    # fails its claim across the whole grid.
    for cell in grid:
        if cell["label"] == "2t-storm-on":
            cell["victim_p999_ns"] = 1e9
    assert set(failures({"e24": grid})) - stubbed == {
        "e24.isolation_keeps_victim_within_2x_solo"}


def test_assemble_writes_a_full_grid_whose_headline_fails(
        value, tmp_path, monkeypatch):
    # What a faulted run produces: retransmit timeouts fatten the solo
    # victim's tail past the stormed ones, so the unisolated cells stay
    # "within 2x solo".  Assembly still renders and writes the artifact.
    grid = _full_grid(value)
    for cell in grid:
        if cell["label"] == "solo":
            cell["victim_p999_ns"] = 1e9
    assert "e24.unisolated_victim_exceeds_2x_solo" in failures({"e24": grid})
    monkeypatch.chdir(tmp_path)
    cells = GRID.assemble(grid, False)
    written = json.loads((tmp_path / TENANCY_ARTIFACT).read_text())
    assert written["cells"] == [jsonable(cell) for cell in cells]
    assert len(cells) == len(GRID.points)


def test_cell_measurement_is_deterministic():
    first = measure_single_cell("2t-rateviol-on")
    second = measure_single_cell("2t-rateviol-on")
    assert jsonable(first) == jsonable(second)


def test_labels_cover_every_section():
    for section in SECTIONS:
        labels = cell_labels(section)
        assert labels and labels[0] == "solo"
    with pytest.raises(KeyError):
        cell_labels("nope")
