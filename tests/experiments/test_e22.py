"""E22: the smoke tournament, its artifact, and the claims' teeth."""

import copy
import json

import pytest

from repro.exp.claims import CLAIMS, check, failures
from repro.experiments.e22_control import (
    CONTROL_ARTIFACT,
    POLICY_SPECS,
    ControlCell,
    measure_adaptive_mix,
    render_control,
    write_control_artifact,
)


@pytest.fixture(scope="module")
def smoke(smoke_run):
    """One CI-sized run: lauberhorn under the storm plan, every policy."""
    value, root = smoke_run("e22")
    cells = [ControlCell(**cell) for cell in value["cells"]]
    return cells, root / CONTROL_ARTIFACT


@pytest.fixture
def value(smoke_run):
    """A private copy of the smoke run's value, to break."""
    return copy.deepcopy(smoke_run("e22")[0])


def test_smoke_covers_every_policy(smoke):
    cells, _path = smoke
    assert [cell.policy for cell in cells] == list(POLICY_SPECS)
    assert all(cell.stack == "lauberhorn" for cell in cells)
    assert all(cell.completed > 0 for cell in cells)


def test_smoke_artifact_validates(smoke, capsys):
    cells, path = smoke
    payload = write_control_artifact(cells, None, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "e22"
    render_control(cells)  # the table renders without the adaptive block
    assert "policy tournament" in capsys.readouterr().out


def test_validation_rejects_an_idle_active_cell(value):
    assert failures({"e22": value}) == []
    for cell in value["cells"]:
        if cell["policy"] != "none":
            cell["epochs"] = 0
    assert failures({"e22": value}) == ["e22.active_policy_reaches_an_epoch"]


def test_validation_requires_full_coverage_when_complete(value):
    # The smoke run skips the adaptive mix, so the mix's claims select
    # nothing there: only the full, digest-pinned run speaks for them.
    assert value["adaptive"] is None
    by_id = {claim.id: claim for claim in CLAIMS}
    for claim_id in ("e22.adaptive_mix_runs_every_epoch",
                     "e22.greedy_chooser_explores_every_stack"):
        assert check(by_id[claim_id], value) == (0, [])


def test_adaptive_mix_explores_then_settles():
    mix = measure_adaptive_mix()
    adaptive = mix["adaptive"]
    stacks_tried = {record["stack"] for record in adaptive["epochs"]}
    assert stacks_tried == {"linux", "snap", "bypass", "lauberhorn"}
    assert adaptive["migrations"] >= 3  # the exploration epochs
    assert adaptive["completed"] > 0
    # The sticky baselines never move.
    for stack, entry in mix["baselines"].items():
        assert entry["migrations"] == 0
        assert entry["final_stack"] == stack
