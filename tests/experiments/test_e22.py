"""E22: the smoke tournament, artifact schema, and validation teeth."""

import copy
import json

import pytest

from repro.experiments.e22_control import (
    CONTROL_ARTIFACT,
    POLICY_SPECS,
    ControlCell,
    measure_adaptive_mix,
    render_control,
    validate_control_payload,
    write_control_artifact,
)


@pytest.fixture(scope="module")
def smoke(smoke_run):
    """One CI-sized run: lauberhorn under the storm plan, every policy."""
    value, root = smoke_run("e22")
    cells = [ControlCell(**cell) for cell in value["cells"]]
    return cells, root / CONTROL_ARTIFACT


def test_smoke_covers_every_policy(smoke):
    cells, _path = smoke
    assert [cell.policy for cell in cells] == list(POLICY_SPECS)
    assert all(cell.stack == "lauberhorn" for cell in cells)
    assert all(cell.completed > 0 for cell in cells)


def test_smoke_artifact_validates(smoke, capsys):
    cells, path = smoke
    payload = write_control_artifact(cells, None, str(path))
    validate_control_payload(payload, complete=False)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "e22"
    render_control(cells)  # the table renders without the adaptive block
    assert "policy tournament" in capsys.readouterr().out


def test_validation_rejects_a_non_identical_inert_cell(smoke):
    cells, path = smoke
    payload = write_control_artifact(cells, None, str(path))
    broken = copy.deepcopy(payload)
    for cell in broken["cells"]:
        if cell["policy"] == "none":
            cell["identical"] = False
    with pytest.raises(ValueError, match="not byte-identical"):
        validate_control_payload(broken, complete=False)


def test_validation_rejects_an_idle_active_cell(smoke):
    cells, path = smoke
    payload = write_control_artifact(cells, None, str(path))
    broken = copy.deepcopy(payload)
    for cell in broken["cells"]:
        if cell["policy"] != "none":
            cell["epochs"] = 0
    with pytest.raises(ValueError, match="never reached an epoch"):
        validate_control_payload(broken, complete=False)


def test_validation_requires_full_coverage_when_complete(smoke):
    cells, _path = smoke
    payload = {
        "experiment": "e22",
        "cells": [json.loads(json.dumps(cell.__dict__, default=str))
                  for cell in cells],
        "adaptive": None,
    }
    with pytest.raises(ValueError, match="missing"):
        validate_control_payload(payload, complete=True)


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
