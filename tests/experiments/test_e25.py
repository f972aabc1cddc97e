"""E25: the SLO smoke run replays its pinned artifact digest."""

import json
from pathlib import Path

import pytest

from repro.exp.golden import golden_digest
from repro.experiments.e25_slo import run_slo, write_slo_artifact

HASHES = Path(__file__).parents[1] / "golden" / "hashes.json"


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """The CI-sized run (tight calm + storm pair), as its artifact."""
    cells = run_slo(verbose=False, smoke=True)
    path = tmp_path_factory.mktemp("e25") / "e25_slo.json"
    return write_slo_artifact(cells, str(path))


def test_smoke_artifact_matches_digest_pin(payload):
    pin = json.loads(HASHES.read_text())["e25_smoke"]
    assert golden_digest(payload) == pin, (
        "E25 smoke artifact drifted from its pin; if intended, re-pin with "
        "`python tools/regen_golden.py --hashes`")
