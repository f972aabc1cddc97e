"""E25: the SLO smoke run replays its pinned artifact digest."""

import json
from pathlib import Path

import pytest

from repro.exp.golden import golden_digest
from repro.experiments.e25_slo import SLO_ARTIFACT, SloCell, write_slo_artifact

HASHES = Path(__file__).parents[1] / "golden" / "hashes.json"


@pytest.fixture(scope="module")
def payload(smoke_run):
    """The CI-sized run (tight calm + storm pair), as its artifact."""
    value, root = smoke_run("e25")
    cells = [SloCell(**cell) for cell in value]
    return write_slo_artifact(cells, str(root / SLO_ARTIFACT))


def test_smoke_artifact_matches_digest_pin(payload):
    pin = json.loads(HASHES.read_text())["e25_smoke"]
    assert golden_digest(payload) == pin, (
        "E25 smoke artifact drifted from its pin; if intended, re-pin with "
        "`python tools/regen_golden.py --hashes`")
