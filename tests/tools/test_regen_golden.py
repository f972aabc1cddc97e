"""tools/regen_golden.py refuses to pin a golden that breaks a claim."""

import importlib.util
import json
import pathlib

from repro.exp.jobs import RunOutcome

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
GOLDEN_E1 = json.loads((REPO / "tests" / "golden" / "e1.json").read_text())


def _regen_e1(value, tmp_path, monkeypatch) -> int:
    """Run ``regen_golden.py e1`` into ``tmp_path`` as if the experiment
    had returned ``value``."""
    spec = importlib.util.spec_from_file_location(
        "regen_golden", REPO / "tools" / "regen_golden.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    monkeypatch.setattr(regen, "REPO", tmp_path)
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen, "run_experiments",
                        lambda names, **kw: RunOutcome(values={"e1": value}))
    return regen.main(["e1"])


def test_regen_writes_only_goldens_that_keep_every_claim(
        tmp_path, monkeypatch, capsys):
    slow_eci = json.loads(json.dumps(GOLDEN_E1))
    slow_eci[0]["round_trip_ns"] = 3579.0       # ECI with a 5x slower link
    assert _regen_e1(slow_eci, tmp_path, monkeypatch) == 1
    assert not (tmp_path / "e1.json").exists()
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "claim fails" in line] == [
        "claim fails: e1.eci_beats_same_machine_dma",
        "claim fails: e1.eci_round_trip_under_1500ns",
        "claim fails: e1.eci_competes_with_modern_dma"]

    assert _regen_e1(GOLDEN_E1, tmp_path, monkeypatch) == 0
    assert json.loads((tmp_path / "e1.json").read_text()) == GOLDEN_E1
