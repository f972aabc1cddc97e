"""Golden regression corpus: E1-E23 at the default seed, frozen.

Every deterministic experiment's structured results are pinned:
E1-E18 as full JSON under ``tests/golden/<name>.json``, E19-E23 (whose
payloads are large) as SHA-256 digests in ``tests/golden/hashes.json``.
With E24 in the tree, these pins are also the tenancy layer's
no-regression contract: a build with :mod:`repro.tenancy` present but
unconfigured must reproduce every historical experiment byte for byte.
Any code change that shifts any number in any table fails here with a
readable per-path diff — which is the point: behaviour changes must be
*intentional*, reviewed via ``make regen-golden`` and a git diff.

The experiments run once per session (``conftest.py``), under an
inert ambient policy spec, and ``test_claims.py`` reads the same runs.
"""

import json
import pathlib
import re

import pytest

from repro.exp.golden import (GOLDEN_EXPERIMENTS, HASHED_EXPERIMENTS,
                              golden_digest)

GOLDEN_DIR = pathlib.Path(__file__).parent

_MAX_DIFFS_SHOWN = 12
#: what ``repro.exp.pool.jsonable`` emits for a value it cannot serialise
_REPR_FALLBACK = re.compile(r"^<[\w.]+ object>$")


def _diff_paths(expected, actual, path="", out=None):
    """Collect human-readable 'path: expected != actual' lines."""
    if out is None:
        out = []
    if len(out) >= _MAX_DIFFS_SHOWN:
        return out
    if type(expected) is not type(actual):
        out.append(f"{path or '<root>'}: type {type(expected).__name__} "
                   f"-> {type(actual).__name__}")
    elif isinstance(expected, dict):
        for key in expected.keys() | actual.keys():
            if key not in actual:
                out.append(f"{path}.{key}: missing from new results")
            elif key not in expected:
                out.append(f"{path}.{key}: new key (not in golden)")
            else:
                _diff_paths(expected[key], actual[key], f"{path}.{key}", out)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} -> {len(actual)}")
        for index, (e, a) in enumerate(zip(expected, actual)):
            _diff_paths(e, a, f"{path}[{index}]", out)
    elif expected != actual:
        out.append(f"{path or '<root>'}: {expected!r} -> {actual!r}")
    return out


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_experiment_matches_golden(name, fresh_values):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"{path} missing — run `make regen-golden` to create the corpus"
    )
    golden = json.loads(path.read_text())
    actual = fresh_values[name]
    if golden == actual:
        return
    diffs = _diff_paths(golden, actual)
    shown = "\n".join(f"  {line}" for line in diffs[:_MAX_DIFFS_SHOWN])
    pytest.fail(
        f"{name} results diverged from tests/golden/{name}.json "
        f"({len(diffs)}+ difference(s)):\n{shown}\n"
        "If this change is intentional, regenerate with `make regen-golden` "
        "and review the JSON diff."
    )


def _repr_fallbacks(value, path=""):
    """Paths under ``value`` holding a ``jsonable`` repr placeholder."""
    if isinstance(value, dict):
        return [hit for key, item in value.items()
                for hit in _repr_fallbacks(item, f"{path}.{key}")]
    if isinstance(value, list):
        return [hit for index, item in enumerate(value)
                for hit in _repr_fallbacks(item, f"{path}[{index}]")]
    if isinstance(value, str) and _REPR_FALLBACK.match(value):
        return [f"{path or '<root>'}: {value}"]
    return []


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_golden_pins_values_not_reprs(name, fresh_values):
    """A result ``jsonable`` could only ``repr`` pins nothing: its golden
    would match any run.  Experiments must return plain data."""
    hits = _repr_fallbacks(fresh_values[name])
    assert not hits, (
        f"{name} returns objects that serialise as a bare repr:\n  "
        + "\n  ".join(hits)
    )


@pytest.mark.parametrize("name", HASHED_EXPERIMENTS)
def test_experiment_matches_hash_pin(name, hashed_values):
    path = GOLDEN_DIR / "hashes.json"
    assert path.exists(), (
        f"{path} missing — run `python tools/regen_golden.py --hashes`"
    )
    pins = json.loads(path.read_text())
    assert name in pins, (
        f"{name} has no pin in tests/golden/hashes.json — regenerate with "
        "`python tools/regen_golden.py --hashes`"
    )
    actual = golden_digest(hashed_values[name])
    if actual != pins[name]:
        pytest.fail(
            f"{name} results diverged from the pinned digest "
            f"({pins[name][:12]}… -> {actual[:12]}…).\n"
            "Digest-pinned experiments have no per-path diff; rerun the "
            "experiment to inspect, and if the change is intentional "
            "regenerate with `python tools/regen_golden.py --hashes`."
        )
