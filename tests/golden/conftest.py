"""One run of each pinned experiment per session, shared by the golden
pins, the printed-tables check and the claims ledger.

The corpus runs under an inert ambient policy spec, so the pins double
as the control plane's no-regression contract: a disabled controller
must leave every experiment byte-identical to a build without it.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from repro.ctrl import PolicySpec
from repro.ctrl import active as policy_active
from repro.exp.golden import GOLDEN_EXPERIMENTS, HASHED_EXPERIMENTS
from repro.exp.jobs import run_experiments


def _run_under_inert_policy(names):
    """Serial, cache-free run with the inert policy spec armed: the
    values and what the run printed."""
    tables = io.StringIO()
    with policy_active(PolicySpec.from_spec("none")):
        with redirect_stdout(tables):
            outcome = run_experiments(list(names), jobs=1,
                                      cache=None, root_seed=0)
    assert not outcome.failed, "experiment job failed; see job results"
    # Round-trip through JSON so float/tuple representations match the
    # files exactly.
    values = {
        name: json.loads(json.dumps(value, sort_keys=True))
        for name, value in outcome.values.items()
    }
    return values, tables.getvalue()


@pytest.fixture(scope="session")
def golden_run():
    """One serial, cache-free run of all JSON-pinned experiments."""
    return _run_under_inert_policy(GOLDEN_EXPERIMENTS)


@pytest.fixture(scope="session")
def fresh_values(golden_run):
    """The values of that run."""
    return golden_run[0]


@pytest.fixture(scope="session")
def fresh_tables(golden_run):
    """The tables that run printed."""
    return golden_run[1]


@pytest.fixture(scope="session")
def hashed_values(tmp_path_factory):
    """One run of the digest-pinned experiments, artifacts in a tmp cwd.

    E20-E23 write ``results/*`` artifacts as part of their assembly;
    running in a temporary directory keeps the checkout clean.
    """
    keep = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("golden-artifacts"))
    try:
        return _run_under_inert_policy(HASHED_EXPERIMENTS)[0]
    finally:
        os.chdir(keep)
