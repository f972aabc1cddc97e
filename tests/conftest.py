"""Shared fixture: a smoke-sized sweep run through the one runner."""

import io
from contextlib import redirect_stdout

import pytest

from repro.exp.jobs import run_experiments


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """``run(name)`` -> (value, directory) of the session's one
    ``smoke=True`` run of ``name``, made in a fresh directory so its
    artifact lands under that directory's ``results/``."""
    runs = {}

    def run(name: str):
        if name not in runs:
            root = tmp_path_factory.mktemp(name)
            with pytest.MonkeyPatch.context() as patch, \
                    redirect_stdout(io.StringIO()):
                patch.chdir(root)
                outcome = run_experiments([name], smoke=True)
            assert not outcome.failed, outcome.values[name]
            runs[name] = outcome.values[name], root
        return runs[name]

    return run
