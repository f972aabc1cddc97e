"""Shared fixture: a smoke-sized sweep run through the one runner."""

import io
from contextlib import redirect_stdout

import pytest

from repro.exp.jobs import run_experiments


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """``run(name)`` -> (value, directory) of one ``smoke=True`` run.

    The run happens in a fresh directory, so the artifact it writes
    lands under that directory's ``results/`` and not in the checkout.
    """

    def run(name: str):
        root = tmp_path_factory.mktemp(name)
        with pytest.MonkeyPatch.context() as patch, \
                redirect_stdout(io.StringIO()):
            patch.chdir(root)
            outcome = run_experiments([name], smoke=True)
        assert not outcome.failed, outcome.values[name]
        return outcome.values[name], root

    return run
