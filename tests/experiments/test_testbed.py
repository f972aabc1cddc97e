"""Worker placement by ``deploy_service``, the one deployment recipe."""

import pytest

from repro.experiments.testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)

BUILDERS = {
    "linux": build_linux_testbed,
    "snap": build_bypass_testbed,
    "bypass": build_bypass_testbed,
    "lauberhorn": build_lauberhorn_testbed,
}


def _placement(stack, **deploy_kwargs):
    """Deploy one service on a fresh bed; ``{process name: pinned core}``."""
    bed = BUILDERS[stack]()
    deploy_service(bed, stack, **deploy_kwargs)
    return {
        process.name: [thread.pinned_core for thread in process.threads]
        for process in bed.kernel.processes
        if process.threads
    }


def test_linux_worker_is_left_to_the_scheduler_by_default():
    assert _placement("linux") == {"srv": [None]}


def test_linux_worker_pins_to_an_explicit_core():
    assert _placement("linux", core=2) == {"srv": [2]}


@pytest.mark.parametrize("stack, process", [("bypass", "pmd"),
                                            ("lauberhorn", "srv")])
def test_dedicated_worker_defaults_to_core_zero(stack, process):
    assert _placement(stack) == {process: [0]}
    assert _placement(stack, core=3) == {process: [3]}


def test_snap_puts_engine_on_core_and_worker_on_the_next():
    assert _placement("snap") == {"snap-engine": [0], "snap-worker": [1]}
    assert _placement("snap", core=2) == {"snap-engine": [2],
                                          "snap-worker": [3]}
