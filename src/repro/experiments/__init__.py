"""Experiment harness (S14): testbeds and one module per paper artifact.

The individual experiments (E1-E25) live in their own modules; each
declares its points once, as a ``GRID`` (:mod:`repro.experiments.grid`):
point functions return records and print nothing, and the grid's
``assemble`` prints the tables through the module's ``render_*``
functions.  :data:`repro.exp.jobs.EXPERIMENT_SPECS` indexes the grids.
Run them through :func:`repro.exp.run_experiments` or ``run_all``;
importing this package stays light (testbeds only).
"""

from .testbed import (
    SERVER_IP,
    SERVER_MAC,
    Testbed,
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
)

__all__ = [
    "SERVER_IP",
    "SERVER_MAC",
    "Testbed",
    "build_bypass_testbed",
    "build_lauberhorn_testbed",
    "build_linux_testbed",
]
