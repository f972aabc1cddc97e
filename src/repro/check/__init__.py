"""Runtime invariant checks (see docs/faults.md).

Public surface::

    from repro.check import install_checks

    reg = install_checks(bed)
    reg.start(horizon_ns=HORIZON)
    bed.sim.run(until=HORIZON)
    reg.assert_clean()

``bed`` is a testbed or a fleet: either way every host gets the
per-host battery and every switch link gets packet conservation.
:func:`install_fleet_checks` adds the three fleet-wide checks
(fleet-summed conservation, flow order, replica ledger) on top.

Checks are recorded, not raised mid-run; :meth:`assert_clean` raises
:class:`InvariantViolation` with every recorded problem.  Nothing is
installed (and nothing costs anything) unless a harness opts in.
"""

from .fleet import install_fleet_checks
from .invariants import install_checks
from .registry import CheckRegistry, InvariantViolation, Violation
from .tenancy import install_tenancy_checks

__all__ = [
    "install_checks",
    "install_fleet_checks",
    "install_tenancy_checks",
    "CheckRegistry",
    "InvariantViolation",
    "Violation",
]
