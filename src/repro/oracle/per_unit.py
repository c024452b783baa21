"""The per-unit database kernels: test-only oracles of the coalesced ones.

Each walks a query one unit of processing at a time, one band-1 calendar
event per unit, the way the paper's CSIM model did.
:class:`~repro.simdb.database.IdealDatabase` and
:class:`~repro.simdb.database.ProfiledDatabase` replace that walk with one completion event
per query; the differential suites hold their traces to these.  No
product module imports the oracle package.
"""

from __future__ import annotations

from repro.simdb.database import DatabaseServer, _query_priority
from repro.simdb.des import Simulation
from repro.simdb.query import CompletionCallback, QueryHandle

__all__ = ["PerUnitIdealDatabase", "PerUnitProfiledDatabase"]


class PerUnitIdealDatabase(DatabaseServer):
    """:class:`~repro.simdb.database.IdealDatabase`, unit by unit: every
    unit is an event ``unit_duration`` after the last."""

    def __init__(
        self, sim: Simulation, unit_duration: float = 1.0, failure_prob: float = 0.0, seed: int = 0
    ):
        super().__init__(sim, failure_prob, seed)
        self.unit_duration = unit_duration

    def _start_unit(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        self.sim.schedule(
            self.unit_duration,
            lambda: self._unit_finished(handle, on_complete),
            _query_priority(handle),
        )


class PerUnitProfiledDatabase(DatabaseServer):
    """:class:`~repro.simdb.database.ProfiledDatabase`, unit by unit: each
    unit takes ``Db(Gmpl)`` at the Gmpl current where it starts."""

    def __init__(self, sim: Simulation, db_function, failure_prob: float = 0.0, seed: int = 0):
        super().__init__(sim, failure_prob, seed)
        self.db_function = db_function

    def _start_unit(self, handle: QueryHandle, on_complete: CompletionCallback) -> None:
        self.sim.schedule(
            float(self.db_function(self._active)),
            lambda: self._unit_finished(handle, on_complete),
            _query_priority(handle),
        )
