"""Query handles exchanged between the engine and a database server."""

from __future__ import annotations

from typing import Callable

__all__ = ["QueryHandle", "CompletionCallback"]

#: ``on_complete(processed_units, completed)`` — *completed* is False when
#: the query was cancelled; *processed_units* counts the units of
#: processing the database actually performed either way.
CompletionCallback = Callable[[int, bool], None]


class QueryHandle:
    """One query dispatched to a database server.

    Cancellation is cooperative and takes effect at the next unit boundary:
    the unit currently in service (or already queued at a resource) still
    completes and counts as work — you cannot un-spend database resources.

    The per-unit kernels advance :attr:`processed` one unit event at a
    time.  The coalesced kernels instead keep an analytic plan on the
    handle — :attr:`units_done` boundaries already passed, the absolute
    end time :attr:`unit_end` of the unit now in service, and the
    :attr:`unit_time` every later unit will take — and only materialize
    :attr:`processed` when the single completion event fires.  (The
    profiled server holds that rate once, server-wide, for every query
    still open to re-pricing; a handle's own copy counts from the moment
    a cancel request pins it.)
    """

    #: shared-wait placeholders set this False so the scheduler's
    #: %Permitted cut ignores them; real queries occupy a slot.
    counts_for_parallelism = True

    __slots__ = (
        "query_id",
        "cost",
        "processed",
        "finished",
        "cancel_requested",
        "submit_time",
        "failed",
        "units_done",
        "unit_end",
        "unit_time",
        "cancel_units",
        "_event",
        "_cancel_hook",
    )

    def __init__(self, query_id: int, cost: int, submit_time: float):
        self.query_id = query_id
        self.cost = cost
        self.processed = 0
        self.finished = False
        self.cancel_requested = False
        self.submit_time = submit_time
        #: set by the database when the query errored after doing its work
        #: (failure injection: "if a database is down")
        self.failed = False
        #: coalesced-kernel plan (unused by the per-unit kernels)
        self.units_done = 0
        self.unit_end: float | None = None
        self.unit_time: float | None = None
        #: units a planned cancellation will have consumed when it lands
        self.cancel_units: int | None = None
        self._event = None
        self._cancel_hook: Callable[[], None] | None = None

    def cancel(self) -> None:
        """Request cancellation (no-op if already finished or requested)."""
        if self.finished or self.cancel_requested:
            return
        self.cancel_requested = True
        if self._cancel_hook is not None:
            self._cancel_hook()

    def __repr__(self) -> str:
        status = "done" if self.finished else ("cancelling" if self.cancel_requested else "running")
        return f"<QueryHandle #{self.query_id} {self.processed}/{self.cost}u {status}>"
