"""Lockstep riders as rows of their cohort.

An arrival that would only ride a cohort (:mod:`repro.core.cohorts`) owns
nothing but its id and its start time: its decision is its
representative's.  The engine submits it as a :class:`Row` when it joins
the open arrival run right behind an arrival with the same typed start
key, passes no ``on_complete`` and no flow trace is on file for the key
(:meth:`BatchedEngine.submit_instance
<repro.core.batch_engine.BatchedEngine.submit_instance>`) — the arrivals
``Cohorts._riders`` takes.  A row links to one of three things in turn:

* its run's :class:`_Valuation` (the sources and start key the arrivals
  of one key share) until its run fires;
* its cohort's :class:`_Ride` once it rides: the representative, whose
  progress it reads while riding and whose end state it reads once
  finished, and the cohort's shared final record — a cohort finishes its
  rows in one step, not one by one;
* the :class:`BatchedInstance` built for it (:meth:`Row.materialize`)
  where it cannot ride, or stops riding: from then on it forwards every
  read there.

Rows read like instances: ``instance_id``, ``start_time``, ``done``,
``inflight``, ``booked``, ``metrics``, ``value``, ``value_map``,
``value_tuple``, ``cells`` and ``state_map``.
"""

from __future__ import annotations

from repro.core.batch_instance import (
    _NO_INFLIGHT,
    BatchedInstance,
    SharedMetrics,
    _Reads,
    copy_record,
    unstarted_view,
)
from repro.core.metrics import InstanceMetrics

__all__ = ["Row"]


class _Valuation:
    """The sources and start key that the rows behind one arrival share
    until their run fires (sources checked, in ``schema.source_names``
    order, never written: the first arrival's own copy)."""

    __slots__ = ("plan", "key", "sources")

    #: what a row not yet started reads
    done = False
    inflight = _NO_INFLIGHT

    def __init__(self, plan, key: tuple, sources: dict):
        self.plan, self.key, self.sources = plan, key, sources


class _Ride:
    """What the rows of one cohort read: the representative, and once the
    cohort has finished for them, ``done`` and the ``final`` record they
    share.  ``reads`` counts the rows holding a record of their own (read
    before they finished, or copied since): a finish fills those, and a
    straggle books on each.  Links to no row and to no cohort."""

    __slots__ = ("rep", "final", "done", "reads")

    inflight = _NO_INFLIGHT

    def __init__(self, rep: BatchedInstance):
        self.rep = rep
        self.final: SharedMetrics | None = None
        self.done = False
        self.reads = 0


class Row(_Reads):
    """A lockstep rider: an id, a start time, a link and, once read, a
    metrics record of its own (see the module docstring).

    A row that finished shares its cohort's final record until
    :attr:`metrics` is read, which gives it a private equal copy under
    its own id; a record read before it finished is its own, filled when
    it finishes.  One the cohort finishes member by member (someone
    listens) holds the shared record itself, or has its own filled.
    """

    __slots__ = ("instance_id", "start_time", "_link", "_metrics")

    def __init__(self, instance_id: str, start_time: float, valuation: _Valuation):
        self.instance_id = instance_id
        self.start_time = start_time
        self._link = valuation
        self._metrics: InstanceMetrics | None = None

    def materialize(self) -> BatchedInstance:
        """Build the instance this row stands for, from its valuation or,
        riding, from its representative's (never settled while it has
        members to leave); it takes the row's record, and the row
        forwards to it from now on."""
        link = self._link
        if type(link) is _Ride:
            rep = link.rep
            plan, sources, key = rep.plan, rep._sources, rep._start_key
        else:
            plan, sources, key = link.plan, link.sources, link.key
        instance = BatchedInstance(plan, self.instance_id, sources, key, self.start_time)
        instance._metrics, self._metrics = self._metrics, None
        self._link = instance
        return instance

    @property
    def materialized(self) -> BatchedInstance | None:
        """The instance built for this row, if it had to run for itself."""
        link = self._link
        return link if type(link) is BatchedInstance else None

    @property
    def _sources(self) -> dict | None:
        """Its sources while its run has not fired (None from then on)."""
        link = self._link
        return link.sources if type(link) is _Valuation else None

    @property
    def plan(self):
        link = self._link
        return link.rep.plan if type(link) is _Ride else link.plan

    @property
    def done(self) -> bool:
        link = self._link
        if link.done:
            return True
        if type(link) is _Ride:
            metrics = self._metrics  # finished member by member: filled, or the final
            return metrics is not None and metrics.finish_time is not None
        return False

    @property
    def inflight(self):
        return self._link.inflight

    @property
    def booked(self) -> InstanceMetrics | None:
        """Its record as it holds it, no copy made: its cohort's shared
        final record once it finished holding none of its own."""
        link = self._link
        if type(link) is BatchedInstance:
            return link.booked
        metrics = self._metrics
        if metrics is None and type(link) is _Ride and link.done:
            return link.final
        return metrics

    @property
    def metrics(self) -> InstanceMetrics:
        """Its record: one made now if it has none — a private copy of the
        shared final one once it finished, a live zero one before — and
        stable from then on."""
        link = self._link
        if type(link) is BatchedInstance:
            return link.metrics
        metrics = self._metrics
        if metrics is None or type(metrics) is SharedMetrics:
            if metrics is None and type(link) is _Ride and link.done:
                metrics = link.final
            if metrics is None:
                metrics = InstanceMetrics(self.instance_id, self.start_time)
            else:
                metrics = copy_record(self.instance_id, metrics)
            if type(link) is _Ride:
                link.reads += 1
            self._metrics = metrics
        return metrics

    def _view(self) -> tuple:
        link = self._link
        if type(link) is _Ride:
            return link.rep._view()
        if type(link) is BatchedInstance:
            return link._view()
        return unstarted_view(link.plan, link.sources)

    def value(self, name: str) -> object:
        link = self._link
        if type(link) is _Ride:
            return link.rep.value(name)
        if type(link) is BatchedInstance:
            return link.value(name)
        return _Reads.value(self, name)

    def __repr__(self) -> str:
        flag = " done" if self.done else ""
        return f"<Row {self.instance_id}{flag}>"
