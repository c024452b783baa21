"""Arrivals as rows: an id and a start time until they run for themselves.

An arrival owns nothing but its id and its start time until something
has to run for it, and most never do: a lockstep rider's decision is its
cohort representative's (:mod:`repro.core.cohorts`), a flow replay's its
trace's (:mod:`repro.core.flow_memo`).  The engine submits every arrival
with a start key as a :class:`Row`
(:meth:`BatchedEngine.submit_instance
<repro.core.batch_engine.BatchedEngine.submit_instance>`), and its start
decides what it becomes.  A row links to one of four things in turn:

* its :class:`_Valuation` (the sources and start key that consecutive
  arrivals of one key share) until it starts;
* the :class:`~repro.core.flow_memo._FlowWave` it last ran, where it
  replays a trace on file: a cursor, from which it reads its trace's end
  state once done and its counters only when read — a replay that
  finished holding no record of its own holds its trace's shared final
  record for its instant;
* its cohort's :class:`_Ride` where it rides: the representative, whose
  progress it reads while riding and whose end state it reads once
  finished, and the cohort's shared final record — a cohort finishes its
  rows in one step, not one by one;
* the :class:`BatchedInstance` built for it (:meth:`Row.materialize`)
  where it runs for itself — a start of its own, a cohort
  representative, a dissolve, a replay that fell back: from then on it
  forwards every read there.

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
from repro.core.conditions import UNRESOLVED
from repro.core.flow_memo import _FlowWave
from repro.core.metrics import InstanceMetrics

__all__ = ["Row"]


class _Valuation:
    """The sources and start key that consecutive rows of one key share
    until they start (sources checked, in ``schema.source_names`` order,
    never written: the first arrival's own copy)."""

    __slots__ = ("plan", "key", "sources")

    #: what a row not yet started reads
    done = False
    inflight = _NO_INFLIGHT

    def __init__(self, plan, key: tuple, sources: dict):
        self.plan, self.key, self.sources = plan, key, sources

    def _view(self) -> tuple:
        return unstarted_view(self.plan, self.sources)


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
    """An arrival as an id, a start time, a link and, once read, a
    metrics record of its own (see the module docstring).

    A row that finished holding no record shares its cohort's or its
    trace's final record until :attr:`metrics` is read, which gives it a
    private equal copy under its own id; a record read before it
    finished is its own, booked as it runs and filled when it finishes.
    One the cohort finishes member by member (someone listens) holds the
    shared record itself, or has its own filled.
    """

    __slots__ = ("instance_id", "start_time", "_link", "_metrics")

    def __init__(self, instance_id: str, start_time: float, valuation: _Valuation):
        self.instance_id = instance_id
        self.start_time = start_time
        self._link = valuation
        self._metrics: InstanceMetrics | None = None

    def materialize(self) -> BatchedInstance:
        """Build the instance this row stands for, from its valuation, its
        trace's or, riding, its representative's (never settled while it
        has members to leave); it takes the row's record, and the row
        forwards to it from now on."""
        link = self._link
        if type(link) is _Ride:
            rep = link.rep
            plan, sources, key = rep.plan, rep._sources, rep._start_key
        elif type(link) is _FlowWave:
            trace = link.trace
            plan, sources, key = trace.plan, trace.sources, trace.key
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
        """Its sources until it starts (None from then on)."""
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
        """Its record as it holds it, no copy made: its cohort's or its
        trace's shared final record once it finished holding none of its
        own; a replay's made now if it holds none."""
        link = self._link
        if type(link) is BatchedInstance:
            return link.booked
        metrics = self._metrics
        if metrics is None:
            if type(link) is _Ride and link.done:
                return link.final
            if type(link) is _FlowWave:
                return self.metrics
        return metrics

    @property
    def metrics(self) -> InstanceMetrics:
        """Its record: one made now if it has none — a private copy of the
        shared final one once it finished, a replay's counters so far, a
        live zero one before — and stable from then on."""
        link = self._link
        if type(link) is BatchedInstance:
            return link.metrics
        metrics = self._metrics
        if metrics is None or type(metrics) is SharedMetrics:
            if metrics is None and type(link) is _Ride and link.done:
                metrics = link.final
            if metrics is None:
                metrics = InstanceMetrics(self.instance_id, self.start_time)
                if type(link) is _FlowWave:
                    link.book(metrics, self.start_time)
            else:
                metrics = copy_record(self.instance_id, metrics)
            if type(link) is _Ride:
                link.reads += 1
            self._metrics = metrics
        return metrics

    def _view(self) -> tuple:
        link = self._link
        return link.rep._view() if type(link) is _Ride else link._view()

    def value(self, name: str) -> object:
        link = self._link
        if type(link) is _Ride:
            return link.rep.value(name)
        if type(link) is BatchedInstance:
            return link.value(name)
        if type(link) is _FlowWave and link.done:
            trace = link.trace
            value = trace.sv[trace.plan.index[name]]
            if value is not UNRESOLVED:
                return value
        return _Reads.value(self, name)  # raises, naming the state, where not stable

    def __repr__(self) -> str:
        flag = " done" if self.done else ""
        return f"<Row {self.instance_id}{flag}>"
