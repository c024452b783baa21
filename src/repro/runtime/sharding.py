"""ShardedDecisionService: one facade, N independent engine + DES shards.

The paper's optimizations are per-instance, which makes instance
populations embarrassingly partitionable: nothing couples two instances
except the database they happen to share.  This module exploits that.  A
:class:`ShardedDecisionService` presents the
:class:`~repro.api.service.DecisionService` facade — it shares its front
(config coercion, ``submit_stream``, ``run_closed``'s checks, handles,
observer hooks, trace export) — but hash-partitions instances across
``config.shards`` shards, each owning an independent engine (reference
or batched), DES calendar, and database replica built from the backend
registry.

Routing is by a *stable* hash (CRC-32 of the instance id), so the same
workload lands on the same shards in every process on every run, and a
handle's shard is a pure function of its id.  Shards share no result
reuse: each shard's query cache and memo tiers are its only cache.

The fleet is this one class over a transport.  It buffers submissions
as per-shard ops, and every ``run()`` sends each shard its new ops in
one ``run`` frame to the worker's shard state; ``config.executor`` picks
the transport (:mod:`repro.runtime.executors`): ``"serial"`` calls every
shard in-process, ``"process"`` keeps one long-lived worker process per
shard and streams the frames over a pipe via :mod:`repro.core.serialize`.
Each reply (a :class:`~repro.runtime.worker.ShardOutcome`) is the
shard's state between rounds — shards idle between rounds, so the last
outcomes are exact and reading them costs no round-trip.  The fleet
holds one :class:`~repro.runtime.worker.InstanceRecord` per instance,
by id in submission order, and writes each reported record into it in
place; its handles (:class:`~repro.api.service.InstanceHandle`, the one
handle class) read that record, and the fleet keeps none of them.  A
shard reports an instance every round until it is *settled* (done,
nothing in flight) and lets go of it in the round that reports it so:
the fleet folds its metrics into the finished aggregate in that round,
its record is the only copy from then on, and only a settled record can
be released.

Determinism and equivalence guarantees:

* Any sharded run is exactly reproducible, and the process transport
  reproduces the serial one's results shard for shard (each worker
  replays the same ops on the same substrate at the same round
  boundaries).
* With one shard, results are identical to a plain ``DecisionService`` —
  bit for bit, including event order, and across ``run(until=...)``
  pauses (a straggler's units reach its handle and the summary).
* With N shards, per-instance results are identical to a single service
  whenever instances do not interact through the database: always on the
  ideal backend (unbounded resources), and on any backend while arrivals
  do not overlap.  Under overlap on a contended backend, sharding *is*
  the point — N replicas replace one shared server, so response times
  (and contention-dependent scheduling) legitimately differ.

Cross-shard aggregation reads each shard's last outcome: ``summary()``
is the finished aggregate (each round adds its settled instances, an
exact sum), plus the done-but-unsettled records, plus the shards' service
counters summed: one ``summarize`` over those instances, whatever the rounds;
``stats()`` is each outcome's :class:`~repro.runtime.worker.ShardStats`.
A fleet's handles and observers update once per round: after every round
the round's events reach each handler in :func:`merge_shard_events`
order (time, then shard, then in-shard order).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Callable, Mapping, Sequence
from zlib import crc32

from repro.api import counters as table
from repro.api.backends import Backend
from repro.api.config import ExecutionConfig
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.api.service import DecisionService, InstanceHandle, _ServiceFront, coerce_config
from repro.core.conditions import UNRESOLVED
from repro.core.engine import check_start_time, claim_instance_id, next_instance_ids
from repro.core.metrics import InstanceMetrics, MetricsSummary, summarize
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.obs import MetricsRegistry
from repro.runtime.executors import EXECUTOR_CLASSES
from repro.runtime.worker import InstanceRecord, ShardOutcome, ShardStats
from repro.simdb.des import check_until

__all__ = [
    "ShardedDecisionService",
    "ShardedInstanceHandle",
    "ShardStats",
    "shard_of",
    "merge_shard_events",
    "create_service",
]


def shard_of(instance_id: str, shards: int) -> int:
    """The home shard of an instance id.

    CRC-32 rather than ``hash()``: Python string hashing is salted per
    process, and routing must agree between the parent and its workers
    (and across runs) for results to be reproducible.
    """
    return crc32(instance_id.encode("utf-8")) % shards


def merge_shard_events(per_shard: Sequence[Sequence[object]]) -> list[object]:
    """Merge per-shard event sequences into the stable global order.

    Shard clocks are independent, so a total order is a convention: sort
    by event time, then shard index, then in-shard arrival order.  Within
    a shard the engine's deterministic sequence is preserved; across
    shards same-instant ties resolve by shard index.  Both transports
    produce the same merged stream for the same workload.
    """
    entries = [
        (event.time, shard, index, event)
        for shard, events in enumerate(per_shard)
        for index, event in enumerate(events or ())
    ]
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]


#: The one handle class, under the name a fleet's handles once had.
ShardedInstanceHandle = InstanceHandle


class ShardedDecisionService(_ServiceFront):
    """Execute decision-flow instances across hash-partitioned shards.

    Accepts the same ``config`` spellings as
    :class:`~repro.api.service.DecisionService` (an
    :class:`~repro.api.config.ExecutionConfig`, a
    :class:`~repro.core.strategy.Strategy`, or a code string);
    ``config.shards`` sets the shard count and ``config.executor`` picks
    the transport.  ``backend`` must be a registered backend *name* —
    every shard builds a fresh replica from the registry, so a pre-built
    :class:`~repro.api.backends.Backend` cannot be shared.

    Handlers may subscribe at any point: each round's events reach them
    once its shards return, in merged order, from the next round on.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None = None,
        *,
        backend: str | None = None,
        **backend_options: Any,
    ):
        if isinstance(backend, Backend):
            raise TypeError(
                "a sharded service builds one fresh backend per shard from the "
                "registry; pass a registered backend name, not a pre-built Backend"
            )
        super().__init__(schema, config, backend, backend_options)
        self.shards = self.config.shards
        #: each shard's last reply; idle until the first round
        self.outcomes = [ShardOutcome.idle(shard) for shard in range(self.shards)]
        #: the fleet's settled instances, released ones included: each
        #: round folds in the records that settled in it, and only those
        self.finished = MetricsSummary()
        self._ops: list[list[tuple]] = [[] for _ in range(self.shards)]
        #: the record of every instance held, by id in submission order: a
        #: round writes its shard's report into it in place, and its keys
        #: are the ids claimed until released
        self._records: dict[str, InstanceRecord] = {}
        #: each attribute's index in a record's values, in ``schema.names`` order
        self._slots = {name: index for index, name in enumerate(self.schema.names)}
        self._transport = None  # built at the first submission
        self._closed = False
        self._id_next = 1  # the number the next generated id tries first

    # -- id allocation and routing --------------------------------------------

    def _claim_id(self, instance_id: str | None, drawn: itertools.count | None) -> str:
        return claim_instance_id(
            instance_id, self.schema.name, drawn, self._records, scope="service"
        )

    def shard_of(self, instance_id: str) -> int:
        """Which shard an instance id routes to: its stable CRC-32 home."""
        return shard_of(instance_id, self.shards)

    def _start(self):
        """The transport, built at the first submission."""
        if self._closed:
            raise ExecutionError(
                f"the {self.config.executor} executor is closed; "
                "its shard workers have shut down"
            )
        if self._transport is None:
            self._transport = EXECUTOR_CLASSES[self.config.executor](
                self.schema, self.config, self.shards
            )
        return self._transport

    def _register(self, instance_id: str, sources: Mapping[str, object] | None) -> InstanceHandle:
        """Hold a source-only record for a claimed id: its sources, which
        are stable from submission, and no metrics until its first round."""
        values = [UNRESOLVED] * len(self._slots)
        if sources:
            for name in self.schema.source_names:
                values[self._slots[name]] = sources[name]
        record = InstanceRecord(instance_id, False, False, tuple(values), None)
        self._records[instance_id] = record
        return InstanceHandle(self, record)

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        source_values: Mapping[str, object] | None = None,
        *,
        at: float | None = None,
        instance_id: str | None = None,
    ) -> InstanceHandle:
        """Submit one instance to its home shard.

        The engine's own submit-time checks run here, so a refused
        submission (a past or non-finite start, a missing source value)
        raises now, on either transport, before its id is claimed.
        """
        # a generated id is drawn from a copy of the counter, which moves
        # only once the submission is accepted
        drawn = itertools.count(self._id_next) if instance_id is None else None
        instance_id = self._claim_id(instance_id, drawn)
        shard = shard_of(instance_id, self.shards)
        if at is not None:
            check_start_time(instance_id, at, self.outcomes[shard].stats.end_time)
        self.schema.check_sources(source_values or {})
        self._start()
        # a copy, as buffered: mutations after submit must not leak into the run
        sources = None if source_values is None else dict(source_values)
        self._ops[shard].append(("submit", instance_id, sources, at))
        if drawn is not None:
            self._id_next = next(drawn)
        return self._register(instance_id, sources)

    def run_closed(
        self,
        n: int,
        *,
        concurrency: int = 1,
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
    ) -> list[InstanceHandle]:
        """Closed-system helper: per-shard closed loops, then drain.

        Ids are allocated globally and hash-routed; each shard with work
        runs its own closed loop over its share of the *n* instances.
        *concurrency* splits as evenly as possible across the busy shards
        with every busy shard keeping at least one instance in flight —
        so when ``concurrency < shards`` the global in-flight population
        can exceed *concurrency* (shard clocks are independent; a global
        bound would serialize the fleet).  Every valuation is checked
        first: one that misses a source raises, naming its index, and
        nothing runs.
        """
        valuations = self._closed_valuations(n, concurrency, values)
        self._start()
        per_shard: list[tuple[list, list]] = [([], []) for _ in range(self.shards)]
        handles = []
        drawn = itertools.count(self._id_next)
        for source_values in valuations:
            instance_id = self._claim_id(None, drawn)
            shard = shard_of(instance_id, self.shards)
            sources = None if source_values is None else dict(source_values)
            per_shard[shard][0].append(instance_id)
            per_shard[shard][1].append(sources)
            handles.append(self._register(instance_id, sources))
        self._id_next = next(drawn)
        active = [shard for shard in range(self.shards) if per_shard[shard][0]]
        for share, shard in zip(_split_concurrency(concurrency, len(active)), active):
            self._ops[shard].append(("closed", *per_shard[shard], share))
        self.run()
        return handles

    def _stream_starts(self, n: int) -> list[tuple[str, float]]:
        """The ids the next *n* submissions get, each with the clock its
        start is checked against: its home shard's."""
        ids = next_instance_ids(self.schema.name, self._id_next, self._records, n)
        clocks = [outcome.stats.end_time for outcome in self.outcomes]
        return [(instance_id, clocks[shard_of(instance_id, self.shards)]) for instance_id in ids]

    # -- driving and reading --------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Drive every shard one round: to *until*, or until its work drains.

        Each reply's records are written into the held records in place
        (what the handles read); then the round's events reach every
        handler, in :func:`merge_shard_events` order.
        A shard that raised is reported by its next round, and the first
        error raises once every reply has been read.  A non-finite *until*
        is refused before the round goes out.
        """
        check_until(until)
        if self._transport is None and not self._closed:
            return  # nothing was ever submitted: an idle fleet, nothing to start
        transport = self._start()
        ops, self._ops = self._ops, [[] for _ in range(self.shards)]
        dispatcher = self._dispatcher
        collect = dispatcher.has_listeners
        replies = transport.exchange(
            [("run", shard_ops, until, collect) for shard_ops in ops]
        )
        held, settled = self._records, []
        for shard, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                continue
            reports = reply.records
            for index, report in enumerate(reports):
                # the outcome keeps the held record, not a second copy of it
                reports[index] = record = held[report.instance_id]
                record.done, record.settled = report.done, report.settled
                record.values, record.metrics = report.values, report.metrics
                if report.settled:
                    settled.append(report.metrics)
            self.outcomes[shard] = reply
        if settled:
            self.finished = MetricsSummary.merge(self.finished, summarize(settled))
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        if collect:
            handlers = {
                LaunchEvent: dispatcher.launch_handlers,
                QueryDoneEvent: dispatcher.query_done_handlers,
                InstanceCompleteEvent: dispatcher.complete_handlers,
            }
            for event in merge_shard_events([outcome.events for outcome in self.outcomes]):
                for handler in handlers[type(event)]:
                    handler(event)

    @property
    def now(self) -> float:
        """The furthest shard clock."""
        return max(outcome.stats.end_time for outcome in self.outcomes)

    # -- what a handle reads: the fleet's record ------------------------------

    def _held(self):
        return self._records.values()

    @staticmethod
    def _metrics(record: InstanceRecord) -> InstanceMetrics:
        if record.metrics is None:
            raise ValueError(
                f"instance {record.instance_id} has no metrics yet: a sharded "
                "service materializes results when it runs"
            )
        return record.metrics

    @staticmethod
    def _instance(record: InstanceRecord):
        raise AttributeError(
            f"instance {record.instance_id} lives in its shard: a fleet handle "
            "reads the record its shard reported"
        )

    def _value(self, record: InstanceRecord, name: str) -> object:
        value = record.values[self._slots[name]]
        if value is UNRESOLVED:
            raise ValueError(f"attribute {name!r} is not stable")
        return value

    def _value_map(self, record: InstanceRecord) -> dict[str, object]:
        return {
            name: value
            for name, value in zip(self._slots, record.values)
            if value is not UNRESOLVED
        }

    def release_completed(self) -> tuple[InstanceHandle, ...]:
        """Let go of every settled instance; returns handles over them.

        The fleet's counterpart of
        :meth:`DecisionService.release_completed`: the parent drops its
        settled records, and with them their ids; the shards hold nothing
        to let go of, as each lets go of an instance in the round that
        reports it settled.  A done instance with a query still in flight
        is kept until its shard reports it settled.  :meth:`summary` keeps
        covering them, and a handle the caller still holds stays fully
        readable.  The released ids are free again at once (see
        :func:`~repro.core.engine.claim_instance_id`): their shards have
        already let go of them.
        """
        held = self._records
        released = tuple(InstanceHandle(self, r) for r in held.values() if r.settled)
        if released:
            # rebuilt, not emptied: a dict's table never shrinks on delete
            self._records = {i: r for i, r in held.items() if not r.settled}
        return released

    def _sums(self, rows) -> dict[str, int]:
        """The counter table's *rows* (folded ones), summed over the shards."""
        return {row.name: sum(o.counters[row.name] for o in self.outcomes) for row in rows}

    def summary(self) -> MetricsSummary:
        """Aggregate metrics over the fleet's finished instances, released
        or not, plus every shard's service counters, summed.

        Settled instances come from the running aggregate; a done one
        still waiting on a straggler counts its last record at read time,
        as a plain service counts its live metrics.
        """
        unsettled = [r.metrics for r in self._records.values() if r.done and not r.settled]
        summary = self.finished
        if unsettled:
            summary = MetricsSummary.merge(summary, summarize(unsettled))
        return replace(summary, **self._sums(table.SUMMARY))

    def stats(self) -> tuple[ShardStats, ...]:
        """Per-shard population (held count included), database totals, and clocks."""
        return tuple(outcome.stats for outcome in self.outcomes)

    @property
    def total_units(self) -> int:
        """Units of processing performed across every shard's database."""
        return sum(outcome.stats.total_units for outcome in self.outcomes)

    def mean_gmpl(self) -> float:
        """Mean multiprogramming level across shards, weighted by shard time.

        Each shard's Gmpl is averaged over its own clock; the fleet-level
        figure weights shards by how long they ran.
        """
        stats = self.stats()
        total_time = sum(s.end_time for s in stats)
        if total_time <= 0:
            return 0.0
        return sum(s.mean_gmpl * s.end_time for s in stats) / total_time

    def time_unit(self) -> str | None:
        """How to read shard clocks (``"units"``/``"ms"``; None before the
        first round has built the shards' backends)."""
        units = (o.time_unit for o in self.outcomes if o.time_unit is not None)
        return next(units, None)

    def dispatch_stats(self) -> dict:
        """Fleet-level pooled-dispatch counters (summed across shards)."""
        return self._sums(table.DISPATCH)

    def counters(self) -> dict[str, int]:
        """The counts a fleet sums (:data:`repro.api.counters.FOLDED`),
        summed over its shards; the rest stay per shard, labelled, in
        :meth:`observability`."""
        return self._sums(table.FOLDED)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the fleet (shuts persistent shard workers down).

        Idempotent.  A closed service can still be read (summaries,
        handles, stats come from the last outcomes) but not driven further.
        """
        self._closed = True
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def worker_health(self) -> dict:
        """Transport liveness: per-worker alive flags for the process fleet.

        The daemon folds this into ``/healthz``; an in-process fleet is
        alive until closed.  Safe to call while another thread drives or
        closes the fleet.
        """
        transport = self._transport
        workers = [] if transport is None else transport.health()
        return {
            "executor": self.config.executor,
            "spawned": bool(workers),
            "alive": not self._closed and all(worker["alive"] for worker in workers),
            "workers": workers,
        }

    # -- observability (repro.obs) --------------------------------------------

    def observability(self) -> dict:
        """Shard registry snapshots merged into one, labelled ``shard=<n>``.

        Counters and histograms add across shards; gauges stay per-shard
        (each entry keeps its shard label), since summing shard clocks or
        Gmpl figures would be meaningless.  Shards ship their snapshots
        inside :class:`ShardOutcome`, exactly like their metrics.
        """
        if not self.config.observe:
            return {"enabled": False, "counters": [], "gauges": [], "histograms": []}
        merged = MetricsRegistry()
        for outcome in self.outcomes:
            snapshot = outcome.obs
            if snapshot and snapshot.get("enabled"):
                merged.merge_snapshot(snapshot, extra_labels={"shard": outcome.stats.shard})
        return merged.snapshot()

    def trace_groups(self) -> list[tuple[int, str, list]]:
        """Chrome-trace lanes: one process lane per shard."""
        return [
            (outcome.stats.shard, f"shard:{outcome.stats.shard}", outcome.trace or [])
            for outcome in self.outcomes
        ]

    def __repr__(self) -> str:
        # settled instances, released or not, are in the finished aggregate
        unsettled = [r for r in self._records.values() if not r.settled]
        settled = self.finished.count
        return (
            f"<ShardedDecisionService {self.schema.name!r} {self.config.code} "
            f"shards={self.shards} executor={self.config.executor!r} "
            f"backend={self.config.backend!r} instances="
            f"{settled + sum(r.done for r in unsettled)}/{settled + len(unsettled)} done>"
        )


def _split_concurrency(concurrency: int, active: int) -> list[int]:
    """Split a closed-loop concurrency bound across *active* shards.

    As even as possible, earlier shards take the remainder, and every
    active shard gets at least 1 (a shard with work must make progress).
    """
    if active == 0:
        return []
    base, extra = divmod(concurrency, active)
    return [max(1, base + (1 if index < extra else 0)) for index in range(active)]


def create_service(
    schema: DecisionFlowSchema,
    config: ExecutionConfig | Strategy | str | None = None,
    *,
    backend: Backend | str | None = None,
    **backend_options: Any,
) -> DecisionService | ShardedDecisionService:
    """The right facade for a config: plain service, or sharded fleet.

    A config asking for one serial shard is exactly a plain
    :class:`DecisionService`, so that is what it gets; anything else
    builds a :class:`ShardedDecisionService`.  The branch stays: a plain
    service's handles and observers are live inside a run (cohort
    fan-out consults its listeners, a wave step ends at one that
    schedules), a fleet's update once per round.
    """
    coerced = coerce_config(config)
    if coerced.shards == 1 and coerced.executor == "serial":
        return DecisionService(schema, coerced, backend=backend, **backend_options)
    return ShardedDecisionService(schema, coerced, backend=backend, **backend_options)
