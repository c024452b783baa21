"""ShardedDecisionService: one facade, N independent engine + DES shards.

The paper's optimizations are per-instance, which makes instance
populations embarrassingly partitionable: nothing couples two instances
except the database they happen to share (and, optionally, result
sharing).  This module exploits that.  A :class:`ShardedDecisionService`
presents the :class:`~repro.api.service.DecisionService` facade — submit,
``submit_stream``, ``run_closed``, handles, summaries, observer hooks —
but hash-partitions instances across ``config.shards`` shards, each
owning an independent engine (reference or batched), DES calendar, and
database replica built from the backend registry.

Routing is by a *stable* hash (CRC-32 of the instance id), so the same
workload lands on the same shards in every process on every run, and a
handle's shard is a pure function of its id.  Shards share no result
reuse: each shard's query cache and memo tiers are its only cache.  A
shard is always the worker's shard state, driven by ``run`` frames; two
executors carry them (``config.executor``): ``"serial"`` calls every
shard in-process, while ``"process"`` keeps one long-lived worker process
per shard and streams the frames over a pipe via
:mod:`repro.core.serialize`.  Either way a handle resolves through the
record its shard reports, and everything above the transport — handles,
events, aggregation, release — is the same code.  Both executors are
fully incremental: submit → run → submit again works identically on
either.

Determinism and equivalence guarantees:

* Any sharded run is exactly reproducible, and the process executor
  reproduces the serial executor's results shard for shard (each worker
  replays the same ops on the same substrate at the same round
  boundaries).
* With one shard, results are identical to a plain ``DecisionService`` —
  bit for bit, including event order.
* With N shards, per-instance results are identical to a single service
  whenever instances do not interact through the database: always on the
  ideal backend (unbounded resources), and on any backend while arrivals
  do not overlap.  Under overlap on a contended backend, sharding *is*
  the point — N replicas replace one shared server, so response times
  (and contention-dependent scheduling) legitimately differ.

Cross-shard aggregation reads each shard's last
:class:`~repro.runtime.worker.ShardOutcome`: ``summary()`` is the
executor's running aggregate of the records that finished, one
:meth:`~repro.core.metrics.MetricsSummary.merge` per round, plus the
shards' service counters summed; ``stats()`` reports per-shard database
totals.  After every round the
round's events reach each handler in :func:`merge_shard_events` order
(time, then shard, then in-shard order); :meth:`attach_log` subscribes a
plain :class:`~repro.api.events.EventLog` like any other handler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping, Sequence
from zlib import crc32

from repro.api.backends import Backend
from repro.api.config import ExecutionConfig
from repro.api.events import EventLog, InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.api.service import DecisionService, coerce_config
from repro.core.engine import claim_instance_id
from repro.core.metrics import SERVICE_COUNTERS, InstanceMetrics, MetricsSummary
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.obs import MetricsRegistry, export_chrome_trace
from repro.runtime.executors import EXECUTOR_CLASSES
from repro.runtime.worker import InstanceRecord

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
    shards same-instant ties resolve by shard index.  Both executors
    produce the same merged stream for the same workload.
    """
    entries = [
        (event.time, shard, index, event)
        for shard, events in enumerate(per_shard)
        for index, event in enumerate(events or ())
    ]
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]


@dataclass(frozen=True)
class ShardStats:
    """One shard's aggregate state: population, work, and clock."""

    shard: int
    instances: int
    completed: int
    total_units: int
    queries_completed: int
    queries_cancelled: int
    queries_failed: int
    mean_gmpl: float
    end_time: float


class ShardedInstanceHandle:
    """A submitted instance in a sharded service: poll it, drive it, read it.

    Mirrors :class:`~repro.api.service.InstanceHandle`.  It resolves
    through the record its shard reports, so results materialize once
    the service has run — on either executor.  Until its first record
    arrives it answers its submitted sources, which are stable from
    submission, as a plain service's handle does; then it drops them.
    """

    __slots__ = ("_service", "_shard", "_instance_id", "_record", "_sources")

    def __init__(
        self,
        service: "ShardedDecisionService",
        shard: int,
        instance_id: str,
        sources: Mapping[str, object] | None = None,
    ):
        self._service = service
        self._shard = shard
        self._instance_id = instance_id
        self._record: InstanceRecord | None = None
        self._sources: dict[str, object] | None = (
            None
            if sources is None
            else {name: sources[name] for name in service.schema.source_names}
        )

    @property
    def instance_id(self) -> str:
        return self._instance_id

    @property
    def shard(self) -> int:
        """The shard this instance was routed to."""
        return self._shard

    def _resolve(self) -> InstanceRecord | None:
        # Re-fetch until the record reports done: a shard re-reports the
        # record of a still-running instance every round, so a cached
        # not-done record goes stale.
        record = self._record
        if record is None or not record.done:
            fetched = self._service._executor.record_for(self._instance_id)
            if fetched is not None:
                self._record, self._sources = fetched, None
        return self._record

    @property
    def done(self) -> bool:
        record = self._resolve()
        return record is not None and record.done

    @property
    def metrics(self) -> InstanceMetrics:
        record = self._resolve()
        if record is None:
            raise ValueError(
                f"instance {self._instance_id} has no metrics yet: a sharded "
                "service materializes results when it runs"
            )
        return record.metrics

    def value(self, name: str) -> object:
        """The value of one attribute, once stable.

        Raises :class:`KeyError` for a name the schema does not have and
        :class:`ValueError` while the attribute has no stable value in the
        shard's record (before it, only the sources have one): ⊥ is a
        decided value (a disabled attribute's), never a placeholder.
        """
        if name not in self._service.schema:
            raise KeyError(name)
        values = self._values()
        if name not in values:
            raise ValueError(f"attribute {name!r} is not stable")
        return values[name]

    def value_map(self) -> dict[str, object]:
        """Every stable attribute's value, as a fresh dict."""
        return dict(self._values())

    def _values(self) -> Mapping[str, object]:
        """The record's stable values, or the sources until it arrives."""
        record = self._resolve()
        if record is not None:
            return record.values
        return self._sources or {}

    def wait(self) -> InstanceMetrics:
        """Drive the owning shard until this instance finishes."""
        if not self.done:
            self._service.run()
        record = self._resolve()
        if record is None or not record.done:
            raise ExecutionError(
                f"instance {self._instance_id} stalled on shard {self._shard}"
            )
        return record.metrics

    def result(self) -> dict[str, object]:
        """The target attribute values, driving the shard if needed."""
        self.wait()
        record = self._resolve()
        return {
            name: record.values[name]
            for name in self._service.schema.target_names
            if name in record.values
        }

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return (
            f"<ShardedInstanceHandle {self._instance_id!r} "
            f"shard={self._shard} {state}>"
        )


class ShardedDecisionService:
    """Execute decision-flow instances across hash-partitioned shards.

    Accepts the same ``config`` spellings as
    :class:`~repro.api.service.DecisionService` (an
    :class:`~repro.api.config.ExecutionConfig`, a
    :class:`~repro.core.strategy.Strategy`, or a code string);
    ``config.shards`` sets the shard count and ``config.executor`` picks
    the drive mode.  ``backend`` must be a registered backend *name* —
    every shard builds a fresh replica from the registry, so a pre-built
    :class:`~repro.api.backends.Backend` cannot be shared.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None = None,
        *,
        backend: str | None = None,
        **backend_options: Any,
    ):
        config = coerce_config(config)
        if isinstance(backend, Backend):
            raise TypeError(
                "a sharded service builds one fresh backend per shard from the "
                "registry; pass a registered backend name, not a pre-built Backend"
            )
        if backend is not None:
            config = config.replace(backend=backend)
        if backend_options:
            merged = {**config.backend_options, **backend_options}
            config = config.replace(backend_options=merged)
        self.schema = schema
        self.config = config
        self.shards = config.shards
        self._executor = EXECUTOR_CLASSES[config.executor](schema, config, self.shards)
        self._handles: list[ShardedInstanceHandle] = []
        #: handles submitted since the last round: still answering their sources
        self._unrecorded: list[ShardedInstanceHandle] = []
        self._instance_ids: set[str] = set()
        self._id_seq = itertools.count(1)
        self._handlers: dict[str, list[Callable]] = {
            "launch": [],
            "query_done": [],
            "complete": [],
        }

    # -- id allocation and routing --------------------------------------------

    def _claim_id(self, instance_id: str | None) -> str:
        return claim_instance_id(
            instance_id, self.schema.name, self._id_seq, self._instance_ids,
            scope="service",
        )

    def shard_of(self, instance_id: str) -> int:
        """Which shard an instance id routes to: its stable CRC-32 home."""
        return shard_of(instance_id, self.shards)

    def _register(
        self, shard: int, instance_id: str, sources: Mapping[str, object] | None = None
    ) -> ShardedInstanceHandle:
        handle = ShardedInstanceHandle(self, shard, instance_id, sources)
        self._handles.append(handle)
        if sources is not None:
            self._unrecorded.append(handle)
        return handle

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        source_values: Mapping[str, object] | None = None,
        *,
        at: float | None = None,
        instance_id: str | None = None,
    ) -> ShardedInstanceHandle:
        """Submit one instance to its home shard."""
        instance_id = self._claim_id(instance_id)
        shard = shard_of(instance_id, self.shards)
        # A refused submission (a past start time, a missing source value)
        # raises before the id is recorded, so it does not burn the name.
        self._executor.submit(shard, instance_id, source_values, at)
        self._instance_ids.add(instance_id)
        return self._register(shard, instance_id, source_values or {})

    def submit_stream(
        self,
        arrivals: Iterable[float | tuple[float, Mapping[str, object]]],
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
        *,
        run: bool = True,
    ) -> list[ShardedInstanceHandle]:
        """Open-system helper; see :meth:`DecisionService.submit_stream`."""
        handles = []
        for index, arrival in enumerate(arrivals):
            if isinstance(arrival, tuple):
                at, source_values = arrival
            else:
                at = arrival
                source_values = values(index) if callable(values) else values
            handles.append(self.submit(source_values, at=at))
        if run:
            self.run()
        return handles

    def run_closed(
        self,
        n: int,
        *,
        concurrency: int = 1,
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
    ) -> list[ShardedInstanceHandle]:
        """Closed-system helper: per-shard closed loops, then drain.

        Ids are allocated globally and hash-routed; each shard with work
        runs its own closed loop over its share of the *n* instances.
        *concurrency* splits as evenly as possible across the busy shards
        with every busy shard keeping at least one instance in flight —
        so when ``concurrency < shards`` the global in-flight population
        can exceed *concurrency* (shard clocks are independent; a global
        bound would serialize the fleet).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        ids = []
        for _ in range(n):
            instance_id = self._claim_id(None)
            self._instance_ids.add(instance_id)
            ids.append(instance_id)
        values_list = [values(i) if callable(values) else values for i in range(n)]
        homes = [shard_of(instance_id, self.shards) for instance_id in ids]
        per_shard_ids: list[list[str]] = [[] for _ in range(self.shards)]
        per_shard_values: list[list[Mapping[str, object] | None]] = [
            [] for _ in range(self.shards)
        ]
        for instance_id, shard, source_values in zip(ids, homes, values_list):
            per_shard_ids[shard].append(instance_id)
            per_shard_values[shard].append(source_values)
        active = [s for s in range(self.shards) if per_shard_ids[s]]
        shares = _split_concurrency(concurrency, len(active))
        for share, shard in zip(shares, active):
            self._executor.start_closed(
                shard, per_shard_ids[shard], per_shard_values[shard], share
            )
        self.run()
        return [self._register(shard, instance_id) for instance_id, shard in zip(ids, homes)]

    # -- driving and reading --------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Drive every shard one round: to *until*, or until its work drains.

        Then the round's events reach every handler, in
        :func:`merge_shard_events` order.
        """
        handlers = self._handlers
        collect = any(handlers.values())
        self._executor.run(until, collect_events=collect)
        for handle in self._unrecorded:
            handle._resolve()  # its record is in: it lets go of its sources
        self._unrecorded = []
        if not collect:
            return
        dispatch = {
            LaunchEvent: handlers["launch"],
            QueryDoneEvent: handlers["query_done"],
            InstanceCompleteEvent: handlers["complete"],
        }
        per_shard = [outcome.events for outcome in self._executor.outcomes]
        for event in merge_shard_events(per_shard):
            for handler in dispatch.get(type(event), ()):
                handler(event)

    @property
    def now(self) -> float:
        """The furthest shard clock."""
        return max(outcome.end_time for outcome in self._executor.outcomes)

    @property
    def handles(self) -> tuple[ShardedInstanceHandle, ...]:
        """Every handle the service still tracks, in submission order.

        That is every handle it has issued, minus those
        :meth:`release_completed` let go.
        """
        return tuple(self._handles)

    @property
    def completed(self) -> tuple[ShardedInstanceHandle, ...]:
        """The finished handles among :attr:`handles` (released ones are gone)."""
        return tuple(h for h in self._handles if h.done)

    def release_completed(self) -> tuple[ShardedInstanceHandle, ...]:
        """Let go of every finished instance; returns the handles released.

        The fleet's counterpart of
        :meth:`DecisionService.release_completed`: the parent drops the
        finished handles and their records now, and each shard lets go of
        its own instances at the start of the next round (a ``release``
        flag on that round's frame, so no extra round-trip).
        :meth:`summary` keeps covering them, and a handle the caller still
        holds stays fully readable.
        """
        kept, released = [], []
        for handle in self._handles:
            (released if handle.done else kept).append(handle)
        if released:
            self._handles = kept
            self._executor.release(handle.instance_id for handle in released)
        return tuple(released)

    def summary(self) -> MetricsSummary:
        """Aggregate metrics over the fleet's finished instances, released
        or not, plus every shard's service counters, summed."""
        outcomes = self._executor.outcomes
        return replace(
            self._executor.finished,
            **{name: sum(o.counters[name] for o in outcomes) for name in SERVICE_COUNTERS},
        )

    def stats(self) -> tuple[ShardStats, ...]:
        """Per-shard population, database totals, and clock positions."""
        return tuple(
            ShardStats(
                shard=outcome.shard,
                instances=outcome.instances,
                completed=outcome.completed,
                total_units=outcome.total_units,
                queries_completed=outcome.queries_completed,
                queries_cancelled=outcome.queries_cancelled,
                queries_failed=outcome.queries_failed,
                mean_gmpl=outcome.mean_gmpl,
                end_time=outcome.end_time,
            )
            for outcome in self._executor.outcomes
        )

    @property
    def total_units(self) -> int:
        """Units of processing performed across every shard's database."""
        return sum(outcome.total_units for outcome in self._executor.outcomes)

    def mean_gmpl(self) -> float:
        """Mean multiprogramming level across shards, weighted by shard time.

        Each shard's Gmpl is averaged over its own clock; the fleet-level
        figure weights shards by how long they ran.
        """
        outcomes = self._executor.outcomes
        total_time = sum(o.end_time for o in outcomes)
        if total_time <= 0:
            return 0.0
        return sum(o.mean_gmpl * o.end_time for o in outcomes) / total_time

    def time_unit(self) -> str | None:
        """How to read shard clocks (``"units"``/``"ms"``; None before the
        first round has built the shards' backends)."""
        units = (o.time_unit for o in self._executor.outcomes if o.time_unit is not None)
        return next(units, None)

    def dispatch_stats(self) -> dict:
        """Fleet-level pooled-dispatch counters (summed across shards)."""
        outcomes = self._executor.outcomes
        return {
            "pooled_batches": sum(o.pooled_batches for o in outcomes),
            "pooled_events": sum(o.pooled_events for o in outcomes),
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the fleet (shuts persistent shard workers down).

        Idempotent.  A closed service can still be read (summaries,
        handles, stats come from the last outcomes) but not driven further.
        """
        self._executor.close()

    def worker_health(self) -> dict:
        """Executor liveness: per-worker alive flags for the process fleet.

        The daemon folds this into ``/healthz``; an in-process fleet is
        alive until closed.
        """
        return self._executor.worker_health()

    # -- observability (repro.obs) --------------------------------------------

    def observability(self) -> dict:
        """Shard registry snapshots merged into one, labelled ``shard=<n>``.

        Counters and histograms add across shards; gauges stay per-shard
        (each entry keeps its shard label), since summing shard clocks or
        Gmpl figures would be meaningless.  Shards ship their snapshots
        inside :class:`ShardOutcome`, exactly like their metrics summaries.
        """
        if not self.config.observe:
            return {"enabled": False, "counters": [], "gauges": [], "histograms": []}
        merged = MetricsRegistry()
        for outcome in self._executor.outcomes:
            snapshot = outcome.obs
            if snapshot and snapshot.get("enabled"):
                merged.merge_snapshot(snapshot, extra_labels={"shard": outcome.shard})
        return merged.snapshot()

    def trace_groups(self) -> list[tuple[int, str, list]]:
        """Chrome-trace lanes: one process lane per shard."""
        return [
            (outcome.shard, f"shard:{outcome.shard}", outcome.trace or [])
            for outcome in self._executor.outcomes
        ]

    def chrome_trace(self) -> dict:
        """The fleet's flight recorders as one Chrome-trace JSON object."""
        return export_chrome_trace(
            self.trace_groups(), armed=bool(self.config.observe)
        )

    # -- observation ----------------------------------------------------------

    def _subscribe(self, kind: str, handler: Callable) -> Callable:
        self._handlers[kind].append(handler)
        return handler

    def on_launch(self, handler: Callable[[LaunchEvent], None]):
        """Subscribe to task-launch events; usable as a decorator.

        Each round's events are delivered once its shards return, in the
        merged global order.  Handlers may attach at any point in the
        service's life — a handler attached after some rounds have run
        receives events from the next round on.
        """
        return self._subscribe("launch", handler)

    def on_query_done(self, handler: Callable[[QueryDoneEvent], None]):
        """Subscribe to query-completion events; usable as a decorator."""
        return self._subscribe("query_done", handler)

    def on_instance_complete(self, handler: Callable[[InstanceCompleteEvent], None]):
        """Subscribe to instance-completion events; usable as a decorator."""
        return self._subscribe("complete", handler)

    def attach_log(self) -> EventLog:
        """Subscribe a fresh :class:`~repro.api.events.EventLog` to every
        event stream; like any handler it records from the next round on."""
        log = EventLog()
        self.on_launch(log)
        self.on_query_done(log)
        self.on_instance_complete(log)
        return log

    def __repr__(self) -> str:
        done = sum(1 for h in self._handles if h.done)
        return (
            f"<ShardedDecisionService {self.schema.name!r} {self.config.code} "
            f"shards={self.shards} executor={self.config.executor!r} "
            f"backend={self.config.backend!r} instances={done}/{len(self._handles)} done>"
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
    builds a :class:`ShardedDecisionService`.
    """
    coerced = coerce_config(config)
    if coerced.shards == 1 and coerced.executor == "serial":
        return DecisionService(schema, coerced, backend=backend, **backend_options)
    return ShardedDecisionService(schema, coerced, backend=backend, **backend_options)
