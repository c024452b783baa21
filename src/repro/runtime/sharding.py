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
outcomes are exact and reading them costs no round-trip — and its
records are pushed into their handles.  A shard reports an instance
every round until it is *settled* (done, nothing in flight); the fleet
folds its metrics into the finished aggregate in the round it settles,
and only a settled handle can be released.

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

from repro.api.backends import Backend
from repro.api.config import ExecutionConfig
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.api.service import DecisionService, _ServiceFront, coerce_config
from repro.core.engine import check_start_time, claim_instance_id
from repro.core.metrics import SERVICE_COUNTERS, InstanceMetrics, MetricsSummary, summarize
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


class ShardedInstanceHandle:
    """A submitted instance in a sharded service: poll it, drive it, read it.

    Mirrors :class:`~repro.api.service.InstanceHandle`.  It reads the
    last record its shard reported, which each round pushes in, so
    results materialize once the service has run.  Until its first
    record it holds a source-only one: its submitted sources, which are
    stable from submission, as on a plain service, and no metrics.
    """

    __slots__ = ("_service", "_shard", "_record")

    def __init__(self, service: "ShardedDecisionService", shard: int, record: InstanceRecord):
        self._service = service
        self._shard = shard
        self._record = record

    @property
    def instance_id(self) -> str:
        return self._record.instance_id

    @property
    def shard(self) -> int:
        """The shard this instance was routed to."""
        return self._shard

    @property
    def done(self) -> bool:
        return self._record.done

    @property
    def metrics(self) -> InstanceMetrics:
        metrics = self._record.metrics
        if metrics is None:
            raise ValueError(
                f"instance {self.instance_id} has no metrics yet: a sharded "
                "service materializes results when it runs"
            )
        return metrics

    def value(self, name: str) -> object:
        """The value of one attribute, once stable.

        Raises :class:`KeyError` for a name the schema does not have and
        :class:`ValueError` while the attribute has no stable value in the
        shard's record (before it, only the sources have one): ⊥ is a
        decided value (a disabled attribute's), never a placeholder.
        """
        if name not in self._service.schema:
            raise KeyError(name)
        values = self._record.values
        if name not in values:
            raise ValueError(f"attribute {name!r} is not stable")
        return values[name]

    def value_map(self) -> dict[str, object]:
        """Every stable attribute's value, as a fresh dict."""
        return dict(self._record.values)

    def wait(self) -> InstanceMetrics:
        """Drive the owning shard until this instance finishes."""
        if not self.done:
            self._service.run()
        if not self.done:
            raise ExecutionError(f"instance {self.instance_id} stalled on shard {self._shard}")
        return self._record.metrics

    def result(self) -> dict[str, object]:
        """The target attribute values, driving the shard if needed."""
        self.wait()
        values = self._record.values
        return {name: values[name] for name in self._service.schema.target_names if name in values}

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<ShardedInstanceHandle {self.instance_id!r} shard={self._shard} {state}>"


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
        #: the handles not yet settled, by instance id: a round's records land here
        self._pending: dict[str, ShardedInstanceHandle] = {}
        self._release = False
        self._transport = None  # built at the first submission
        self._closed = False
        self._instance_ids: set[str] = set()
        self._id_next = 1  # the number the next generated id tries first

    # -- id allocation and routing --------------------------------------------

    def _claim_id(self, instance_id: str | None, drawn: itertools.count | None) -> str:
        return claim_instance_id(
            instance_id, self.schema.name, drawn, self._instance_ids, scope="service"
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

    def _register(
        self, shard: int, instance_id: str, sources: Mapping[str, object] | None
    ) -> ShardedInstanceHandle:
        values = {name: sources[name] for name in self.schema.source_names} if sources else {}
        record = InstanceRecord(instance_id, False, False, values, None)
        handle = ShardedInstanceHandle(self, shard, record)
        self._handles.append(handle)
        self._pending[instance_id] = handle
        return handle

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        source_values: Mapping[str, object] | None = None,
        *,
        at: float | None = None,
        instance_id: str | None = None,
    ) -> ShardedInstanceHandle:
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
        self._instance_ids.add(instance_id)
        if drawn is not None:
            self._id_next = next(drawn)
        return self._register(shard, instance_id, sources)

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
            self._instance_ids.add(instance_id)
            shard = shard_of(instance_id, self.shards)
            sources = None if source_values is None else dict(source_values)
            per_shard[shard][0].append(instance_id)
            per_shard[shard][1].append(sources)
            handles.append(self._register(shard, instance_id, sources))
        self._id_next = next(drawn)
        active = [shard for shard in range(self.shards) if per_shard[shard][0]]
        for share, shard in zip(_split_concurrency(concurrency, len(active)), active):
            self._ops[shard].append(("closed", *per_shard[shard], share))
        self.run()
        return handles

    # -- driving and reading --------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Drive every shard one round: to *until*, or until its work drains.

        Each reply's records land in their handles; then the round's
        events reach every handler, in :func:`merge_shard_events` order.
        A shard that raised is reported by its next round, and the first
        error raises once every reply has been read.  A non-finite *until*
        is refused before the round goes out.
        """
        check_until(until)
        if self._transport is None and not self._closed:
            return  # nothing was ever submitted: an idle fleet, nothing to start
        transport = self._start()
        ops, self._ops = self._ops, [[] for _ in range(self.shards)]
        release, self._release = self._release, False
        dispatcher = self._dispatcher
        collect = dispatcher.has_listeners
        replies = transport.exchange(
            [("run", shard_ops, until, collect, release) for shard_ops in ops]
        )
        pending, settled = self._pending, []
        for shard, reply in enumerate(replies):
            if isinstance(reply, BaseException):
                continue
            self.outcomes[shard] = reply
            for record in reply.records:
                if record.settled:
                    pending.pop(record.instance_id)._record = record
                    settled.append(record.metrics)
                else:
                    pending[record.instance_id]._record = record
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

    def release_completed(self) -> tuple[ShardedInstanceHandle, ...]:
        """Let go of every settled instance; returns the handles released.

        The fleet's counterpart of
        :meth:`DecisionService.release_completed`: the parent drops the
        settled handles now, and each shard lets go of its own instances
        at the start of the next round (a ``release`` flag on that
        round's frame, so no extra round-trip).  A done instance with a
        query still in flight is kept until its shard reports it settled.
        :meth:`summary` keeps covering them, and a handle the caller
        still holds stays fully readable.
        """
        pending = self._pending
        kept, released = [], []
        for handle in self._handles:
            (kept if handle.instance_id in pending else released).append(handle)
        if released:
            self._handles = kept
            self._release = True
        return tuple(released)

    def _counter_sums(self, names: Sequence[str]) -> dict[str, int]:
        return {name: sum(o.counters[name] for o in self.outcomes) for name in names}

    def summary(self) -> MetricsSummary:
        """Aggregate metrics over the fleet's finished instances, released
        or not, plus every shard's service counters, summed.

        Settled instances come from the running aggregate; a done one
        still waiting on a straggler counts its last record at read time,
        as a plain service counts its live metrics.
        """
        unsettled = [h.metrics for h in self._pending.values() if h.done]
        summary = self.finished
        if unsettled:
            summary = MetricsSummary.merge(summary, summarize(unsettled))
        return replace(summary, **self._counter_sums(SERVICE_COUNTERS))

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
        return self._counter_sums(("pooled_batches", "pooled_events"))

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
    builds a :class:`ShardedDecisionService`.  The branch stays: a plain
    service's handles and observers are live inside a run (cohort
    fan-out consults its listeners, a wave step ends at one that
    schedules), a fleet's update once per round.
    """
    coerced = coerce_config(config)
    if coerced.shards == 1 and coerced.executor == "serial":
        return DecisionService(schema, coerced, backend=backend, **backend_options)
    return ShardedDecisionService(schema, coerced, backend=backend, **backend_options)
