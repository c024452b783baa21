"""DecisionService: the multi-instance facade over the execution engine.

The paper's engine is inherently a *service*: many concurrent decision-flow
instances sharing one database under a tunable strategy.  This module is
that service as an object — construct it from a schema, an
:class:`~repro.api.config.ExecutionConfig`, and a named backend; submit
instances (individually, as an open arrival stream, or as a closed loop);
observe execution through typed event hooks; and read per-instance results
through :class:`InstanceHandle`.

    service = DecisionService(schema, ExecutionConfig.from_code("PSE80"))
    handle = service.submit({"customer_id": "alice", "amount": 25_000})
    print(handle.result(), handle.metrics.work_units)
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from types import MethodType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.api import counters as table
from repro.api.backends import Backend, create_backend
from repro.api.config import ExecutionConfig
from repro.api.events import (
    EventLog,
    InstanceCompleteEvent,
    LaunchEvent,
    QueryDoneEvent,
    _Dispatcher,
)
from repro.core.batch_engine import BatchedEngine
from repro.core.engine import check_start_time, next_instance_ids
from repro.core.metrics import InstanceMetrics, MetricsSummary, summarize
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.obs import NULL_OBS, Observability, export_chrome_trace

if TYPE_CHECKING:
    from repro.oracle import Engine, InstanceRuntime

__all__ = ["DecisionService", "InstanceHandle", "coerce_config"]


def _reference_engine(*args, **kwargs) -> "Engine":
    """The reference engine, the one lazy way to the oracle package."""
    from repro.oracle import Engine

    return Engine(*args, **kwargs)


#: What builds the engine behind each ``ExecutionConfig.engine``
#: (:data:`repro.api.config.ENGINES`; the test harness swaps entries).
_ENGINE_CLASSES = {"reference": _reference_engine, "batched": BatchedEngine}


def coerce_config(config: "ExecutionConfig | Strategy | str | None") -> ExecutionConfig:
    """Normalize the flexible ``config`` argument services accept.

    ``None`` means the default config; a code string parses as a strategy;
    a :class:`Strategy` wraps into a default config.  Shared by
    :class:`DecisionService` and the sharded runtime so both facades accept
    exactly the same spellings.
    """
    if config is None:
        return ExecutionConfig()
    if isinstance(config, str):
        return ExecutionConfig.from_code(config)
    if isinstance(config, Strategy):
        return ExecutionConfig(strategy=config)
    if not isinstance(config, ExecutionConfig):
        raise TypeError(
            f"config must be ExecutionConfig, Strategy, or code string, got {config!r}"
        )
    return config


class InstanceHandle:
    """A submitted decision-flow instance: poll it, drive it, read it.

    A view the caller owns over its service and its *source* (the live
    instance on a plain service, the fleet's record of it on a sharded
    one); a read that differs between the two asks the service.  No
    facade keeps handles: two over one service and source are equal.
    """

    __slots__ = ("_service", "_source")

    def __init__(self, service: "_ServiceFront", source: object):
        self._service = service
        self._source = source

    @property
    def instance_id(self) -> str:
        return self._source.instance_id

    @property
    def shard(self) -> int:
        """The shard this instance was routed to (0 on a plain service)."""
        return self._service.shard_of(self._source.instance_id)

    @property
    def done(self) -> bool:
        """Whether every target attribute is stable."""
        return self._source.done

    @property
    def metrics(self) -> InstanceMetrics:
        """The live metrics counters (final once :attr:`done`).

        One record per instance, the same object on every read.  A cohort
        rider that finished holding its cohort's shared final record gets
        a private equal copy under its own id on the first read, stable
        and live from then on (a later straggler is booked on it).  On a
        fleet it is its shard's last report (:class:`ValueError` before one).
        """
        return self._service._metrics(self._source)

    @property
    def instance(self) -> InstanceRuntime:
        """The underlying runtime, for low-level inspection (a fleet's
        lives in its shard: :class:`AttributeError`).  A lockstep
        rider's is its :class:`~repro.core.rows.Row`, which reads like an
        instance (``done``, ``metrics``, ``value``, ``value_map``,
        ``value_tuple``, ``cells``, ``state_map``)."""
        return self._service._instance(self._source)

    def value(self, name: str) -> object:
        """The value of one attribute, once stable.

        Raises :class:`KeyError` for a name the schema does not have and
        :class:`ValueError` while the attribute is not stable: ⊥ is a
        decided value (a disabled attribute's), never a placeholder.  A
        source is stable from submission, on a fleet too.
        """
        return self._service._value(self._source, name)

    def value_map(self) -> dict[str, object]:
        """Every stable attribute's value, as a fresh dict."""
        return self._service._value_map(self._source)

    def wait(self) -> InstanceMetrics:
        """Advance the clock (a fleet: run a round) until this instance finishes.

        Returns the final metrics; raises :class:`ExecutionError` if the
        simulation runs dry with targets still unstable (a stalled flow).
        """
        self._drive()
        return self.metrics

    def _drive(self) -> None:
        """:meth:`wait`, reading no metrics."""
        if not self._source.done:
            self._service.run()
        if not self._source.done:
            stable = self.value_map()
            targets = self._service.schema.target_names
            raise ExecutionError(
                f"instance {self.instance_id} stalled on shard {self.shard}; "
                f"unstable targets: {[t for t in targets if t not in stable]}"
            )

    def result(self) -> dict[str, object]:
        """The target attribute values, driving the clock if needed."""
        self._drive()
        value, source = self._service._value, self._source
        return {name: value(source, name) for name in self._service.schema.target_names}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceHandle):
            return NotImplemented
        return self._service is other._service and self._source is other._source

    def __hash__(self) -> int:
        return hash((id(self._service), id(self._source)))

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<InstanceHandle {self.instance_id!r} shard={self.shard} {state}>"


class _ServiceFront:
    """The front both facades share: config and backend-option coercion,
    ``submit_stream``, ``run_closed``'s argument checks, :attr:`handles`
    and :attr:`completed`, the event subscriptions and the Chrome-trace
    export.

    A facade supplies ``submit``, ``run``, ``now``, ``trace_groups``,
    ``_stream_starts``, ``_held()`` (its instances or records, in
    submission order) and the reads a handle asks of it: ``shard_of``,
    ``_metrics``, ``_instance``, ``_value`` and ``_value_map``.  Its
    handlers live in a :class:`~repro.api.events._Dispatcher`'s lists: a
    plain service's engine calls it live, a fleet replays each round's
    events into them.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None,
        backend: Backend | str | None,
        backend_options: Mapping[str, Any],
    ):
        config = coerce_config(config)
        if isinstance(backend, Backend):
            if backend_options or config.backend_options:
                raise ValueError("backend_options are ignored with a pre-built Backend")
            config = config.replace(backend=backend.name)
        else:
            if backend is not None:
                config = config.replace(backend=backend)
            if backend_options:
                merged = {**config.backend_options, **backend_options}
                config = config.replace(backend_options=merged)
        self.schema = schema
        self.config = config
        self._dispatcher = _Dispatcher()

    def submit_stream(
        self,
        arrivals: Iterable[float | tuple[float, Mapping[str, object]]],
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
        *,
        run: bool = True,
    ) -> list:
        """Open-system helper: submit instances at the given arrival times.

        *arrivals* is an iterable of absolute simulated times, or of
        ``(time, source_values)`` pairs.  With plain times, *values*
        supplies the source values — either one mapping shared by every
        instance or a callable of the arrival index.  Every arrival is
        checked first, as :meth:`submit` checks it — its start time
        against its clock, then its sources — so a bad one raises before
        anything is submitted.  By default the clock is then advanced
        until all work drains; pass ``run=False`` to submit only.
        """
        items = []
        for index, arrival in enumerate(arrivals):
            if isinstance(arrival, tuple):
                at, source_values = arrival
            else:
                at = arrival
                source_values = values(index) if callable(values) else values
            items.append((at, source_values))
        for (at, source_values), (instance_id, floor) in zip(
            items, self._stream_starts(len(items))
        ):
            if at is not None:
                check_start_time(instance_id, at, floor)
            self.schema.check_sources(source_values or {})
        handles = [self.submit(source_values, at=at) for at, source_values in items]
        if run:
            self.run()
        return handles

    def _closed_valuations(
        self,
        n: int,
        concurrency: int,
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None,
    ) -> list[Mapping[str, object] | None]:
        """``run_closed``'s checks: its bounds, and every one of the *n*
        valuations against the schema's sources — all before any id is
        claimed or any instance submitted, so a bad one runs nothing."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        valuations = [values(index) if callable(values) else values for index in range(n)]
        for index, source_values in enumerate(valuations):
            try:
                self.schema.check_sources(source_values or {})
            except ExecutionError as error:
                raise ExecutionError(f"run_closed valuation {index}: {error}") from None
        return valuations

    @property
    def handles(self) -> tuple[InstanceHandle, ...]:
        """A handle over every instance the service holds, in submission
        order: every one submitted, minus those :meth:`release_completed`
        let go (fresh handles, equal to the ones ``submit`` returned)."""
        return tuple(InstanceHandle(self, source) for source in self._held())

    @property
    def completed(self) -> tuple[InstanceHandle, ...]:
        """The finished handles among :attr:`handles` (released ones are gone)."""
        return tuple(InstanceHandle(self, source) for source in self._held() if source.done)

    def chrome_trace(self) -> dict:
        """The flight recorders as one Chrome-trace JSON object."""
        return export_chrome_trace(self.trace_groups(), armed=self.config.observe)

    # -- observation ----------------------------------------------------------

    def on_launch(self, handler: Callable[[LaunchEvent], None]):
        """Subscribe to task-launch events; usable as a decorator."""
        self._dispatcher.launch_handlers.append(handler)
        return handler

    def on_query_done(self, handler: Callable[[QueryDoneEvent], None]):
        """Subscribe to query-completion events; usable as a decorator."""
        self._dispatcher.query_done_handlers.append(handler)
        return handler

    def on_instance_complete(self, handler: Callable[[InstanceCompleteEvent], None]):
        """Subscribe to instance-completion events; usable as a decorator."""
        self._dispatcher.complete_handlers.append(handler)
        return handler

    def attach_log(self) -> EventLog:
        """Subscribe a fresh :class:`EventLog` to every event stream."""
        log = EventLog()
        self.on_launch(log)
        self.on_query_done(log)
        self.on_instance_complete(log)
        return log


class _ObservedDrain:
    """An armed service's pool drain: ``fire_pooled`` in a ``des.pool`` span.

    It holds the tracer and is handed the simulation, to which it is
    registered bound: nothing of it leads back to the service.
    """

    __slots__ = ("tracer",)

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, simulation, events) -> int:
        t0 = perf_counter()
        consumed = simulation.fire_pooled(events)
        args = {"time": simulation.now, "pool": len(events), "consumed": consumed}
        self.tracer.record("des.pool", t0, perf_counter(), args=args)
        return consumed


class _ClosedLoop:
    """One :meth:`DecisionService.run_closed` loop: each call submits the
    next instance, with the loop itself as its completion callback.

    Nothing refers back to the loop but the callbacks of its instances
    still in flight, and it lets go of the service and the valuations at
    the last submission, so a finished loop is freed by reference
    counting, not left for the cyclic collector.
    """

    __slots__ = ("service", "valuations", "instance_ids", "instances")

    def __init__(self, service, valuations, instance_ids):
        self.service, self.valuations, self.instance_ids = service, valuations, instance_ids
        #: the instances submitted so far, in submission order
        self.instances: list = []

    def __call__(self, _metrics: InstanceMetrics | None = None) -> None:
        service, valuations, ids = self.service, self.valuations, self.instance_ids
        if service is None:  # all submitted
            return
        index = len(self.instances)
        self.instances.append(
            service.engine.submit_instance(
                valuations[index],
                instance_id=ids[index] if ids is not None else None,
                on_complete=self,
            )
        )
        if index + 1 == len(valuations):
            self.service = self.valuations = self.instance_ids = None


class DecisionService(_ServiceFront):
    """Execute decision-flow instances against a configured backend.

    ``config`` may be an :class:`ExecutionConfig`, a :class:`Strategy`, or
    a strategy code string (``"PSE80"``).  ``backend`` overrides the
    config's backend selection and may be a registered name or a
    pre-built :class:`Backend`; extra keyword arguments are forwarded to
    the backend factory.  It runs one in-process shard: a config with
    ``shards > 1`` or a process executor raises :class:`ValueError`
    (:func:`repro.runtime.create_service` builds the fleet it asks for).
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None = None,
        *,
        backend: Backend | str | None = None,
        **backend_options: Any,
    ):
        super().__init__(schema, config, backend, backend_options)
        config = self.config
        if config.shards > 1 or config.executor != "serial":
            # One in-process shard is all this class runs: a fleet config
            # would serve, and report its shards, as one.
            raise ValueError(
                f"a DecisionService runs one serial shard, not shards={config.shards} "
                f"executor={config.executor!r}: build a fleet with "
                "repro.runtime.create_service"
            )
        if isinstance(backend, Backend):
            self.backend = backend
        else:
            self.backend = create_backend(config.backend, **config.backend_options)
        simulation = self.backend.simulation
        self._dispatcher.clock = lambda: simulation.now
        if simulation.batch_consumer is not None:
            # Engines must never share simulations by accident: either
            # service's run() would drive the other's instances.
            raise ValueError(
                f"backend {self.backend.name!r} already drives a service: "
                "build one Backend per service"
            )
        self.obs = Observability.create() if config.observe else NULL_OBS
        # Every service drains its calendar in instant pools, whichever
        # engine it runs (the pool is fired in per-event order either way).
        # Both drains are bound to the simulation, which holds them unbound:
        # neither the service nor a bound method makes a reference cycle.
        simulation.set_batch_consumer(
            MethodType(_ObservedDrain(self.obs.tracer), simulation)
            if self.obs.enabled
            else simulation.fire_pooled
        )
        engine_cls = _ENGINE_CLASSES[config.engine]
        self.engine = engine_cls(
            schema,
            config.strategy,
            self.backend.database,
            halt_policy=config.halt_policy,
            observer=self._dispatcher,
            query_cache=config.query_cache,
            obs=self.obs,
        )
        #: running aggregate over the instances release_completed() let go
        self._released = MetricsSummary()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        source_values: Mapping[str, object] | None = None,
        *,
        at: float | None = None,
        instance_id: str | None = None,
    ) -> InstanceHandle:
        """Submit one instance (starting now, or at simulated time *at*)."""
        return InstanceHandle(
            self, self.engine.submit_instance(source_values, at=at, instance_id=instance_id)
        )

    def run_closed(
        self,
        n: int,
        *,
        concurrency: int = 1,
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
        instance_ids: Sequence[str] | None = None,
        run: bool = True,
    ) -> list[InstanceHandle]:
        """Closed-system helper: keep *concurrency* instances in flight.

        Submits *concurrency* instances immediately and replaces each one
        the moment it completes, until *n* have been submitted in total;
        then drains.  Returns the handles of all *n* instances.  A valuation
        that misses a source (named by index) or a repeated or claimed id
        raises before anything is submitted.

        *instance_ids* (when given) supplies the id of each submission in
        order — the sharded runtime uses this to keep ids globally unique
        across shards.  ``run=False`` arms the loop without driving the
        clock (the loop still refills once someone runs it) and returns
        the handles of the first *concurrency* instances only.
        """
        valuations = self._closed_valuations(n, concurrency, values)
        if instance_ids is not None:
            if len(instance_ids) != n:
                raise ValueError(
                    f"instance_ids must supply exactly n={n} ids, got {len(instance_ids)}"
                )
            seen: set[str] = set()
            for instance_id in instance_ids:
                if instance_id in seen or instance_id in self.engine._instance_ids:
                    raise ExecutionError(f"run_closed: duplicate instance id {instance_id!r}")
                seen.add(instance_id)
        loop = _ClosedLoop(self, valuations, instance_ids)
        for _ in range(min(concurrency, n)):
            loop()
        if run:
            self.run()
        return [InstanceHandle(self, instance) for instance in loop.instances]

    def _stream_starts(self, n: int) -> list[tuple[str, float]]:
        """The ids the next *n* submissions get, each with the clock its
        start is checked against: this service's."""
        engine, now = self.engine, self.now
        ids = next_instance_ids(self.schema.name, engine._id_next, engine._instance_ids, n)
        return [(instance_id, now) for instance_id in ids]

    # -- driving and reading --------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Advance the backend's simulated clock (to *until*, or until idle)."""
        self.backend.simulation.run(until)

    @property
    def now(self) -> float:
        """The current simulated time of the backend."""
        return self.backend.simulation.now

    @property
    def database(self):
        """The backend's database server (work totals, Gmpl, ...)."""
        return self.backend.database

    # -- what a handle reads: the live instance --------------------------------

    def _held(self) -> list:
        return self.engine.instances

    def shard_of(self, instance_id: str) -> int:
        """Which shard an instance id routes to: a service is one shard, 0."""
        return 0

    @staticmethod
    def _metrics(instance) -> InstanceMetrics:
        return instance.metrics

    @staticmethod
    def _instance(instance):
        return instance

    @staticmethod
    def _value(instance, name: str) -> object:
        return instance.value(name)

    @staticmethod
    def _value_map(instance) -> dict[str, object]:
        return instance.value_map()

    def release_completed(self) -> tuple[InstanceHandle, ...]:
        """Let go of every finished instance; returns the handles released.

        A long-lived caller (the server daemon, after persisting an
        epoch) calls this so the service's memory follows the instances
        in flight, not every instance it has ever served.  Released
        instances leave the engine's instance list (so :attr:`handles`),
        and their ids are free to submit again (the reuse contract of
        :func:`~repro.core.engine.claim_instance_id`); their metrics are
        added to a running aggregate first, so :meth:`summary` reads as
        if nothing had been released.  The database's Gmpl trace is
        trimmed to the earliest start still held (to now if none is):
        :meth:`mean_gmpl` stays exact.  A handle the caller still holds
        stays fully readable.  An instance that is done but still has a
        query in flight is kept until that query has booked its units.
        """
        settled = self.engine.release_settled()
        if settled:
            self._released = MetricsSummary.merge(
                self._released, summarize(instance.booked for instance in settled)
            )
        starts = (instance.start_time for instance in self.engine.instances)
        self.database.trim_gmpl_history(min(starts, default=self.now))
        return tuple(InstanceHandle(self, instance) for instance in settled)

    def summary(self) -> MetricsSummary:
        """Aggregate metrics over all finished instances, released or not.

        A service with no finished instances (nothing submitted yet, or
        everything still in flight) summarizes to a zeroed
        :class:`MetricsSummary` with ``count == 0`` rather than raising.
        It carries the counter table's summary rows
        (:data:`repro.api.counters.SUMMARY`: the query cache's and the
        cohort tier's counts, 0 where not armed).  It equals one ``summarize``
        over every finished instance, whenever :meth:`release_completed` ran.
        """
        summary = MetricsSummary.merge(
            self._released,
            summarize((i.booked for i in self.engine.instances if i.done), empty_ok=True),
        )
        return replace(summary, **table.fold(self, table.SUMMARY))

    def time_unit(self) -> str | None:
        """How to read the clock (``"units"``/``"ms"``)."""
        return self.backend.time_unit

    def mean_gmpl(self) -> float:
        """The database's mean multiprogramming level over the whole clock:
        exact, whatever :meth:`release_completed` trimmed of its trace."""
        return self.database.mean_gmpl()

    def dispatch_stats(self) -> dict:
        """Pooled-dispatch counters: the instant pools drained, and their events."""
        return table.fold(self, table.DISPATCH)

    def counters(self) -> dict[str, int | float]:
        """Every count of :mod:`repro.api.counters` this service keeps, by
        name, as it reads now: kept on every path, armed or not (the
        reference engine keeps only the simulation's, the database's and
        the cache's)."""
        return table.read(self)

    # -- lifecycle ------------------------------------------------------------

    def worker_health(self) -> dict:
        """Executor liveness in the fleet's shape: a service runs in-process."""
        return {"executor": "serial", "spawned": False, "alive": True, "workers": []}

    def close(self) -> None:
        """Nothing to shut down: a service owns no worker process."""

    # -- observability (repro.obs) --------------------------------------------

    def observability(self) -> dict:
        """The armed registry snapshot, with every count of the counter
        table (:meth:`counters`) written in as its row's kind.

        Disarmed services return an ``enabled: False`` snapshot with no
        entries; an armed one is self-contained (JSON-able, mergeable
        across shards, renderable as Prometheus).
        """
        if self.obs.enabled:
            table.publish(self.obs.registry, self.counters())
        return self.obs.registry.snapshot()

    def trace_groups(self) -> list[tuple[int, str, list]]:
        """Chrome-trace lanes: one per execution context (one here)."""
        return [(0, f"service:{self.schema.name}", self.obs.tracer.events())]

    def _counts(self) -> tuple[int, int]:
        """Instances submitted and done, released ones included."""
        released, held = self._released.count, self.engine.instances
        return released + len(held), released + sum(1 for i in held if i.done)

    def __repr__(self) -> str:
        submitted, done = self._counts()
        return (
            f"<DecisionService {self.schema.name!r} {self.config.code} "
            f"backend={self.backend.name!r} instances={done}/{submitted} done>"
        )
