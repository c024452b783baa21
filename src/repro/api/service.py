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


def service_counters(engine: "Engine | BatchedEngine") -> dict[str, int]:
    """*engine*'s service-level summary fields (`SERVICE_COUNTERS`): its
    query cache's, zero without one, and its cohort table's, zero unless
    cohorts are armed (the reference engine has none)."""
    cache = engine.query_cache
    return {
        "query_cache_hits": cache.hits if cache is not None else 0,
        "query_cache_misses": cache.misses if cache is not None else 0,
        "query_cache_coalesced": cache.coalesced if cache is not None else 0,
        "cohort_hits": getattr(engine, "cohort_hits", 0),
        "cohort_splits": getattr(engine, "cohort_splits", 0),
    }


class InstanceHandle:
    """A submitted decision-flow instance: poll it, drive it, read it."""

    __slots__ = ("_service", "_instance")

    def __init__(self, service: "DecisionService", instance: InstanceRuntime):
        self._service = service
        self._instance = instance

    @property
    def instance_id(self) -> str:
        return self._instance.instance_id

    @property
    def done(self) -> bool:
        """Whether every target attribute is stable."""
        return self._instance.done

    @property
    def metrics(self) -> InstanceMetrics:
        """The live metrics counters (final once :attr:`done`).

        One record per instance, the same object on every read.  A cohort
        rider that finished holding its cohort's shared final record gets
        a private equal copy under its own id on the first read, stable
        and live from then on (a later straggler is booked on it); read
        before it finishes, the record is its own and stays live.
        """
        return self._instance.metrics

    @property
    def instance(self) -> InstanceRuntime:
        """The underlying runtime, for low-level inspection."""
        return self._instance

    def value(self, name: str) -> object:
        """The value of one attribute, once stable.

        Raises :class:`KeyError` for a name the schema does not have and
        :class:`ValueError` while the attribute is not stable: ⊥ is a
        decided value (a disabled attribute's), never a placeholder.
        """
        return self._instance.cells[name].value

    def value_map(self) -> dict[str, object]:
        """Every stable attribute's value, as a fresh dict."""
        return self._instance.value_map()

    def wait(self) -> InstanceMetrics:
        """Advance the shared clock until this instance finishes.

        Returns the final metrics; raises :class:`ExecutionError` if the
        simulation runs dry with targets still unstable (a stalled flow).
        """
        self._drive()
        return self._instance.metrics

    def _drive(self) -> None:
        """:meth:`wait`, reading no metrics."""
        if not self._instance.done:
            self._service.run()
        if not self._instance.done:
            unstable = [
                t
                for t in self._service.schema.target_names
                if not self._instance.cells[t].stable
            ]
            raise ExecutionError(
                f"instance {self.instance_id} stalled; unstable targets: {unstable}"
            )

    def result(self) -> dict[str, object]:
        """The target attribute values, driving the clock if needed."""
        self._drive()
        return {
            name: self._instance.cells[name].value
            for name in self._service.schema.target_names
        }

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<InstanceHandle {self.instance_id!r} {state}>"


class _ServiceFront:
    """The front both facades share: config and backend-option coercion,
    ``submit_stream``, ``run_closed``'s argument checks, the handle list,
    the event subscriptions and the Chrome-trace export.

    A facade supplies ``submit``, ``run``, ``now``, ``trace_groups`` and
    ``_stream_starts``, and keeps its issued handles in ``_handles``.
    Its handlers live in a :class:`~repro.api.events._Dispatcher`'s
    lists: a plain service's engine calls it live, a fleet replays each
    round's events into them.
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
        self._handles: list = []

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
    def handles(self) -> tuple:
        """Every handle the service still tracks, in submission order.

        That is every handle it has issued, minus those
        :meth:`release_completed` let go.
        """
        return tuple(self._handles)

    @property
    def completed(self) -> tuple:
        """The finished handles among :attr:`handles` (released ones are gone)."""
        return tuple(h for h in self._handles if h.done)

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

    __slots__ = ("service", "valuations", "instance_ids", "handles")

    def __init__(self, service, valuations, instance_ids):
        self.service, self.valuations, self.instance_ids = service, valuations, instance_ids
        #: the handles submitted so far: ``run_closed``'s live list
        self.handles: list[InstanceHandle] = []

    def __call__(self, _metrics: InstanceMetrics | None = None) -> None:
        service, valuations, ids = self.service, self.valuations, self.instance_ids
        if service is None:  # all submitted
            return
        index = len(self.handles)
        instance = service.engine.submit_instance(
            valuations[index],
            instance_id=ids[index] if ids is not None else None,
            on_complete=self,
        )
        handle = InstanceHandle(service, instance)
        self.handles.append(handle)
        service._handles.append(handle)
        if index + 1 == len(valuations):
            self.service = self.valuations = self.instance_ids = None


class DecisionService(_ServiceFront):
    """Execute decision-flow instances against a configured backend.

    ``config`` may be an :class:`ExecutionConfig`, a :class:`Strategy`, or
    a strategy code string (``"PSE80"``).  ``backend`` overrides the
    config's backend selection and may be a registered name or a
    pre-built :class:`Backend`; extra keyword arguments are forwarded to
    the backend factory.
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
        instance = self.engine.submit_instance(
            source_values, at=at, instance_id=instance_id
        )
        handle = InstanceHandle(self, instance)
        self._handles.append(handle)
        return handle

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
        clock (the loop still refills once someone runs it); the returned
        list is the live handle list and keeps growing as each finished
        instance is replaced.
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
        return loop.handles

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

    def release_completed(self) -> tuple[InstanceHandle, ...]:
        """Let go of every finished instance; returns the handles released.

        A long-lived caller (the server daemon, after persisting an
        epoch) calls this so the service's memory follows the instances
        in flight, not every instance it has ever served.  Released
        instances leave :attr:`handles` and the engine's instance list,
        and their ids are free to submit again (the reuse contract of
        :func:`~repro.core.engine.claim_instance_id`); their metrics are
        added to a running aggregate first, so :meth:`summary` reads as
        if nothing had been released.  The database's Gmpl trace is
        trimmed to the earliest start still held (to now if none is):
        :meth:`mean_gmpl` stays exact.  A handle the caller still holds
        stays fully readable.  An instance that is done but still has a
        query in flight is kept until that query has booked its units.
        """
        settled = {id(instance) for instance in self.engine.release_settled()}
        released = tuple(h for h in self._handles if id(h.instance) in settled)
        if released:
            self._handles = [h for h in self._handles if id(h.instance) not in settled]
            self._released = MetricsSummary.merge(
                self._released, summarize(h.instance.booked for h in released)
            )
        starts = (instance.start_time for instance in self.engine.instances)
        self.database.trim_gmpl_history(min(starts, default=self.now))
        return released

    def summary(self) -> MetricsSummary:
        """Aggregate metrics over all finished instances, released or not.

        A service with no finished instances (nothing submitted yet, or
        everything still in flight) summarizes to a zeroed
        :class:`MetricsSummary` with ``count == 0`` rather than raising.
        With the query share cache armed, the summary carries its
        service-level hit/miss/coalesce counters; with cohort execution
        armed, its cohort hit/split totals.  It equals one ``summarize``
        over every finished instance, whenever :meth:`release_completed` ran.
        """
        summary = MetricsSummary.merge(
            self._released,
            summarize((h.instance.booked for h in self._handles if h.done), empty_ok=True),
        )
        return replace(summary, **service_counters(self.engine))

    def time_unit(self) -> str | None:
        """How to read the clock (``"units"``/``"ms"``)."""
        return self.backend.time_unit

    def mean_gmpl(self) -> float:
        """The database's mean multiprogramming level over the whole clock:
        exact, whatever :meth:`release_completed` trimmed of its trace."""
        return self.database.mean_gmpl()

    def dispatch_stats(self) -> dict:
        """Pooled-dispatch counters: the instant pools drained, and their events."""
        simulation = self.backend.simulation
        return {
            "pooled_batches": simulation.pooled_batches,
            "pooled_events": simulation.pooled_events,
        }

    # -- lifecycle ------------------------------------------------------------

    def worker_health(self) -> dict:
        """Executor liveness in the fleet's shape: a service runs in-process."""
        return {"executor": "serial", "spawned": False, "alive": True, "workers": []}

    def close(self) -> None:
        """Nothing to shut down: a service owns no worker process."""

    # -- observability (repro.obs) --------------------------------------------

    def observability(self) -> dict:
        """The armed registry snapshot, refreshed with point-in-time gauges.

        Disarmed services return an ``enabled: False`` snapshot with no
        entries; armed ones fold the live engine/DES/database/cache state
        into gauges before snapshotting, so the result is self-contained
        (JSON-able, mergeable across shards, renderable as Prometheus).
        """
        if not self.obs.enabled:
            return self.obs.registry.snapshot()
        # Armed, the engine is the batched one (the reference is not instrumented).
        registry, engine, plan = self.obs.registry, self.engine, self.engine.plan
        simulation = self.backend.simulation
        database = self.backend.database
        registry.gauge("sim_time").set(simulation.now)
        registry.gauge("sim_events_executed").set(simulation.events_executed)
        registry.gauge("db_total_units").set(database.total_units)
        registry.gauge("db_mean_gmpl").set(database.mean_gmpl())
        registry.gauge("pooled_batches").set(simulation.pooled_batches)
        registry.gauge("pooled_events").set(simulation.pooled_events)
        registry.gauge("engine_arrival_runs").set(engine.arrival_runs)
        registry.gauge("engine_arrival_run_arrivals").set(engine.arrival_run_arrivals)
        registry.gauge("engine_memo_states").set(len(plan.states))
        registry.gauge("engine_memo_hits").set(plan.memo_hits)
        registry.gauge("engine_memo_misses").set(plan.memo_misses)
        registry.gauge("engine_flow_traces").set(engine.flow_traces)
        registry.gauge("engine_flow_replays").set(engine.flow_replays)
        registry.gauge("engine_flow_fallbacks").set(engine.flow_fallbacks)
        registry.gauge("engine_launch_memo_entries").set(plan.launch_entries)
        registry.gauge("engine_launch_memo_hits").set(plan.launch_hits)
        registry.gauge("engine_hit_waves").set(engine.hit_waves)
        registry.gauge("engine_hit_wave_deliveries").set(engine.hit_wave_deliveries)
        registry.gauge("engine_bulk_joins").set(engine.bulk_joins)
        registry.gauge("engine_bulk_join_members").set(engine.bulk_join_members)
        released = self._released.count
        registry.gauge("instances_submitted").set(released + len(self._handles))
        registry.gauge("instances_done").set(
            released + sum(1 for h in self._handles if h.done)
        )
        cache = engine.query_cache
        if cache is not None:
            registry.gauge("query_cache_hits").set(cache.hits)
            registry.gauge("query_cache_misses").set(cache.misses)
            registry.gauge("query_cache_coalesced").set(cache.coalesced)
        if engine._cohorts is not None:
            registry.gauge("cohort_hits").set(engine.cohort_hits)
            registry.gauge("cohort_splits").set(engine.cohort_splits)
        return registry.snapshot()

    def trace_groups(self) -> list[tuple[int, str, list]]:
        """Chrome-trace lanes: one per execution context (one here)."""
        return [(0, f"service:{self.schema.name}", self.obs.tracer.events())]

    def __repr__(self) -> str:
        released = self._released.count
        done = released + sum(1 for h in self._handles if h.done)
        return (
            f"<DecisionService {self.schema.name!r} {self.config.code} "
            f"backend={self.backend.name!r} "
            f"instances={done}/{released + len(self._handles)} done>"
        )
