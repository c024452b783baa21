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
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.api.backends import Backend, create_backend
from repro.api.config import ENGINES, ExecutionConfig
from repro.api.events import (
    EventLog,
    InstanceCompleteEvent,
    LaunchEvent,
    QueryDoneEvent,
    _Dispatcher,
)
from repro.core.batch_engine import BatchedEngine
from repro.core.engine import Engine
from repro.core.instance import InstanceRuntime
from repro.core.metrics import InstanceMetrics, MetricsSummary, summarize
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.obs import NULL_OBS, Observability, export_chrome_trace

__all__ = ["DecisionService", "InstanceHandle", "coerce_config"]

#: Engine implementations behind ``ExecutionConfig.engine``; kept in
#: lockstep with the validation list in :data:`repro.api.config.ENGINES`
#: so a config that validates always resolves here.
_ENGINE_CLASSES = {"reference": Engine, "batched": BatchedEngine}

if set(_ENGINE_CLASSES) != set(ENGINES):  # pragma: no cover
    raise AssertionError(
        f"engine registry drift: config declares {ENGINES}, "
        f"service implements {tuple(_ENGINE_CLASSES)}"
    )


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
        """The live metrics counters (final once :attr:`done`)."""
        return self._instance.metrics

    @property
    def instance(self) -> InstanceRuntime:
        """The underlying runtime, for low-level inspection."""
        return self._instance

    def value(self, name: str) -> object:
        """The current value of one attribute (⊥ until stable)."""
        return self._instance.cells[name].value

    def wait(self) -> InstanceMetrics:
        """Advance the shared clock until this instance finishes.

        Returns the final metrics; raises :class:`ExecutionError` if the
        simulation runs dry with targets still unstable (a stalled flow).
        """
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
        return self._instance.metrics

    def result(self) -> dict[str, object]:
        """The target attribute values, driving the clock if needed."""
        self.wait()
        return {
            name: self._instance.cells[name].value
            for name in self._service.schema.target_names
        }

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"<InstanceHandle {self.instance_id!r} {state}>"


class DecisionService:
    """Execute decision-flow instances against a configured backend.

    ``config`` may be an :class:`ExecutionConfig`, a :class:`Strategy`, or
    a strategy code string (``"PSE80"``).  ``backend`` overrides the
    config's backend selection and may be a registered name or a
    pre-built :class:`Backend`; extra keyword arguments are forwarded to
    the backend factory.

    ``query_cache_l2`` is the sharded runtime's seam: a per-shard
    :class:`~repro.runtime.l2cache.ShardL2View` stacked under the
    service's :class:`~repro.simdb.database.QueryShareCache` so an
    L1 miss probes the fleet-wide tier before dispatching.  It is only
    consulted when ``config.query_cache`` is armed; plain single-service
    use leaves it ``None``.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None = None,
        *,
        backend: Backend | str | None = None,
        query_cache_l2=None,
        **backend_options: Any,
    ):
        config = coerce_config(config)
        if isinstance(backend, Backend):
            if backend_options or config.backend_options:
                raise ValueError("backend_options are ignored with a pre-built Backend")
            config = config.replace(backend=backend.name)
            self.backend = backend
        else:
            if backend is not None:
                config = config.replace(backend=backend)
            if backend_options:
                merged = {**config.backend_options, **backend_options}
                config = config.replace(backend_options=merged)
            self.backend = create_backend(config.backend, **config.backend_options)

        self.schema = schema
        self.config = config
        self.obs = Observability.create() if config.observe else NULL_OBS
        self._dispatcher = _Dispatcher(lambda: self.backend.simulation.now)
        engine_cls = _ENGINE_CLASSES[config.engine]
        query_cache: Any = config.query_cache
        if query_cache and query_cache_l2 is not None:
            # Build the cache here so the sharded runtime's L2 view can
            # be threaded underneath it; the engine uses it as-is.
            from repro.simdb.database import QueryShareCache

            query_cache = QueryShareCache(self.backend.database, l2=query_cache_l2)
        self.engine = engine_cls(
            schema,
            config.strategy,
            self.backend.database,
            halt_policy=config.halt_policy,
            share_results=config.share_results,
            observer=self._dispatcher,
            query_cache=query_cache,
            cohorts=config.cohorts,
            obs=self.obs,
        )
        if config.dispatch == "pooled":
            self.engine.enable_pooled_dispatch()
        self._handles: list[InstanceHandle] = []
        #: running aggregate over the instances release_completed() let go
        self._released = MetricsSummary.empty()

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

    def submit_stream(
        self,
        arrivals: Iterable[float | tuple[float, Mapping[str, object]]],
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
        *,
        run: bool = True,
    ) -> list[InstanceHandle]:
        """Open-system helper: submit instances at the given arrival times.

        *arrivals* is an iterable of absolute simulated times, or of
        ``(time, source_values)`` pairs.  With plain times, *values*
        supplies the source values — either one mapping shared by every
        instance or a callable of the arrival index.  By default the clock
        is then advanced until all work drains; pass ``run=False`` to
        submit only.
        """
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
        instance_ids: Sequence[str] | None = None,
        run: bool = True,
    ) -> list[InstanceHandle]:
        """Closed-system helper: keep *concurrency* instances in flight.

        Submits *concurrency* instances immediately and replaces each one
        the moment it completes, until *n* have been submitted in total;
        then drains.  Returns the handles of all *n* instances.

        *instance_ids* (when given) supplies the id of each submission in
        order — the sharded runtime uses this to keep ids globally unique
        across shards.  ``run=False`` arms the loop without driving the
        clock (the replacement chain still fires once someone runs it);
        the returned list is the live handle list and keeps growing as
        replacements are submitted.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if instance_ids is not None and len(instance_ids) != n:
            raise ValueError(
                f"instance_ids must supply exactly n={n} ids, got {len(instance_ids)}"
            )
        handles: list[InstanceHandle] = []

        def source_for(index: int) -> Mapping[str, object] | None:
            return values(index) if callable(values) else values

        def submit_next() -> None:
            index = len(handles)
            if index >= n:
                return
            instance = self.engine.submit_instance(
                source_for(index),
                instance_id=instance_ids[index] if instance_ids is not None else None,
                on_complete=lambda metrics: submit_next(),
            )
            handle = InstanceHandle(self, instance)
            handles.append(handle)
            self._handles.append(handle)

        for _ in range(min(concurrency, n)):
            submit_next()
        if run:
            self.run()
        return handles

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

    @property
    def handles(self) -> tuple[InstanceHandle, ...]:
        """Every handle the service still tracks, in submission order.

        That is every handle it has issued, minus those
        :meth:`release_completed` let go.
        """
        return tuple(self._handles)

    @property
    def completed(self) -> tuple[InstanceHandle, ...]:
        """The finished handles among :attr:`handles` (released ones are gone)."""
        return tuple(h for h in self._handles if h.done)

    def release_completed(self) -> tuple[InstanceHandle, ...]:
        """Let go of every finished instance; returns the handles released.

        A long-lived caller (the server daemon, after persisting an
        epoch) calls this so the service's memory follows the instances
        in flight, not every instance it has ever served.  Released
        instances leave :attr:`handles` and the engine's instance list;
        their metrics are folded into a running aggregate first, so
        :meth:`summary` keeps covering them.  A handle the caller still
        holds stays fully readable.  An instance that is done but still
        has a query in flight is kept until that query has booked its
        units.
        """
        settled = {id(instance) for instance in self.engine.release_settled()}
        released = tuple(h for h in self._handles if id(h.instance) in settled)
        if released:
            self._handles = [h for h in self._handles if id(h.instance) not in settled]
            self._released = MetricsSummary.merge(
                self._released, summarize(h.metrics for h in released)
            )
        return released

    def summary(self) -> MetricsSummary:
        """Aggregate metrics over all finished instances, released or not.

        A service with no finished instances (nothing submitted yet, or
        everything still in flight) summarizes to a zeroed
        :class:`MetricsSummary` with ``count == 0`` rather than raising.
        With the query share cache armed, the summary carries its
        service-level hit/miss/coalesce counters; with cohort execution
        armed, its cohort hit/split totals.  After
        :meth:`release_completed` the released instances enter through
        :meth:`MetricsSummary.merge`: counts and totals stay exact, means
        and deviations agree with a never-released service to rounding.
        """
        summary = MetricsSummary.merge(
            self._released,
            summarize((h.metrics for h in self._handles if h.done), empty_ok=True),
        )
        cache = self.engine.query_cache
        if cache is not None:
            summary = replace(
                summary,
                query_cache_hits=cache.hits,
                query_cache_misses=cache.misses,
                query_cache_coalesced=cache.coalesced,
                query_cache_l2_hits=cache.l2_hits,
                query_cache_l2_misses=cache.l2_misses,
                query_cache_l2_promotions=cache.l2_promotions,
            )
        if self.engine.cohorts:
            summary = replace(
                summary,
                cohort_hits=self.engine.cohort_hits,
                cohort_splits=self.engine.cohort_splits,
            )
        return summary

    def dispatch_stats(self) -> dict:
        """Pooled-dispatch counters (zero under per-event dispatch)."""
        return {
            "pooled_batches": self.engine.pooled_batches,
            "pooled_events": self.engine.pooled_events,
        }

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
        registry = self.obs.registry
        simulation = self.backend.simulation
        database = self.backend.database
        registry.gauge("sim_time").set(simulation.now)
        registry.gauge("sim_events_executed").set(simulation.events_executed)
        registry.gauge("db_total_units").set(database.total_units)
        registry.gauge("db_mean_gmpl").set(database.mean_gmpl())
        registry.gauge("pooled_batches").set(self.engine.pooled_batches)
        registry.gauge("pooled_events").set(self.engine.pooled_events)
        registry.gauge("engine_arrival_runs").set(self.engine.arrival_runs)
        registry.gauge("engine_arrival_run_arrivals").set(self.engine.arrival_run_arrivals)
        plan = getattr(self.engine, "plan", None)  # the batched engine's
        if plan is not None:
            registry.gauge("engine_memo_states").set(len(plan.states))
            registry.gauge("engine_memo_hits").set(plan.memo_hits)
            registry.gauge("engine_memo_misses").set(plan.memo_misses)
            registry.gauge("engine_flow_traces").set(self.engine.flow_traces)
            registry.gauge("engine_flow_replays").set(self.engine.flow_replays)
            registry.gauge("engine_flow_fallbacks").set(self.engine.flow_fallbacks)
            registry.gauge("engine_launch_memo_entries").set(plan.launch_entries)
            registry.gauge("engine_launch_memo_hits").set(plan.launch_hits)
            registry.gauge("engine_hit_waves").set(self.engine.hit_waves)
            registry.gauge("engine_hit_wave_deliveries").set(self.engine.hit_wave_deliveries)
            registry.gauge("engine_bulk_joins").set(self.engine.bulk_joins)
            registry.gauge("engine_bulk_join_members").set(self.engine.bulk_join_members)
        released = self._released.count
        registry.gauge("instances_submitted").set(released + len(self._handles))
        registry.gauge("instances_done").set(
            released + sum(1 for h in self._handles if h.done)
        )
        cache = self.engine.query_cache
        if cache is not None:
            registry.gauge("query_cache_hits").set(cache.hits)
            registry.gauge("query_cache_misses").set(cache.misses)
            registry.gauge("query_cache_coalesced").set(cache.coalesced)
            if cache.l2 is not None:
                registry.gauge("query_cache_l2_hits").set(cache.l2_hits)
                registry.gauge("query_cache_l2_misses").set(cache.l2_misses)
                registry.gauge("query_cache_l2_promotions").set(cache.l2_promotions)
        if self.engine.cohorts:
            registry.gauge("cohort_hits").set(self.engine.cohort_hits)
            registry.gauge("cohort_splits").set(self.engine.cohort_splits)
        return registry.snapshot()

    def trace_groups(self) -> list[tuple[int, str, list]]:
        """Chrome-trace lanes: one per execution context (one here)."""
        return [(0, f"service:{self.schema.name}", self.obs.tracer.events())]

    def chrome_trace(self) -> dict:
        """The flight recorder as a Chrome-trace JSON object."""
        return export_chrome_trace(self.trace_groups(), armed=self.obs.enabled)

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

    def __repr__(self) -> str:
        released = self._released.count
        done = released + sum(1 for h in self._handles if h.done)
        return (
            f"<DecisionService {self.schema.name!r} {self.config.code} "
            f"backend={self.backend.name!r} "
            f"instances={done}/{released + len(self._handles)} done>"
        )
