"""The decision-flow execution engine (architecture of Figure 2).

The engine orchestrates, per the paper's execution algorithm (section 3):

1. **Evaluation phase** — fold newly arrived values into the snapshot and
   propagate consequences (delegated to :class:`InstanceRuntime.drain`);
   exit the instance when every target attribute is stable.
2. **Prequalifying phase** — build the candidate pool (options P/N, S/C).
3. **Scheduling phase** — pick candidates by the heuristic (E/C) under
   the %Permitted parallelism bound and dispatch their queries to the
   database server.

The engine is multi-instance: any number of flow instances share one
database server (and its simulated clock), which is how the bounded-
resource/throughput experiments of section 5 are run.

On instance completion the engine *halts immediately* (as the paper's
semantics allows once all targets are stable): in-flight queries are
cancelled at their next unit boundary and the units already processed
count toward Work.  Pass ``halt_policy="drain"`` to let them run to
completion instead (the difference is examined by an ablation benchmark).

Two engine-level extensions beyond the paper's experiments:

* **failure tolerance** — a query the database reports as *failed* still
  stabilizes its attribute, with an :class:`~repro.nulls.ExceptionValue`;
  downstream tasks and conditions continue with incomplete information
  ("e.g., if a database is down").
* **result sharing** (``share_results=True``) — concurrent instances with
  overlapping data share query results through a
  :class:`~repro.core.sharing.ResultShare` (the paper's §6 future-work
  direction): identical queries are answered from the table or joined to
  the in-flight duplicate instead of re-hitting the database.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Callable, Mapping

from repro.core.instance import InstanceRuntime
from repro.core.metrics import InstanceMetrics
from repro.core.scheduler import select_for_launch
from repro.core.schema import DecisionFlowSchema
from repro.core.sharing import ResultShare, UNSET, share_key
from repro.core.state import Enablement
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.nulls import ExceptionValue
from repro.obs import NULL_OBS, Observability
from repro.simdb.database import DatabaseServer, QueryShareCache

__all__ = ["Engine", "EngineObserver", "claim_instance_id"]


def claim_instance_id(
    instance_id: str | None,
    schema_name: str,
    seq: "itertools.count | None",
    claimed: set[str],
    scope: str = "engine",
) -> str:
    """Allocate or validate an instance id against the *claimed* set.

    Generated ids are ``{schema_name}#{n}`` (*n* drawn from *seq*, which an
    explicit id never reads) and skip any name a caller
    already claimed; an explicit id that is already claimed raises.  The
    caller adds the returned id to *claimed* once the submission is
    accepted (a rejected submission must not burn the name).  Shared by
    the engine and the sharded runtime so preassigned ids can never
    drift from engine-generated ones.
    """
    if instance_id is None:
        instance_id = f"{schema_name}#{next(seq)}"
        while instance_id in claimed:
            instance_id = f"{schema_name}#{next(seq)}"
    elif instance_id in claimed:
        raise ExecutionError(
            f"duplicate instance id {instance_id!r}: ids must be unique per {scope}"
        )
    return instance_id


class EngineObserver:
    """No-op observation hooks for engine events.

    Subclass and override the hooks you care about; the engine calls them
    synchronously at the corresponding points of the execution algorithm.
    The high-level :class:`repro.api.DecisionService` builds its typed
    event system on top of this seam.
    """

    def on_instance_start(self, instance: InstanceRuntime) -> None:
        """An instance began its evaluation phase."""

    def on_launch(
        self,
        instance: InstanceRuntime,
        name: str,
        *,
        speculative: bool,
        shared: str | None,
    ) -> None:
        """A task launch was decided for *name*.

        ``shared`` is ``None`` for a real database dispatch, ``"hit"`` when
        the result came from the share table, ``"join"`` when the launch
        joined another instance's in-flight query.
        """

    def on_query_done(
        self, instance: InstanceRuntime, name: str, *, units: int, completed: bool
    ) -> None:
        """The database finished (or cancelled) a query this instance issued."""

    def on_instance_complete(self, instance: InstanceRuntime) -> None:
        """All target attributes of the instance are stable."""


class _SharedWait:
    """Placeholder in ``instance.inflight`` for a joined (shared) query."""

    __slots__ = ("key",)

    #: a joined query costs the database nothing, so it must not consume
    #: a %Permitted parallelism slot in the scheduler's in-flight count.
    counts_for_parallelism = False

    def __init__(self, key: tuple):
        self.key = key

    def cancel(self) -> None:  # waiters have nothing to cancel
        return None


class _ArrivalRun:
    """Arrivals for one instant that one calendar event starts, in order.

    The event is the *first* arrival's start event and the run itself its
    callback; ``arrivals`` (None while ``first`` is alone: a lone arrival
    pays for no list) are the starts it stands in for, ``next`` indexes the
    one to start next, and the run takes another arrival only while
    ``sim.scheduled`` still reads ``marker`` — while that arrival's own
    start event would have had the next consecutive seq.
    """

    __slots__ = ("engine", "first", "arrivals", "next", "event", "marker")

    def __init__(self, engine: "Engine", first: InstanceRuntime):
        self.engine, self.first = engine, first
        self.arrivals: list[InstanceRuntime] | None = None
        self.next = 0

    def __call__(self) -> None:
        self.engine._fire_run(self)


class Engine:
    """Executes decision-flow instances against a database server."""

    def __init__(
        self,
        schema: DecisionFlowSchema,
        strategy: Strategy,
        database: DatabaseServer,
        halt_policy: str = "cancel",
        share_results: bool = False,
        observer: EngineObserver | None = None,
        query_cache: QueryShareCache | bool | None = None,
        cohorts: bool = False,
        obs: Observability | None = None,
    ):
        if halt_policy not in ("cancel", "drain"):
            raise ValueError(f"halt_policy must be 'cancel' or 'drain', got {halt_policy!r}")
        self.schema = schema
        self.strategy = strategy
        self.database = database
        self.sim = database.sim
        self.halt_policy = halt_policy
        self.observer = observer
        self.share: ResultShare | None = ResultShare() if share_results else None
        if query_cache is True:
            query_cache = QueryShareCache(database)
        self.query_cache: QueryShareCache | None = query_cache or None
        self.instances: list[InstanceRuntime] = []
        self._instance_ids: set[str] = set()
        self._id_next = 1  # the number the next generated id tries first
        self._on_complete: dict[str, Callable[[InstanceMetrics], None]] = {}
        self._handle_key: dict[object, tuple] = {}
        #: the arrival run still taking arrivals, if any, and the one of
        #: several being fired; runs opened and the arrivals they took
        self._run: _ArrivalRun | None = None
        self._firing: _ArrivalRun | None = None
        self.arrival_runs = self.arrival_run_arrivals = 0
        #: instant-pool dispatch stats (0 until enable_pooled_dispatch)
        self.pooled_batches = 0
        self.pooled_events = 0
        #: Cohort execution is an instance-dedup layer only the batched
        #: engine implements (see BatchedEngine); the reference engine
        #: accepts the flag for config parity and runs every instance
        #: individually, leaving the counters at zero.
        self.cohorts = bool(cohorts)
        self.cohort_hits = 0
        self.cohort_splits = 0
        #: Observability (repro.obs): disarmed contexts share NULL_OBS and
        #: pay one boolean test per hook; armed ones get pre-bound
        #: instruments so hot paths never do registry lookups.
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        if self._obs_on:
            registry = self.obs.registry
            self._obs_rounds = registry.counter("engine_scheduling_rounds")
            self._obs_launches = registry.counter("engine_queries_launched")
            self._obs_share_hits = registry.counter("engine_share_hits")
            self._obs_share_joins = registry.counter("engine_share_joins")
            self._obs_query_wall = registry.histogram("query_wall_seconds")
            self._obs_completions = registry.counter("engine_instances_completed")
            #: perf_counter at dispatch, keyed (instance_id, attribute) —
            #: closed in _query_done into a query-lifecycle span.
            self._obs_query_start: dict[tuple[str, str], float] = {}

    # -- public API -----------------------------------------------------------

    def submit_instance(
        self,
        source_values: Mapping[str, object] | None = None,
        at: float | None = None,
        instance_id: str | None = None,
        on_complete: Callable[[InstanceMetrics], None] | None = None,
    ) -> InstanceRuntime:
        """Create an instance and schedule its start (default: immediately).

        Nothing is claimed until the submission is accepted: a refused one
        (a past start, sources the schema misses) leaves its id — explicit
        or the generated one it would have got — free, and is in no run.

        Consecutive arrivals for one instant share one calendar event, an
        *arrival run*: an arrival joins the open run when it starts at the
        run's instant and nothing has been scheduled since the run's last
        arrival — exactly when its own start event would have sorted
        directly behind that arrival's — and opens a new run otherwise.
        The event starts them in order (:meth:`_fire_run`), so traces are
        those of one start event each, while :attr:`Simulation.pending`
        and ``events_executed`` count a run once (on both engines alike).
        """
        sim = self.sim
        start_time = sim.now if at is None else at
        # A generated id is drawn from a copy of the counter, which moves
        # once nothing can refuse the submission any more.
        drawn = itertools.count(self._id_next) if instance_id is None else None
        instance_id = claim_instance_id(
            instance_id, self.schema.name, drawn, self._instance_ids
        )
        if start_time < sim.now:
            raise ExecutionError(
                f"instance {instance_id!r}: cannot start at past time {start_time} "
                f"(simulation clock is at {sim.now})"
            )
        instance = self._make_instance(source_values or {}, instance_id, start_time)
        if drawn is not None:
            self._id_next = next(drawn)
        self._instance_ids.add(instance_id)
        self.instances.append(instance)
        if on_complete is not None:
            self._on_complete[instance_id] = on_complete
        run = self._run
        if run is not None and run.marker == sim.scheduled and run.event.time == start_time:
            if run.arrivals is None:
                run.arrivals = [run.first]
            run.arrivals.append(instance)
            sim.stand_in(run.event)
        else:
            self._run = run = _ArrivalRun(self, instance)
            run.event = sim.schedule_at(start_time, run)
            self.arrival_runs += 1
        self.arrival_run_arrivals += 1
        run.marker = sim.scheduled
        return instance

    def run(self, until: float | None = None) -> None:
        """Advance the shared simulation clock."""
        self.sim.run(until)

    def release_settled(self) -> list[InstanceRuntime]:
        """Stop listing the instances nothing can change any more.

        An instance is settled once it is done *and* has no query in
        flight (a straggler still books its units on the finished
        instance).  Settled instances leave :attr:`instances` and are
        returned; whoever still references one keeps a fully readable
        object.  Their ids stay claimed, so a later submission cannot
        reuse one.
        """
        settled: list[InstanceRuntime] = []
        kept: list[InstanceRuntime] = []
        for instance in self.instances:
            (settled if instance.done and not instance.inflight else kept).append(instance)
        self.instances = kept
        return settled

    def run_single(self, source_values: Mapping[str, object] | None = None) -> InstanceMetrics:
        """Convenience: execute one instance to completion and return metrics."""
        instance = self.submit_instance(source_values)
        self.sim.run()
        if not instance.done:
            unstable = [
                t for t in self.schema.target_names if not instance.cells[t].stable
            ]
            raise ExecutionError(
                f"instance {instance.instance_id} stalled; unstable targets: {unstable}"
            )
        return instance.metrics

    # -- internal event handlers -----------------------------------------------

    def _make_instance(
        self,
        source_values: Mapping[str, object],
        instance_id: str,
        start_time: float,
    ) -> InstanceRuntime:
        """Instantiate the runtime representation of one flow instance.

        The seam the :class:`~repro.core.batch_engine.BatchedEngine`
        overrides to substitute its flat-array instances; everything else
        in the submit path (id allocation, validation, scheduling the
        start event) is engine-independent.
        """
        return InstanceRuntime(
            self.schema, self.strategy, instance_id, source_values, start_time
        )

    def _fire_run(self, run: _ArrivalRun) -> None:
        """Start *run*'s arrivals from ``run.next`` on, each as its own
        start event would have.

        After a start that scheduled something the rest would have waited
        for (a lower sub-priority at this instant: nothing of the
        engine's own) the rest goes back at the run's seq, as a hit
        wave's does; so it does — as an instant pool's unfired members
        do — when a start raises.  ``next`` moves as a start *begins*:
        the one that raised is not started again.
        """
        if self._run is run:
            self._run = None  # an arrival from here on is a later event
        arrivals = run.arrivals
        if arrivals is None:  # a lone arrival: nothing to order it against
            run.event = self._firing = None
            return self._start(run.first)
        sim, event, n = self.sim, run.event, len(arrivals)
        self._firing = run
        t0 = perf_counter() if self._obs_on else 0.0
        try:
            while run.next < n:
                instance = arrivals[run.next]
                run.next += 1
                marker = sim.scheduled
                self._start(instance)
                if run.next < n and sim.scheduled != marker and sim.preempted(event):
                    return sim.resume(event, run)
        except BaseException:
            if run.next < n:
                sim.resume(event, run)
            raise
        finally:
            if self._obs_on:
                args = {"time": event.time, "arrivals": n, "started": run.next}
                self.obs.tracer.record("engine.arrival_run", t0, perf_counter(), args=args)
        self._firing = run.event = None  # its callback is the run: leave no cycle behind

    def _start(self, instance: InstanceRuntime) -> None:
        if self._obs_on:
            t0 = perf_counter()
            instance.start()
            self.obs.tracer.record(
                "engine.start_state",
                t0,
                perf_counter(),
                args={"instance": instance.instance_id},
            )
        else:
            instance.start()
        if self.observer is not None:
            self.observer.on_instance_start(instance)
        self._after_event(instance)

    def _after_event(self, instance: InstanceRuntime) -> None:
        if self._obs_on:
            t0 = perf_counter()
            self._advance(instance)
            self.obs.tracer.record(
                "engine.round",
                t0,
                perf_counter(),
                args={"instance": instance.instance_id},
            )
            self._obs_rounds.inc()
            return
        self._advance(instance)

    def _advance(self, instance: InstanceRuntime) -> None:
        """One scheduling round: drain, finish-check, cancel, select, launch."""
        instance.drain()
        if instance.targets_stable():
            self._finish(instance)
            return
        self._cancel_unneeded(instance)
        for name in self._select(instance):
            self._launch(instance, name)

    def _cancel_unneeded(self, instance: InstanceRuntime) -> None:
        if self.strategy.cancel_unneeded and self._tracks_unneeded(instance):
            for name, handle in list(instance.inflight.items()):
                if self._is_unneeded(instance, name) and not self._has_waiters(handle):
                    handle.cancel()

    # Instance-representation seams (overridden by the batched engine,
    # like _make_instance/_stage_launch): the drain/finish/cancel/launch
    # protocol above stays engine-independent.

    def _tracks_unneeded(self, instance: InstanceRuntime) -> bool:
        return instance.needed is not None

    def _is_unneeded(self, instance: InstanceRuntime, name: str) -> bool:
        return instance.needed.is_unneeded(name)

    def _select(self, instance: InstanceRuntime):
        return select_for_launch(instance)

    def _has_waiters(self, handle: object) -> bool:
        if self.share is not None:
            key = self._handle_key.get(handle)
            if key is not None and self.share.waiter_count(key) > 0:
                return True
        if self.query_cache is not None and self.query_cache.waiter_count(handle) > 0:
            # Cancelling a coalesced primary would strand its followers
            # behind a full-cost reissue; keep it running instead.
            return True
        return False

    def _submit_query(
        self,
        task,
        values: Mapping[str, object] | None,
        on_complete,
        share_key_hint: tuple | None = None,
    ) -> object:
        """Dispatch one query, through the share cache when configured.

        ``share_key_hint`` lets callers that already computed the share
        key (the launch path with ``share_results`` on, the share-layer
        reissue) avoid freezing the input values a second time.
        """
        if self.query_cache is None:
            return self.database.submit(task.cost, on_complete)
        base = share_key_hint if share_key_hint is not None else share_key(task.name, values)
        return self.query_cache.submit(base + (task.cost,), task.cost, on_complete)

    def _stage_launch(self, instance: InstanceRuntime, name: str):
        """Gather the launch inputs and mark *name* launched.

        The instance-representation-specific half of a launch — the
        batched engine overrides it to read its flat arrays — while the
        sharing/dispatch protocol below stays engine-independent.
        Returns ``(task, values, speculative)``.
        """
        task = self.schema[name].task
        # Inputs are stable by the READY invariant, and the paper's fixed-data
        # assumption makes the result independent of *when* the query runs —
        # this is what makes speculative execution (and result sharing) safe.
        values = instance.stable_values(task.inputs)
        speculative = instance.cells[name].enablement is Enablement.UNKNOWN
        instance.launched.add(name)
        return task, values, speculative

    def _launch(self, instance: InstanceRuntime, name: str) -> None:
        task, values, speculative = self._stage_launch(instance, name)

        key: tuple | None = None
        if self.share is not None:
            key = share_key(task.name, values)
            cached = self.share.get(key)
            if cached is not UNSET:
                instance.metrics.shared_hits += 1
                if self._obs_on:
                    self._obs_share_hits.inc()
                    self.obs.tracer.instant(
                        "query.share_hit",
                        args={"instance": instance.instance_id, "attribute": name},
                    )
                if self.observer is not None:
                    self.observer.on_launch(
                        instance, name, speculative=speculative, shared="hit"
                    )
                # Deliver asynchronously so state changes stay event-driven.
                # Band 2: zero-delay deliveries fire after any database
                # completion at the same instant, under either kernel.
                self.sim.schedule(
                    0.0, lambda: self._shared_done(instance, name, cached), priority=(2, 0)
                )
                return
            if self.share.is_pending(key):
                instance.metrics.shared_joins += 1
                if self._obs_on:
                    self._obs_share_joins.inc()
                    self.obs.tracer.instant(
                        "query.share_join",
                        args={"instance": instance.instance_id, "attribute": name},
                    )
                instance.inflight[name] = _SharedWait(key)
                if self.observer is not None:
                    self.observer.on_launch(
                        instance, name, speculative=speculative, shared="join"
                    )
                self.share.join(
                    key, lambda value: self._shared_done(instance, name, value)
                )
                return
            self.share.mark_pending(key)

        value = task.compute(values)
        instance.metrics.queries_launched += 1
        if self._obs_on:
            self._obs_launches.inc()
            self._obs_query_start[(instance.instance_id, name)] = perf_counter()
        if speculative:
            instance.speculative_launch.add(name)
            instance.metrics.speculative_launched += 1
        if self.observer is not None:
            self.observer.on_launch(instance, name, speculative=speculative, shared=None)
        handle = self._submit_query(
            task,
            values,
            lambda processed, completed: self._query_done(
                instance, name, value, key, processed, completed
            ),
            share_key_hint=key,
        )
        instance.inflight[name] = handle
        if key is not None:
            self._handle_key[handle] = key

    def _query_done(
        self,
        instance: InstanceRuntime,
        name: str,
        value: object,
        key: tuple | None,
        processed: int,
        completed: bool,
    ) -> None:
        if self._obs_on:
            started = self._obs_query_start.pop((instance.instance_id, name), None)
            if started is not None:
                now = perf_counter()
                self.obs.tracer.record(
                    "query",
                    started,
                    now,
                    args={
                        "instance": instance.instance_id,
                        "attribute": name,
                        "units": processed,
                        "completed": completed,
                    },
                )
                self._obs_query_wall.observe(now - started)
        handle = instance.inflight.pop(name, None)
        if handle is not None:
            self._handle_key.pop(handle, None)
        instance.metrics.work_units += processed
        if self.observer is not None:
            self.observer.on_query_done(
                instance, name, units=processed, completed=completed
            )

        if completed:
            instance.metrics.queries_completed += 1
            if handle is not None and getattr(handle, "failed", False):
                instance.metrics.queries_failed += 1
                value = ExceptionValue(f"query for {name!r} failed")
        else:
            instance.metrics.queries_cancelled += 1
            if (
                name in instance.speculative_launch
                and instance.cells[name].enablement is Enablement.DISABLED
            ):
                instance.metrics.speculative_wasted_queries += 1
                instance.metrics.speculative_wasted_units += processed

        if completed and not instance.done:
            accepted = instance.apply_query_result(name, value)
            if not accepted:
                instance.metrics.speculative_wasted_queries += 1
                instance.metrics.speculative_wasted_units += processed
        if not instance.done:
            self._after_event(instance)
        # Publish after the issuer's own advance: the issuer keeps ownership
        # of downstream queries, and waiters join those instead of racing to
        # issue them first.  Publishing happens even for finished instances —
        # waiters from other instances may still be blocked on this key.
        if key is not None:
            self._resolve_share(instance, name, value, key, completed, handle)

    def _resolve_share(
        self,
        instance: InstanceRuntime,
        name: str,
        value: object,
        key: tuple,
        completed: bool,
        handle: object,
    ) -> None:
        assert self.share is not None
        if completed:
            failed = handle is not None and getattr(handle, "failed", False)
            # Failures resolve current waiters but are not cached, so the
            # next instance retries the query.
            self.share.publish(key, value, cache=not failed)
            return
        # The issuer was cancelled; reissue on behalf of any waiters that
        # joined before the cancellation took effect.
        stranded = self.share.abandon(key)
        if not stranded:
            return
        self.share.mark_pending(key)
        for deliver in stranded:
            self.share.join(key, deliver)
        task = self.schema[name].task
        holder: dict[str, object] = {}

        def on_reissue(processed: int, done: bool) -> None:
            reissued_handle = holder.get("handle")
            failed = reissued_handle is not None and getattr(reissued_handle, "failed", False)
            if done and not failed:
                self.share.publish(key, value, cache=True)
            else:
                outcome = ExceptionValue(f"query for {name!r} failed") if failed else value
                self.share.publish(key, outcome, cache=False)

        holder["handle"] = self._submit_query(
            task, None, on_reissue, share_key_hint=key
        )

    def _shared_done(self, instance: InstanceRuntime, name: str, value: object) -> None:
        """A shared result (cache hit or resolved join) reaches an instance."""
        instance.inflight.pop(name, None)
        if instance.done:
            return
        # No database units were spent by this instance, so a later
        # disabled-condition resolution must not book wasted work for it.
        instance.speculative_launch.discard(name)
        instance.apply_query_result(name, value)
        self._after_event(instance)

    # -- pooled dispatch -------------------------------------------------------

    def enable_pooled_dispatch(self) -> None:
        """Register this engine as the simulation's instant-pool consumer.

        After this, :meth:`Simulation.run` drains the calendar through
        :meth:`Simulation.step_instant`, handing every same-``(time,
        band)`` event pool to :meth:`drain_pooled` in one call.  The
        observable trace is unchanged by construction — events still fire
        in exactly per-event order — but the per-event step loop (head
        re-peek, clock write, priority bookkeeping) is paid once per pool
        instead of once per event.
        """
        if self._obs_on:
            # The armed wrapper times each pool drain (the step_instant /
            # fire_pooled bucket span) without touching the disarmed path.
            self.sim.set_batch_consumer(self._drain_pooled_observed)
        else:
            self.sim.set_batch_consumer(self.drain_pooled)

    def _drain_pooled_observed(self, events) -> int:
        pool = len(events)
        t0 = perf_counter()
        consumed = self.drain_pooled(events)
        self.obs.tracer.record(
            "des.pool",
            t0,
            perf_counter(),
            args={"time": self.sim.now, "pool": pool, "consumed": consumed},
        )
        return consumed

    def drain_pooled(self, events) -> int:
        """Consume one instant pool, preserving per-event dispatch order.

        Delegates the fire loop to :meth:`Simulation.fire_pooled`: events
        run in exactly per-event order, and when a callback schedules an
        event that sorts *before* the rest of the pool (a closed-loop
        refill start, say, which per-event stepping would run next),
        consumption stops and the kernel re-queues the remainder.
        Subclasses layer batch-level fast paths on top.
        """
        consumed = self.sim.fire_pooled(events)
        self.pooled_batches += 1
        self.pooled_events += consumed
        return consumed

    def _finish(self, instance: InstanceRuntime) -> None:
        instance.done = True
        instance.metrics.finish_time = self.sim.now
        instance.finalize_metrics()
        if self._obs_on:
            self._obs_completions.inc()
            self.obs.tracer.instant(
                "instance.complete", args={"instance": instance.instance_id}
            )
        if self.halt_policy == "cancel":
            for handle in instance.inflight.values():
                if not self._has_waiters(handle):
                    handle.cancel()
        if self.observer is not None:
            self.observer.on_instance_complete(instance)
        callback = self._on_complete.pop(instance.instance_id, None)
        if callback is not None:
            callback(instance.metrics)

    def __repr__(self) -> str:
        done = sum(1 for i in self.instances if i.done)
        shared = " shared" if self.share is not None else ""
        return (
            f"<Engine {self.schema.name!r} strategy={self.strategy.code}{shared} "
            f"instances={done}/{len(self.instances)} done>"
        )
