"""The product engine's shell: :class:`BatchedEngine`.

It executes the same algorithm as the reference :class:`repro.oracle.Engine`
— identical launches, metrics and observer events — over flat-array
instances (:mod:`repro.core.batch_instance`), one tier per module:

* here, the shell: submission in *arrival runs* (one event starts a run
  of same-instant arrivals), each arrival with a start key a *row*
  (:mod:`repro.core.rows`) until its start decides what it becomes,
  rounds — a transition-memo step where the plan has one, the kernel's
  round otherwise — the launch path under the launch memo, finishing and
  settling;
* here too, *hit waves*: a run of query-memo hits delivered by one event,
  whose longest run of deliveries that launch, finish and cancel nothing
  before the last is one *wave step*, looked up and filed in the
  transition memo under its ``(slot, signature)`` pairs (a cancelled
  wait, a cohort member, an instance recording a flow trace, a throttled
  plan and an armed run keep one round per delivery);
* with a query cache, two collaborators share whole instances, each built
  only where it is armed: the flow memo replays a valuation seen before
  (:mod:`repro.core.flow_memo`) — a row that never runs for itself, whose
  waves run with the other replays of its instant as one event per wave
  and which ends holding its trace's shared final record — and
  same-instant copies of a new one ride the first in lockstep as a
  *cohort* (:mod:`repro.core.cohorts`).  Where neither applies, the row
  becomes the :class:`BatchedInstance` it stands for.

It shares only pure helpers (:mod:`repro.core.engine`) with the reference
engine, so a fault in either shell shows in the differential suites
(``tests/_support``), which hold every trace here to the reference
engine's, drained one event at a time.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from repro.core.batch_instance import _NO_INFLIGHT, _NO_NAMES, _NO_QUEUE, BatchedInstance
from repro.core.cohorts import EXITS, Cohorts
from repro.core.engine import (
    EngineObserver,
    check_start_time,
    claim_instance_id,
    counted_inflight,
    permitted_slots,
)
from repro.core.flow_memo import FlowMemo
from repro.core.metrics import InstanceMetrics
from repro.core.plan import CompiledPlan, E_DISABLED, E_UNKNOWN, EV_CANCELLED, R_READY
from repro.core.rows import Row, _Valuation
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.nulls import NULL, ExceptionValue
from repro.obs import NULL_OBS, Observability
from repro.simdb.database import DatabaseServer, QueryShareCache
from repro.values import keys, share_key

__all__ = ["BatchedEngine", "BatchedInstance"]


class _ArrivalRun:
    """Arrivals for one instant that one calendar event starts, in order.

    The event is the *first* arrival's start event and the run itself its
    callback; ``arrivals`` (None while ``first`` is alone: a lone arrival
    pays for no list) are the starts it stands in for, ``next`` indexes the
    one to start next, and the run takes another arrival only while
    ``sim.scheduled`` still reads ``marker`` — while that arrival's own
    start event would have had the next consecutive seq.  ``valuation``
    is its last row's, which the next row of that key shares.
    """

    __slots__ = ("engine", "first", "arrivals", "next", "event", "marker", "valuation")

    def __init__(self, engine: "BatchedEngine", first: "BatchedInstance | Row"):
        self.engine, self.first = engine, first
        self.arrivals: list[BatchedInstance | Row] | None = None
        self.next = 0
        self.valuation: _Valuation | None = None

    def __call__(self) -> None:
        self.engine._fire_run(self)


class _HitWave:
    """A run of one instance's query-memo hits, delivered by one event.

    ``hits`` are ``(name, follower, launch-memo entry)`` in launch order.
    ``event`` sits where the first hit's own zero-delay delivery would,
    and the wave takes further hits only while ``sim.scheduled`` stays at
    ``marker``: exactly while the events it stands for would have had
    consecutive seqs.
    """

    __slots__ = ("instance", "hits", "event", "marker")

    def __init__(self, instance: "BatchedInstance", hit: tuple):
        self.instance, self.hits = instance, [hit]


def _tier_count(tier: str, name: str, off=0) -> property:
    """A public engine counter its reuse tier's collaborator keeps as
    *name*: *off* where the tier (``engine.<tier>``) is not armed."""

    def read(engine):
        collaborator = getattr(engine, tier)
        return off if collaborator is None else getattr(collaborator, name)

    return property(read)


class BatchedEngine:
    """Executes decision-flow instances via a compiled plan and flat state.

    The product engine (``ExecutionConfig(engine="batched")``, the
    default): the reference engine's constructor, submit surface, observer
    hooks and errors, over a shell of its own, index-based — a round runs
    the propagation kernel only where the plan's transition memo has no
    step to replay (:meth:`_advance`).  The reuse tiers above the
    transition memo are collaborators, each present only where it is
    armed.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        strategy: Strategy,
        database: DatabaseServer,
        halt_policy: str = "cancel",
        observer: EngineObserver | None = None,
        query_cache: QueryShareCache | bool | None = None,
        obs: Observability | None = None,
        cohorts: bool = True,
    ):
        if halt_policy not in ("cancel", "drain"):
            raise ValueError(f"halt_policy must be 'cancel' or 'drain', got {halt_policy!r}")
        self.schema = schema
        self.strategy = strategy
        self.database = database
        self.sim = database.sim
        self.halt_policy = halt_policy
        self.observer = observer
        if query_cache is True:
            query_cache = QueryShareCache(database)
        self.query_cache: QueryShareCache | None = query_cache or None
        #: what it holds: instances, and the rows of lockstep riders
        self.instances: list[BatchedInstance | Row] = []
        #: the ids of the instances held, claimed until released
        self._instance_ids: set[str] = set()
        self._id_next = 1  # the number the next generated id tries first
        self._on_complete: dict[str, Callable[[InstanceMetrics], None]] = {}
        #: the arrival run still taking arrivals, if any, and the one of
        #: several being fired; runs opened and the arrivals they took
        self._run: _ArrivalRun | None = None
        self._firing: _ArrivalRun | None = None
        self.arrival_runs = self.arrival_run_arrivals = 0
        #: waves the flow memo's replay runs took: ``sim.scheduled`` moves
        #: they need not probe for (they sort behind any run being fired)
        self._replayed = 0
        #: scheduling rounds run, queries launched and instances finished,
        #: on every path (flow replays' and wave steps' included)
        self.scheduling_rounds = self.queries_launched = self.instances_completed = 0
        #: Observability (repro.obs): spans and the query-wall histogram.
        #: Disarmed contexts share NULL_OBS and pay one boolean test per hook.
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        t0 = perf_counter()
        self.plan = CompiledPlan(schema, strategy)
        if self._obs_on:
            args = {"schema": schema.name, "nodes": len(self.plan.names)}
            self.obs.tracer.record("plan.compile", t0, perf_counter(), args=args)
            self._obs_query_wall = self.obs.registry.histogram("query_wall_seconds")
            #: perf_counter at dispatch, keyed (instance_id, attribute) —
            #: closed in _take_result into a query-lifecycle span.
            self._obs_query_start: dict[tuple[str, str], float] = {}
        #: The reuse tiers that ride the query cache, each a collaborator
        #: built only where it is armed (None elsewhere): lockstep cohorts
        #: (:class:`~repro.core.cohorts.Cohorts` says where they are exact;
        #: ``cohorts=False`` is a test seam) and the flow memo, armed where
        #: the transition memo is (:class:`~repro.core.flow_memo.FlowMemo`).
        armed = self.query_cache is not None
        self._cohorts = (
            Cohorts(self)
            if cohorts and armed and self.plan.start_cache_ok and strategy.permitted >= 100
            else None
        )
        self._flows = FlowMemo(self) if armed and self.plan.memo else None
        #: whether an arrival is keyed (a row until it starts): where a tier reads the key
        self._keyed = self.plan.start_cache_ok and (
            self._cohorts is not None or self._flows is not None
        )
        #: the stage record the cohort tier captures while its
        #: representative advances: what `_launch` appends to
        self._recording = None
        if self.query_cache is None:
            # The launch memo (:meth:`_launch`) files cache keys, so without
            # a cache no task is on it.
            self.plan.launch_slots = [None] * self.plan.n
        #: the hit wave still taking deliveries, if any
        self._wave: _HitWave | None = None
        #: waves fired, their deliveries, and the waves that gave way mid-run
        self.hit_waves = self.hit_wave_deliveries = self.hit_wave_splits = 0
        #: Wave steps (:meth:`_compose`) need the memo's unthrottled event
        #: keys, and an armed run records a span for every delivery's round.
        self._composing = self.plan.memo and not self.plan.throttled and not self._obs_on
        #: wave steps taken off the memo, filed, and refused by reason (kept for tests)
        self.wave_steps = {"taken": 0, "filed": 0, "unfiled": 0, "full": 0}

    # -- public API -----------------------------------------------------------

    def submit_instance(
        self,
        source_values: Mapping[str, object] | None = None,
        at: float | None = None,
        instance_id: str | None = None,
        on_complete: Callable[[InstanceMetrics], None] | None = None,
    ) -> BatchedInstance | Row:
        """:meth:`Engine.submit_instance <repro.oracle.engine.Engine.submit_instance>`
        in *arrival runs*: an arrival joins the open run when it starts at
        the run's instant and nothing has been scheduled since the run's
        last arrival — exactly when its own start event would have sorted
        directly behind that arrival's — and opens a new run otherwise.
        One event starts a run's arrivals in order (:meth:`_fire_run`), so
        traces are those of one start event each, while
        :attr:`Simulation.pending` and ``events_executed`` count a run once.
        An arrival with a start key is a :class:`Row` until it starts
        (:meth:`_start`), sharing the valuation of the row right before it
        if that has its key; one with none is an instance from the start.
        """
        sim, plan = self.sim, self.plan
        start_time = sim.now if at is None else at
        # A generated id is drawn from a copy of the counter, which moves
        # once nothing can refuse the submission any more.
        drawn = itertools.count(self._id_next) if instance_id is None else None
        instance_id = claim_instance_id(instance_id, self.schema.name, drawn, self._instance_ids)
        check_start_time(instance_id, start_time, sim.now)
        source_values = source_values or {}
        names = plan.schema.source_names
        plan.schema.check_sources(source_values)
        run = self._run
        joins = run is not None and run.marker == sim.scheduled and run.event.time == start_time
        # A refused value has no key (repro.values.keys): such an arrival
        # is an instance from the start, as is every one where no tier keys.
        key = keys(map(source_values.__getitem__, names)) if self._keyed else None
        if key is None:
            sources = {name: source_values[name] for name in names}
            instance = BatchedInstance(plan, instance_id, sources, None, start_time)
        else:
            valuation = run.valuation if joins else None
            if valuation is None or valuation.key != key:
                sources = {name: source_values[name] for name in names}
                valuation = _Valuation(plan, key, sources)
            instance = Row(instance_id, start_time, valuation)
        if drawn is not None:
            self._id_next = next(drawn)
        self._instance_ids.add(instance_id)
        self.instances.append(instance)
        if on_complete is not None:
            self._on_complete[instance_id] = on_complete
        if joins:
            if run.arrivals is None:
                run.arrivals = [run.first]
            run.arrivals.append(instance)
            sim.stand_in(run.event)
        else:
            self._run = run = _ArrivalRun(self, instance)
            run.event = sim.schedule_at(start_time, run)
            self.arrival_runs += 1
        if key is not None:
            run.valuation = valuation
        self.arrival_run_arrivals += 1
        run.marker = sim.scheduled
        return instance

    def release_settled(self) -> list[BatchedInstance]:
        """:meth:`Engine.release_settled <repro.oracle.engine.Engine.release_settled>`,
        each released instance unlinked from its cohort: settled, it is
        past every straggler, so nothing reaches the cohort through it any
        more (see :class:`~repro.core.cohorts._Cohort`)."""
        settled = [i for i in self.instances if i.done and not i.inflight]
        if settled:
            self.instances = [i for i in self.instances if not i.done or i.inflight]
            # rebuilt, not emptied: a set's table never shrinks on discard
            self._instance_ids = {i.instance_id for i in self.instances}
        for instance in settled:
            if type(instance) is Row:  # its link is its answer, and leads to no row
                instance = instance.materialized
                if instance is None:
                    continue
            instance._cohort = None
        return settled

    # -- the shell: starts, rounds, completions, halting ----------------------

    def _fire_run(self, run: _ArrivalRun) -> None:
        """Start *run*'s arrivals from ``run.next`` on, each as its own
        start event would have.  After a start that scheduled something
        the rest would have waited for (a lower sub-priority at this
        instant: nothing of the engine's own) the rest goes back at the
        run's seq, as a hit wave's does; so it does — as an instant pool's
        unfired members do — when a start raises.  ``next`` moves as a
        start *begins*: the one that raised is not started again."""
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
                marker = sim.scheduled - self._replayed
                self._start(instance)
                if (
                    run.next < n
                    and sim.scheduled - self._replayed != marker
                    and sim.preempted(event)
                ):
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

    def _start_own(self, instance: BatchedInstance) -> None:
        """Start *instance* for itself: its start state, then a round."""
        t0 = perf_counter() if self._obs_on else 0.0
        instance.start()
        if self._obs_on:
            args = {"instance": instance.instance_id}
            self.obs.tracer.record("engine.start_state", t0, perf_counter(), args=args)
        if self.observer is not None:
            self.observer.on_instance_start(instance)
        self._after_event(instance)

    def _after_event(self, instance: BatchedInstance) -> None:
        self.scheduling_rounds += 1
        if not self._obs_on:
            return self._advance(instance)
        t0 = perf_counter()
        self._advance(instance)
        args = {"instance": instance.instance_id}
        self.obs.tracer.record("engine.round", t0, perf_counter(), args=args)

    def _advance(self, instance: BatchedInstance) -> None:
        """Second half of a memoized round, or the kernel's whole round."""
        if instance._state is not None and (
            instance._event is not None or instance._enter(EV_CANCELLED)
        ):
            launches = instance._event[5]
            instance._event = None
            state = instance._state
            if state.done:
                self._finish(instance)
                return
            if state.scan:
                self._cancel_unneeded(instance)
            for name in launches:
                self._launch(instance, name)
            return
        missed, instance._event = instance._event, None
        if missed is None:
            return self._round(instance)
        metrics = instance._metrics
        queries = metrics.speculative_wasted_queries
        units = metrics.speculative_wasted_units
        self._round(instance)
        self.plan.record(
            *missed,
            instance,
            metrics.speculative_wasted_queries - queries,
            metrics.speculative_wasted_units - units,
        )

    def _round(self, instance: BatchedInstance) -> None:
        """The kernel's round: drain, finish-check, cancel, select, launch."""
        instance.drain()
        if instance.targets_stable():
            self._finish(instance)
            return
        self._cancel_unneeded(instance)
        names = self.plan.names
        for i in self._select_for_launch(instance):
            self._launch(instance, names[i])

    def _cancel_unneeded(self, instance: BatchedInstance) -> None:
        unneeded = instance._unneeded
        if self.strategy.cancel_unneeded and unneeded is not None:
            index = self.plan.index
            for name, handle in list(instance.inflight.items()):
                if unneeded[index[name]] and not self._has_waiters(handle):
                    handle.cancel()

    def _has_waiters(self, handle: object) -> bool:
        # Cancelling a coalesced primary would strand its followers
        # behind a full-cost reissue; keep it running instead.
        return self.query_cache is not None and self.query_cache.waiter_count(handle) > 0

    def _select_for_launch(self, instance: BatchedInstance) -> Sequence[int]:
        """The scheduling phase over the incrementally maintained pool."""
        cand = instance._cand
        if not cand:
            return ()
        readiness = instance._readiness
        enablement = instance._enablement
        launched = instance._launched
        unneeded = instance._unneeded
        speculative_ok = self.strategy.speculative
        pool: list[int] = []
        dead: list[int] = []
        for i in cand:
            if (
                launched[i]
                or readiness[i] != R_READY
                or enablement[i] == E_DISABLED
                or (unneeded is not None and unneeded[i])
            ):
                dead.append(i)
                continue
            if enablement[i] == E_UNKNOWN and not speculative_ok:
                continue  # stays a candidate: may enable later
            pool.append(i)
        for i in dead:
            cand.discard(i)
        if not pool:
            return ()
        slots = permitted_slots(len(pool), counted_inflight(instance), self.strategy.permitted)
        if slots <= 0:
            return ()
        pool.sort(key=self.plan.rank.__getitem__)
        return pool[:slots]

    def _take_result(self, instance, name, value, processed, completed) -> None:
        """A query of *instance*'s finished: book it, install a completed
        value, and run the round it starts unless the instance is done."""
        if self._obs_on:
            started = self._obs_query_start.pop((instance.instance_id, name), None)
            if started is not None:
                now = perf_counter()
                args = {"instance": instance.instance_id, "attribute": name}
                args.update(units=processed, completed=completed)
                self.obs.tracer.record("query", started, now, args=args)
                self._obs_query_wall.observe(now - started)
        handle = instance.inflight.pop(name, None)
        metrics = instance._metrics
        metrics.work_units += processed
        if self.observer is not None:
            self.observer.on_query_done(instance, name, units=processed, completed=completed)
        if completed:
            metrics.queries_completed += 1
            if handle is not None and getattr(handle, "failed", False):
                metrics.queries_failed += 1
                value = ExceptionValue(f"query for {name!r} failed")
        else:
            metrics.queries_cancelled += 1
            if (
                name in instance.speculative_launch
                and instance._enablement[self.plan.index[name]] == E_DISABLED
            ):
                metrics.speculative_wasted_queries += 1
                metrics.speculative_wasted_units += processed
        if completed and not instance.done:
            if not instance.apply_query_result(name, value):
                metrics.speculative_wasted_queries += 1
                metrics.speculative_wasted_units += processed
        if not instance.done:
            self._after_event(instance)

    def _finish(self, instance: BatchedInstance) -> None:
        instance.done = True
        instance._metrics.finish_time = self.sim.now
        instance.finalize_metrics()
        self.instances_completed += 1
        if self._obs_on:
            self.obs.tracer.instant("instance.complete", args={"instance": instance.instance_id})
        if self.halt_policy == "cancel":
            for handle in instance.inflight.values():
                if not self._has_waiters(handle):
                    handle.cancel()
        if self.observer is not None:
            self.observer.on_instance_complete(instance)
        callback = self._on_complete.pop(instance.instance_id, None)
        if callback is not None:
            callback(instance._metrics)

    # -- the launch path: the data plane under the three memo tiers ----------

    def _launch(self, instance: BatchedInstance, name: str) -> None:
        """Launch *name*'s query.  With a launch-memo entry for what a
        launch derives (inputs, value, cache key), a key the query memo
        holds is delivered with the rest of its run, by one event."""
        plan, rec, cache = self.plan, self._recording, self.query_cache
        i = plan.index[name]
        entry = plan.launch_entry(i, instance._sv) if rec is None else None
        if entry is None:
            task, values = plan.tasks[i], instance._input_values(i)
        speculative = instance._enablement[i] == E_UNKNOWN
        if instance._state is None:  # else the state it entered has this launch
            instance._launched[i] = 1
            instance._cand.discard(i)
        if entry is None:
            if rec is not None:
                rec.launch(name, i, task, values, speculative)
            value = task.compute(values)
            # A query with a refused input (no key) goes to the database uncached.
            key = share_key(task.name, values) if cache is not None else None
            if key is not None:
                key += (task.cost,)
        else:
            key, value, _ = entry
        metrics = instance._metrics
        metrics.queries_launched += 1
        self.queries_launched += 1
        if self._obs_on:
            self._obs_query_start[(instance.instance_id, name)] = perf_counter()
        if speculative:
            instance.speculative_launch.add(name)
            metrics.speculative_launched += 1
        if self.observer is not None:
            self.observer.on_launch(instance, name, speculative=speculative)
        cost = plan.cost[i]
        follower = cache.hit(key, cost) if entry is not None else None
        if follower is None:

            def done(processed: int, completed: bool) -> None:
                self._query_done(instance, name, value, processed, completed)

            if key is None:
                instance.inflight[name] = self.database.submit(cost, done)
            else:
                instance.inflight[name] = cache.submit(key, cost, done)
            return
        instance.inflight[name] = follower
        sim, wave = self.sim, self._wave
        if wave is not None and wave.instance is instance and wave.marker == sim.scheduled:
            wave.hits.append((name, follower, entry, i))
            return
        self._wave = wave = _HitWave(instance, (name, follower, entry, i))
        wave.event = sim.schedule_at(sim.now, lambda: self._fire_wave(wave, 0), (2, 0))
        wave.marker = sim.scheduled

    def _fire_wave(self, wave: _HitWave, k: int) -> None:
        """Deliver ``wave.hits[k:]``, each as its own event would have.

        Where it can, a run of deliveries is one wave step
        (:meth:`_compose`).  Otherwise a delivery is `_query_done` for a
        completed zero-unit hit written out, with the entry's signature;
        anything else — a wait cancelled meanwhile, an instance done, in a
        cohort or off the transition memo, an armed run — is `_query_done`
        itself.  After one that scheduled what the rest would have waited
        for (a closed loop's next start, a cancellation landing now) the
        rest goes back at the wave's seq.
        """
        if self._wave is wave:
            self._wave = None  # what its deliveries launch is a later run
        instance, hits, sim = wave.instance, wave.hits, self.sim
        n = len(hits)
        if k == 0:
            self.hit_waves += 1
            self.hit_wave_deliveries += n
        while k < n:
            marker = sim.scheduled
            composed = (
                self._compose(instance, hits, k)
                if self._composing
                and k + 1 < n
                and instance._state is not None
                and instance._flow is None
                and not instance.done
                else 0
            )
            if composed:
                k += composed
            else:
                name, follower, (_, value, sig), _ = hits[k]
                k += 1
                follower.finished = True
                if (
                    follower.cancel_requested
                    or instance.done
                    or instance._state is None
                    or instance._cohort is not None
                    or self._obs_on
                ):
                    self._query_done(instance, name, value, 0, not follower.cancel_requested)
                else:
                    instance.inflight.pop(name, None)
                    if self.observer is not None:
                        self.observer.on_query_done(instance, name, units=0, completed=True)
                    metrics = instance._metrics
                    metrics.queries_completed += 1
                    if not instance.apply_query_result(name, value, sig):
                        metrics.speculative_wasted_queries += 1
                    self.scheduling_rounds += 1
                    self._advance(instance)
                    if instance._flow is not None:
                        self._flows.delivered(instance, name, True)
                    if instance.done:
                        self._settle(instance)
            if k < n and sim.scheduled != marker and sim.preempted(wave.event):
                self.hit_wave_splits += 1
                return sim.resume(wave.event, lambda: self._fire_wave(wave, k))
        wave.event = None  # its callback holds the wave: leave no cycle behind

    def _compose(self, instance: BatchedInstance, hits: list, k: int) -> int:
        """Deliver the longest run of ``hits[k:]`` that is one wave step.

        The run's ``(slot, signature)`` pairs — up to the first cancelled
        wait — are looked up once in the instance's state; on a miss the
        plan walks the steps on file (:meth:`CompiledPlan.compose`) and
        files the composite when it can.  The step is then taken as each
        delivery's own would have been, in order: raw values written,
        waits finished, ``on_query_done`` per delivery to a listener, and
        the final state's finish, cancel scan and launches as
        :meth:`_advance` takes a memoized round's.  A listener that
        schedules something or cancels a wait of the run ends the run at
        its delivery.  Returns how many deliveries were made (0: none; the
        caller delivers the next one by itself).
        """
        if instance._cohort is not None and not self._cohorts.leave(instance):
            return 0
        key = []
        for _, follower, entry, i in hits[k:] if k else hits:
            if follower.cancel_requested:
                break
            key.append(i)
            key.append(entry[2])
        if len(key) < 4:
            return 0
        key = tuple(key)
        plan, state = self.plan, instance._state
        step = state.steps.get(key)
        if step is not None:
            self.wave_steps["taken"] += 1
        else:
            step, outcome = plan.compose(state, key)
            self.wave_steps[outcome] += 1
            if step is None:
                return 0
        m = step[6]
        raw, inflight = instance._raw, instance.inflight
        obs = self._listening()
        if obs is None:
            for name, follower, entry, i in hits[k : k + m]:
                follower.finished = True
                inflight.pop(name, None)
                raw[i] = entry[1]
        else:
            sim = self.sim
            marker = sim.scheduled
            for j, (name, follower, entry, i) in enumerate(hits[k : k + m], 1):
                follower.finished = True
                inflight.pop(name, None)
                raw[i] = entry[1]
                obs.on_query_done(instance, name, units=0, completed=True)
                if j < m and (
                    sim.scheduled != marker
                    or any(hit[1].cancel_requested for hit in hits[k + j : k + m])
                ):
                    step = plan.compose(state, key[: 2 * j], file=False)[0]
                    m = j
                    break
        plan.memo_hits += m
        self.scheduling_rounds += m
        metrics = instance._metrics
        metrics.queries_completed += m
        final, nulls, copies, wasted_queries, wasted_units, launches, _ = step
        sv = instance._sv
        for i in nulls:
            sv[i] = NULL
        for i in copies:
            sv[i] = raw[i]
        if wasted_queries:
            metrics.speculative_wasted_queries += wasted_queries
            metrics.speculative_wasted_units += wasted_units
        instance._alias(final)
        if final.done:
            self._finish(instance)
            self._settle(instance)
            return m
        if final.scan:
            self._cancel_unneeded(instance)
        for name in launches:
            self._launch(instance, name)
        return m


    # -- what the reuse tiers share ---------------------------------------------

    def _settle(self, instance: BatchedInstance) -> None:
        """Keep only the answer of done *instance* once nothing is in
        flight (it is settled): its per-run containers become the shared
        read-only empties, and its sources and start key go.

        Called where an instance can become settled — after the round it
        finished in, or after a straggler's delivery — and last there:
        after the flow memo has filed its trace,
        :meth:`CompiledPlan.record` its final step, and a cohort's members
        have aliased its end state.  A no-op while a straggler is in
        flight, and on an instance already settled.
        """
        if not instance.inflight:
            instance.inflight = _NO_INFLIGHT
            instance.speculative_launch = instance._cand = _NO_NAMES
            instance._queue = _NO_QUEUE
            instance._sources = instance._start_key = None

    def _start(self, instance: BatchedInstance | Row) -> None:
        """An arrival's start.  A row replays its key's trace, rides its
        key's open cohort, or becomes the instance it stands for (one
        with a completion callback never rides as a row); an instance
        leads a cohort, rides or dissolves one, or starts on its own."""
        cohorts, flows = self._cohorts, self._flows
        if cohorts is not None:
            cohorts.at(self.sim.now)
        if type(instance) is Row:
            if flows is not None and flows.replay(instance):
                return
            if cohorts is None or instance.instance_id in self._on_complete:
                instance = instance.materialize()
            else:
                instance = cohorts.ride(instance)
                if instance is None:
                    return  # it rides
            if flows is not None:
                flows.record(instance)
        if cohorts is None or instance._start_key is None:
            self._start_own(instance)
        else:
            cohorts.start(instance)
        if instance._flow is not None:
            flows.delivered(instance, None, True)
        if instance.done:
            self._settle(instance)

    def _query_done(self, instance, name, value, processed, completed) -> None:
        if instance._cohort is None or self._cohorts.leave(instance):
            self._take_result(instance, name, value, processed, completed)
        else:
            self._cohorts.rep_done(instance, name, value, processed, completed)
        if instance._flow is not None:
            self._flows.delivered(instance, name, completed)
        if instance.done:
            self._settle(instance)

    def _listening(self):
        """The observer, or None when event emission would be unobservable."""
        obs = self.observer
        if obs is None or not getattr(obs, "has_listeners", True):
            return None
        return obs

    def _own_wait(self, instance: BatchedInstance, name: str, value):
        """The completion callback of a follower handed to an instance
        that ran on someone's record (a dissolved member, a flow replay
        falling back): from here on its deliveries are its own."""
        return lambda processed, completed: self._query_done(
            instance, name, value, processed, completed
        )

    cohort_forms = _tier_count("_cohorts", "forms")
    cohort_hits = _tier_count("_cohorts", "hits")
    cohort_splits = _tier_count("_cohorts", "splits")
    cohort_exits = _tier_count("_cohorts", "exits", MappingProxyType(dict.fromkeys(EXITS, 0)))
    bulk_joins = _tier_count("_cohorts", "bulk_joins")
    bulk_join_members = _tier_count("_cohorts", "bulk_join_members")
    flow_replays = _tier_count("_flows", "replays")
    flow_fallbacks = _tier_count("_flows", "fallbacks")

    @property
    def flow_traces(self) -> int:
        """Traces on file (0 where the flow memo is not armed)."""
        return len(self._flows.traces) if self._flows is not None else 0

    def __repr__(self) -> str:
        done = sum(1 for i in self.instances if i.done)
        return (
            f"<BatchedEngine {self.schema.name!r} strategy={self.strategy.code} "
            f"instances={done}/{len(self.instances)} done>"
        )
