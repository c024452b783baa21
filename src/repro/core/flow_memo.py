"""The flow memo: an instance the query memo answered, replayed whole.

The third memo tier of the product engine (:mod:`repro.core.batch_engine`):
the query memo answers a query, the transition memo a scheduling round,
this one an instance (:class:`_FlowTrace`).  It is built only where it is
armed (:class:`FlowMemo`): where the transition memo is — no user code,
so a valuation has one trace — and there is a query memo to be served
from.  A replay is a :class:`~repro.core.rows.Row` that never runs for
itself: its link is a cursor, the last :class:`_FlowWave` it ran, from
which it reads its values and, only when read, its counters.  A replay
shows the cache every key it would have been asked for — counted and
refreshed in launch order — and a listening observer every call; nothing
else runs.  The waves of all replays at one instant that would have been
consecutive events are one event, a :class:`_ReplayRun`; a replay that
finishes with no record of its own holds its trace's one shared final
record for that instant.
"""

from __future__ import annotations

from copy import deepcopy
from time import perf_counter
from weakref import ref

from repro.core.batch_instance import (
    _NO_INFLIGHT,
    BatchedInstance,
    SharedMetrics,
    set_final_counts,
    unstarted_view,
)

__all__ = ["FLOW_LIMIT", "FlowMemo"]

#: Bound on filed flow traces per engine, with the transition memo's
#: policy: once full nothing more is recorded, and hits keep serving.
FLOW_LIMIT = 1024

#: The counters an instance served from the query memo alone can move.
_FLOW_COUNTERS = (
    "queries_launched", "speculative_launched", "queries_completed",
    "queries_cancelled", "speculative_wasted_queries", "speculative_wasted_units",
)  # fmt: skip


class _FlowTrace:
    """What an instance did whose every launch the query memo answered,
    as its replays read it: the ``stages`` a fallback rebuilds from, the
    end ``state`` and two value lists they alias, the valuation they
    were keyed by, the attribute ``counts`` a finish books, and the
    ``final`` record shared by the replays of the latest instant.

    Such an instance touches no data: each delivery is a zero-delay
    band-2 event at its start instant, in launch order, so the trace is
    a function of the typed start valuation.  ``stages`` has one
    ``(name, completed, launches)`` per round — the query delivered
    (None: the start) and the ``(name, speculative, cache key)``
    launches made.  Holds no instance and no wave (its waves lead here).
    """

    __slots__ = ("plan", "key", "sources", "stages", "state", "raw", "sv", "counts", "final")

    def __init__(self, rec: list, instance: BatchedInstance):
        self.plan, self.key, self.sources = instance.plan, instance._start_key, instance._sources
        self.stages = tuple(stage[:3] for stage in rec)
        self.state = instance.end_state()
        self.raw, self.sv = instance._raw, instance._sv
        self.counts = instance.final_counts()
        self.final: SharedMetrics | None = None


class _FlowWave:
    """One event of a replay: rounds ``[lo, hi)`` of the trace, run whole.

    The deliveries of one wave's launches are the next wave and sit
    contiguously in the calendar (they are scheduled inside the
    instance's own callbacks), so a repeat runs one wave per wave of the
    recorded run, where the wave's first delivery sat; a wave the
    instance finishes in is cut there in two, so that a start its
    completion callback schedules preempts the stragglers as it would.
    ``keys`` are the cache keys of its launches (all still memoized, or
    the replay ends here), ``counters`` the instance's `_FLOW_COUNTERS`
    after it, ``rounds`` how many of its rounds scheduled (stragglers do
    not), ``finishes`` / ``done`` whether the instance finishes in it /
    is done after it, ``last`` whether it is the replay's last, ``next``
    the waves its launches feed.  A replay's cursor: it reads like the
    instance it stands for (:meth:`_view`, ``done``, ``inflight``).
    """

    __slots__ = (
        "trace", "lo", "stages", "keys", "counters", "rounds", "finishes", "done", "last", "next",
    )  # fmt: skip

    inflight = _NO_INFLIGHT

    def __init__(self, trace: _FlowTrace, rec: list, lo: int, hi: int, finish: int):
        self.trace, self.lo = trace, lo
        self.stages = trace.stages[lo:hi]
        self.keys = tuple(key for _, _, fed in self.stages for _, _, key in fed)
        self.counters = rec[hi - 1][3]
        self.rounds = max(0, min(hi, finish + 1) - lo)
        self.finishes = hi == finish + 1
        self.done = hi > finish
        self.last = hi == len(rec)
        self.next: tuple[_FlowWave, ...] = ()

    @property
    def plan(self):
        return self.trace.plan

    def _view(self) -> tuple:
        """What a replay that ran this wave reads: its trace's end once
        done, its sources alone before."""
        trace = self.trace
        if self.done:
            state = trace.state
            return state.readiness, state.enablement, trace.raw, trace.sv
        return unstarted_view(trace.plan, trace.sources)

    def book(self, metrics, start_time: float) -> None:
        """Write what a replay that ran this wave has booked into *metrics*."""
        for field, value in self.counters.items():
            setattr(metrics, field, value)
        if self.done:  # a replay finishes at its start instant
            metrics.finish_time = start_time
            set_final_counts(metrics, self.trace.counts)


def _waves(rec: list, trace: _FlowTrace) -> _FlowWave:
    """The waves of *trace* (recorded as *rec*); returns the first, the
    start: a wave of one."""
    finish = next(j for j, stage in enumerate(rec) if stage[4])
    head = feeder = _FlowWave(trace, rec, 0, 1, finish)
    lo, hi = 1, 1 + len(feeder.keys)
    while lo < hi:
        cut = finish + 1 if lo <= finish < hi else hi
        feeder.next = waves = tuple(
            _FlowWave(trace, rec, a, b, finish) for a, b in ((lo, cut), (cut, hi)) if a < b
        )
        feeder = waves[0]  # stragglers launch nothing
        lo, hi = hi, hi + sum(len(wave.keys) for wave in waves)
    return head


class _ReplayRun:
    """Replay waves at one instant that one calendar event runs, in order.

    ``items`` are ``row, wave`` pairs, flat; the event sits where the
    first wave's own zero-delay event would, and the run takes another
    wave only while ``sim.scheduled`` reads ``marker``: exactly while the
    events it stands for would have had consecutive seqs.  ``next``
    indexes the pair to run next.
    """

    __slots__ = ("memo", "items", "event", "marker", "next")

    def __init__(self, memo: "FlowMemo", items: list):
        self.memo, self.items, self.next = memo, items, 0

    def __call__(self) -> None:
        self.memo._fire(self)


class FlowMemo:
    """The flow memo of one engine: its traces, and what it has done.

    The engine offers it every row at its start (:meth:`replay`), and
    every round of an instance still recording (:meth:`delivered`); a
    replay runs wave by wave in replay runs (:meth:`_fire`), and one
    that finds a key evicted becomes the instance it stands for
    (:meth:`_fall_back`).
    """

    def __init__(self, engine):
        #: the engine, weakly: it holds this tier, and a strong link back
        #: would make every engine a reference cycle
        self._engine = ref(engine)
        self.cache = engine.query_cache
        #: start_key → :class:`_FlowTrace`, at most `FLOW_LIMIT`, and its first wave
        self.traces: dict[object, _FlowTrace] = {}
        self.heads: dict[object, _FlowWave] = {}
        #: rows started from a trace, and replays that fell back
        self.replays = self.fallbacks = 0
        #: the replay run still taking waves, if any
        self._open: _ReplayRun | None = None

    def replay(self, row) -> bool:
        """Start *row* from its valuation's trace, if one is on file and
        the cache still holds the keys its start launches; otherwise
        (False) nothing has happened."""
        head = self.heads.get(row._link.key)
        if head is None or not self.cache.touch(head.keys):
            return False
        self.replays += 1
        engine = self._engine()
        obs = engine._listening()
        if obs is not None:
            obs.on_instance_start(row)
        self._wave(engine, row, head, obs)
        return True

    def record(self, instance: BatchedInstance) -> None:
        """*instance* starts for itself: it records its rounds while its
        key has no trace and the table has room."""
        if instance._start_key not in self.traces and len(self.traces) < FLOW_LIMIT:
            instance._flow = []

    def delivered(self, instance: BatchedInstance, name, completed: bool) -> None:
        """Record the round a delivery (the start: no *name*) just ran.

        Its launches are the newest entries in flight.  One that waits on
        data — a miss or a coalesce — ends the recording;
        an instance done with nothing in flight is filed, unless its key
        is by identity: a copy of the sources must key the same, or the
        key says nothing once the caller changes the object.
        """
        rec = instance._flow
        inflight = instance.inflight
        metrics = instance._metrics
        made = metrics.queries_launched - (rec[-1][3]["queries_launched"] if rec else 0)
        launches = []
        for launch in list(inflight)[-made:] if made else ():
            handle = inflight[launch]
            if not getattr(handle, "memo", False):
                instance._flow = None
                return
            launches.append((launch, launch in instance.speculative_launch, handle.key))
        counters = {field: getattr(metrics, field) for field in _FLOW_COUNTERS}
        # a stage, plus the counters and the done flag after it
        rec.append((name, completed, tuple(launches), counters, instance.done))
        if instance.done and not inflight:
            instance._flow = None
            traces, key = self.traces, instance._start_key
            if key not in traces and len(traces) < FLOW_LIMIT:
                try:
                    copied = deepcopy(instance._sources)
                except Exception:  # whatever user code raises: as good as by identity
                    return
                if instance.plan.start_key(copied) == key:
                    traces[key] = trace = _FlowTrace(rec, instance)
                    self.heads[key] = _waves(rec, trace)

    def _fire(self, run: _ReplayRun) -> None:
        """Run *run*'s waves from ``run.next`` on, each as its own event
        would have: replayed while the cache holds its keys, else the
        row falls back.  After a wave that scheduled anything but the
        replay runs' own next waves, the rest goes back at the run's seq
        if that sorts first, as a hit wave's does; so it does when a wave
        raises.  ``next`` moves as a wave *begins*."""
        if self._open is run:
            self._open = None  # what its waves feed is a later run
        engine, cache = self._engine(), self.cache
        sim, items = engine.sim, run.items
        k, n = run.next, len(items)
        obs = engine._listening()
        try:
            while k < n:
                row, wave = items[k], items[k + 1]
                k = run.next = k + 2
                base = sim.scheduled - engine._replayed
                instance = row._link
                if type(instance) is BatchedInstance:
                    # It fell back in the first half of this wave; these
                    # are the stragglers of the finish that half ran for real.
                    for name, _, _ in wave.stages:
                        cache.deliver(instance.inflight[name])
                elif not wave.keys or cache.touch(wave.keys):
                    if not self._wave(engine, row, wave, obs) and obs is None:
                        continue  # no user code ran: nothing else was scheduled
                else:
                    self._fall_back(row, wave.trace, wave)
                obs = engine._listening()  # a callback may have subscribed
                if k < n and sim.scheduled - engine._replayed != base and sim.preempted(run.event):
                    return sim.resume(run.event, run)
        except BaseException:
            if k < n:
                sim.resume(run.event, run)
            raise
        run.event = None  # its callback is the run: leave no cycle behind

    def _wave(self, engine, row, wave: _FlowWave, obs) -> bool:
        """Replay one wave of *row* whose launches the cache has just been
        shown: its cursor moves, and only a record of its own is booked.
        True where a completion callback ran."""
        if engine._obs_on:
            t0 = perf_counter()
        if obs is not None:
            for name, completed, launches in wave.stages:
                if name is not None:
                    obs.on_query_done(row, name, units=0, completed=completed)
                for launch, speculative, _ in launches:
                    obs.on_launch(row, launch, speculative=speculative)
        row._link = wave
        metrics = row._metrics
        if metrics is not None:
            for field, value in wave.counters.items():
                setattr(metrics, field, value)
        if wave.next:
            sim, run = engine.sim, self._open
            for fed in wave.next:
                if run is not None and run.marker == sim.scheduled:
                    run.items += (row, fed)
                    sim.stand_in(run.event)
                else:
                    self._open = run = _ReplayRun(self, [row, fed])
                    run.event = sim.schedule_at(sim.now, run, (2, 0))
                engine._replayed += 1
                run.marker = sim.scheduled
        engine.queries_launched += len(wave.keys)
        engine.scheduling_rounds += wave.rounds
        if engine._obs_on:
            args = {"instance": row.instance_id, "rounds": wave.rounds}
            engine.obs.tracer.record("engine.replay", t0, perf_counter(), args=args)
        if wave.finishes:
            return self._finish(engine, row, wave, obs)
        if wave.last and metrics is None:
            row._metrics = self._final(row, wave)
        return False

    def _finish(self, engine, row, wave: _FlowWave, obs) -> bool:
        """*row* finishes, as :meth:`BatchedEngine._finish` would have it:
        a record of its own is filled — one made now for a callback —
        and one that holds none takes the shared final record once it
        has run its last wave.  True where a completion callback ran."""
        callback = engine._on_complete.pop(row.instance_id, None) if engine._on_complete else None
        metrics = row._metrics
        if metrics is None and callback is not None:
            metrics = row.metrics
        if metrics is not None:
            metrics.finish_time = row.start_time
            set_final_counts(metrics, wave.trace.counts)
        elif wave.last:
            row._metrics = self._final(row, wave)
        engine.instances_completed += 1
        if engine._obs_on:
            engine.obs.tracer.instant("instance.complete", args={"instance": row.instance_id})
        if obs is not None:  # (a listener running this wave's calls listens still)
            obs.on_instance_complete(row)
        if callback is None:
            return False
        callback(metrics)
        return True

    def _final(self, row, wave: _FlowWave) -> SharedMetrics:
        """The final record of the replays of *wave*'s trace that finish at
        *row*'s instant holding none of their own: one per instant, since
        a replay starts and finishes there, built by the first."""
        trace, now = wave.trace, row.start_time
        final = trace.final
        if final is None or final.start_time != now:
            trace.final = final = SharedMetrics(f"flow:{row.instance_id}", now)
            wave.book(final, now)
        return final

    def _fall_back(self, row, trace: _FlowTrace, wave: _FlowWave) -> None:
        """Leave the table at a wave boundary: a key *wave* launches was
        evicted, so the row is no longer all-hit.

        Nothing of the wave has run.  The row becomes the instance it
        stands for (:meth:`Row.materialize <repro.core.rows.Row.materialize>`),
        which takes real arrays the way a dissolved cohort member does
        (:meth:`BatchedInstance.materialize`), the counters it had booked,
        and real followers for the pending deliveries; then this event's
        share of them runs for real.
        """
        self.fallbacks += 1
        booked = row._link
        instance = row.materialize()
        plan, raw, stages, lo = trace.plan, trace.raw, trace.stages, wave.lo
        index = plan.index
        made = [launch for stage in stages[:lo] for launch in stage[2]]
        delivered = [(name, raw[index[name]]) for name, ok, _ in stages[1:lo] if ok]
        instance.materialize([launch[:2] for launch in made], delivered)
        booked.book(instance._metrics, row.start_time)
        own_wait = self._engine()._own_wait
        cache = self.cache
        for (name, _, key), (_, completed, _) in zip(made[lo - 1 :], stages[lo:]):
            i = index[name]
            instance.inflight[name] = cache.follower(
                key, plan.cost[i], own_wait(instance, name, raw[i]), cancelled=not completed
            )
        for name, _, _ in wave.stages:
            cache.deliver(instance.inflight[name])
