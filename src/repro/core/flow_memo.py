"""The flow memo: an instance the query memo answered, replayed whole.

The third memo tier of the product engine (:mod:`repro.core.batch_engine`):
the query memo answers a query, the transition memo a scheduling round,
this one an instance (:class:`_FlowTrace`).  It is built only where it is
armed (:class:`FlowMemo`): where the transition memo is — no user code,
so a valuation has one trace — and there is a query memo to be served
from.  A replay shows the cache every key it would have been asked for —
counted and refreshed in launch order, inside the event that made the
launch — and observers every call; nothing else runs.
"""

from __future__ import annotations

from copy import deepcopy
from time import perf_counter

from repro.core.batch_instance import BatchedInstance

__all__ = ["FLOW_LIMIT", "FlowMemo"]

#: Bound on filed flow traces per engine, with the transition memo's
#: policy: once full nothing more is recorded, and hits keep serving.
FLOW_LIMIT = 1024

#: The counters an instance served from the query memo alone can move.
_FLOW_COUNTERS = (
    "queries_launched", "speculative_launched", "queries_completed",
    "queries_cancelled", "speculative_wasted_queries", "speculative_wasted_units",
)  # fmt: skip


class _FlowWave:
    """One event of a replay: rounds ``[lo, hi)`` of the trace, run whole.

    ``keys`` are the cache keys of their launches (all still memoized, or
    the replay ends here), ``counters`` the instance's `_FLOW_COUNTERS`
    after them, ``rounds`` how many of them scheduled (stragglers do
    not), ``next`` the events of the wave those launches feed.
    """

    __slots__ = ("lo", "stages", "keys", "counters", "rounds", "finishes", "next")

    def __init__(self, stages: tuple, rec: list, lo: int, hi: int, finish: int):
        self.lo = lo
        self.stages = stages[lo:hi]
        self.keys = tuple(key for _, _, fed in self.stages for _, _, key in fed)
        self.counters = rec[hi - 1][3]
        self.rounds = max(0, min(hi, finish + 1) - lo)
        self.finishes = hi == finish + 1
        self.next: tuple[_FlowWave, ...] = ()


class _FlowTrace:
    """What an instance did whose every launch the query memo answered.

    Such an instance touches no data: each delivery is a zero-delay
    band-2 event at its start instant, in launch order, so the trace is
    a function of the typed start valuation.  ``stages`` has one
    ``(name, completed, launches)`` per round — the query delivered
    (None: the start) and the ``(name, speculative, cache key)``
    launches made.  The deliveries of one wave's launches are the next
    wave and sit contiguously in the calendar (they are scheduled inside
    the instance's own callbacks), so a repeat runs one :class:`_FlowWave`
    per wave, scheduled where the wave's first delivery sat; a wave the
    instance finishes in is cut there in two, so that a start its
    completion callback schedules preempts the stragglers as it would.
    Holds no instance: its end state and two value lists, which replayed
    instances alias.
    """

    __slots__ = ("stages", "head", "state", "raw", "sv")

    def __init__(self, rec: list, instance: BatchedInstance, state):
        self.state, self.raw, self.sv = state, instance._raw, instance._sv
        self.stages = stages = tuple(stage[:3] for stage in rec)
        finish = next(j for j, stage in enumerate(rec) if stage[4])
        self.head = feeder = _FlowWave(stages, rec, 0, 1, finish)  # the start: a wave of one
        lo, hi = 1, 1 + len(feeder.keys)
        while lo < hi:
            cut = finish + 1 if lo <= finish < hi else hi
            feeder.next = waves = tuple(
                _FlowWave(stages, rec, a, b, finish) for a, b in ((lo, cut), (cut, hi)) if a < b
            )
            feeder = waves[0]  # stragglers launch nothing
            lo, hi = hi, hi + sum(len(wave.keys) for wave in waves)


class FlowMemo:
    """The flow memo of one engine: its traces, and what it has done.

    The engine offers it every start with a cacheable start key
    (:meth:`replay`), and every round of an instance still recording
    (:meth:`delivered`); an instance replayed from a trace is its own
    from there, wave by wave (:meth:`_event`).
    """

    def __init__(self, engine):
        self.engine = engine
        self.cache = engine.query_cache
        #: start_key → :class:`_FlowTrace`, at most `FLOW_LIMIT`
        self.traces: dict[object, _FlowTrace] = {}
        #: instances started from a trace, and replays that fell back
        self.replays = self.fallbacks = 0

    def replay(self, instance: BatchedInstance) -> bool:
        """Start *instance* from its valuation's trace, if one is on file
        and the cache still holds the keys its start launches; otherwise
        (False) it starts for real, recording while the table has room."""
        trace = self.traces.get(instance._start_key)
        if trace is None:
            if len(self.traces) < FLOW_LIMIT:
                instance._flow = []
            return False
        if not self.cache.touch(trace.head.keys):
            return False
        instance._flow = trace
        self.replays += 1
        observer = self.engine.observer
        if observer is not None:
            observer.on_instance_start(instance)
        self._wave(instance, trace, trace.head)
        return True

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
        metrics = instance.metrics
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
                    traces[key] = _FlowTrace(rec, instance, instance.end_state())

    def _event(self, instance: BatchedInstance, wave: _FlowWave) -> None:
        """A scheduled wave fires: replay it, or discover an eviction."""
        trace = instance._flow
        if trace is None:
            # Fell back in the first half of this wave; these are the
            # stragglers of the finish that half ran for real.
            for name, _, _ in wave.stages:
                self.cache.deliver(instance.inflight[name])
        elif self.cache.touch(wave.keys):
            self._wave(instance, trace, wave)
        else:
            self._fall_back(instance, trace, wave)

    def _wave(self, instance: BatchedInstance, trace: _FlowTrace, wave: _FlowWave) -> None:
        """Replay one wave whose launches the cache has just been shown."""
        engine = self.engine
        if engine._obs_on:
            t0 = perf_counter()
        obs = engine._listening()
        if obs is not None:
            for name, completed, launches in wave.stages:
                if name is not None:
                    obs.on_query_done(instance, name, units=0, completed=completed)
                for launch, speculative, _ in launches:
                    obs.on_launch(instance, launch, speculative=speculative)
        metrics = instance.metrics
        for field, value in wave.counters.items():
            setattr(metrics, field, value)
        sim = engine.sim
        now = sim.now
        for fed in wave.next:
            sim.schedule_at(now, lambda fed=fed: self._event(instance, fed), (2, 0))
        if engine._obs_on:
            engine._obs_launches.inc(len(wave.keys))
            engine._obs_rounds.inc(wave.rounds)
            args = {"instance": instance.instance_id, "rounds": wave.rounds}
            engine.obs.tracer.record("engine.replay", t0, perf_counter(), args=args)
        if wave.finishes:
            # One valuation, one end: alias the recorded instance's, as a
            # lockstep member does its representative's.
            instance._alias(trace.state)
            instance._raw, instance._sv = trace.raw, trace.sv
            engine._finish(instance)
            engine._settle(instance)

    def _fall_back(self, instance, trace: _FlowTrace, wave: _FlowWave) -> None:
        """Leave the table at a wave boundary: a key *wave* launches was
        evicted, so the instance is no longer all-hit.

        Nothing of the wave has run.  The instance takes real arrays the
        way a dissolved cohort member does
        (:meth:`BatchedInstance.materialize`) and real followers for the
        pending deliveries, then runs this event's share of them for real.
        """
        self.fallbacks += 1
        instance._flow = None
        plan, raw, stages, lo = instance.plan, trace.raw, trace.stages, wave.lo
        index = plan.index
        made = [launch for stage in stages[:lo] for launch in stage[2]]
        delivered = [(name, raw[index[name]]) for name, ok, _ in stages[1:lo] if ok]
        instance.materialize([launch[:2] for launch in made], delivered)
        own_wait = self.engine._own_wait
        for (name, _, key), (_, completed, _) in zip(made[lo - 1 :], stages[lo:]):
            i = index[name]
            instance.inflight[name] = self.cache.follower(
                key, plan.cost[i], own_wait(instance, name, raw[i]), cancelled=not completed
            )
        self._event(instance, wave)
