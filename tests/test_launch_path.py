"""The launch path: the plan's launch memo and the engine's hit waves
(``CompiledPlan.launch_entry``, ``BatchedEngine._launch`` / ``_fire_wave``).

Both are data-plane shortcuts that must not be observable: a launch
whose typed inputs the plan has seen takes its cache key, value and
signature from an entry instead of deriving them, and a run of memo
hits is delivered by one event instead of one each.  The three
differential suites pass through both unedited; the populations here
are the ones they do not have — valuations repeating at one instant and
at later ones, partly memo-served, in open schedules and closed loops —
and every ring holds the batched engine to the reference engine's
trace: the global observer sequence, every ``InstanceMetrics`` field,
values, states, database totals, the cache's counters and its LRU
order.  Each ring asserts that waves happened, so it cannot silently
stop exercising the path.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.batch_engine as batch_engine
import repro.core.plan as plan_module
from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DecisionFlowSchema,
    Engine,
    ExceptionValue,
    Op,
    PatternParams,
    Simulation,
    Strategy,
    generate_pattern,
)
from repro.api import DecisionService, ExecutionConfig
from repro.nulls import NullType
from repro.simdb.database import QueryShareCache
from tests._support import make_database, q, scenario_pattern
from tests.test_engine_differential import METRIC_FIELDS, RecordingObserver

#: The benchmark's flow pattern (perf/stack.py): its two source-keyed
#: queries are enabled above 88, everything downstream is shared.
PERF = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))
SMALL = scenario_pattern(2, nb_nodes=16, pct_enabled=50.0, max_cost=4)

SLOW = dict(cohorts=False, pooled=False)
FAST = dict(cohorts=True, pooled=True)


def run_flow(
    engine_cls,
    schema,
    code,
    *,
    arrivals=None,
    closed=None,
    drive=None,
    backend="ideal",
    halt_policy="cancel",
    cancel_unneeded=False,
    failure_prob=0.0,
    memo_limit=4096,
    cache=True,
    share=False,
    cohorts=False,
    pooled=False,
    seed=5,
):
    """Run an open schedule ``[(at, sources), ...]``, a closed loop
    ``(concurrency, [sources, ...], think time)`` or whatever
    ``drive(engine, sim)`` submits and runs; returns (trace, engine)."""
    sim = Simulation()
    database = make_database(backend, "coalesced", sim, seed, failure_prob)
    observer = RecordingObserver()
    query_cache = QueryShareCache(database, memo_limit=memo_limit) if cache else None
    engine = engine_cls(
        schema,
        Strategy.parse(code, cancel_unneeded=cancel_unneeded),
        database,
        halt_policy=halt_policy,
        observer=observer,
        query_cache=query_cache,
        cohorts=cohorts,
        share_results=share,
    )
    if pooled:
        engine.enable_pooled_dispatch()
    if drive is not None:
        drive(engine, sim)
    elif closed is None:
        for at, values in arrivals:
            engine.submit_instance(values, at=at)
    else:
        concurrency, queue, think = closed
        queue = list(queue)

        def submit_next(_metrics=None):
            if queue:
                engine.submit_instance(queue.pop(0), at=sim.now + think, on_complete=submit_next)

        for _ in range(concurrency):
            submit_next()
    sim.run()
    instances = engine.instances
    trace = {
        "events": observer.events,
        "values": [
            (i.instance_id, i.done, sorted((n, repr(v)) for n, v in i.value_map().items()))
            for i in instances
        ],
        "states": [sorted((n, s.name) for n, s in i.state_map().items()) for i in instances],
        "metrics": [tuple(getattr(i.metrics, n) for n in METRIC_FIELDS) for i in instances],
        "database": (
            database.total_units,
            database.queries_completed,
            database.queries_cancelled,
            database.queries_failed,
            database.mean_gmpl(),
        ),
        "cache": query_cache
        and (query_cache.hits, query_cache.misses, query_cache.coalesced, query_cache.reissues),
        "lru": query_cache and list(query_cache._memo),
        "end": (sim.now, sim.pending),
    }
    return trace, engine


def assert_matches_reference(schema, code, *, cohorts=False, pooled=False, **kwargs):
    """Batched (on the given stack) ≡ reference under the same dispatch;
    returns the batched engine."""
    reference, _ = run_flow(Engine, schema, code, pooled=pooled, **kwargs)
    batched, engine = run_flow(
        BatchedEngine, schema, code, cohorts=cohorts, pooled=pooled, **kwargs
    )
    for part in reference:
        assert batched[part] == reference[part], part
    return engine


# -- launch-memo semantics -----------------------------------------------------------


def typed_schema(fn, condition=None) -> DecisionFlowSchema:
    """source ``s`` → ``a = fn(s)`` → target ``t``."""
    gate = {} if condition is None else {"condition": condition}
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", inputs=("s",), fn=fn, cost=2)),
            Attribute("t", task=q("t", inputs=("a",), value=1), is_target=True, **gate),
        ],
        name="typed",
    )


def spaced(sources, gap=100.0):
    return [(gap * k, {"s": source}) for k, source in enumerate(sources)]


def test_equal_values_of_different_types_get_their_own_entries():
    """``1 == True == 1.0`` get a key each, in the launch memo and the
    cache alike, so each keeps the value `fn` gives it."""
    schema = typed_schema(lambda values: type(values["s"]).__name__)
    arrivals = spaced([1, True, 1.0, 1, True, 1.0])
    engine = assert_matches_reference(schema, "PSE100", arrivals=arrivals)
    index = engine.plan.index
    assert [i.value_map()["a"] for i in engine.instances] == ["int", "bool", "float"] * 2
    assert sorted(entry[1] for entry in engine.plan.launches[index["a"]].values()) == [
        "bool",
        "float",
        "int",
    ]
    assert len({entry[0] for entry in engine.plan.launches[index["a"]].values()}) == 3
    # ... and three more for `t`, one per value of `a`
    assert engine.plan.launch_entries == 6 and engine.plan.launch_hits == 6


class Token:
    """A hashable user object."""

    def __repr__(self):
        return "Token()"


TOKEN = Token()


def explode(values):
    raise RuntimeError("query function failed")


@pytest.mark.parametrize(
    "source, fn",
    [
        ([1, 2], lambda values: 3),
        ({"k": 1}, lambda values: 3),
        (ExceptionValue("down"), lambda values: 3),
        (TOKEN, lambda values: 3),
        ((1, 2), lambda values: 3),
        (1, lambda values: [values["s"]]),
        (1, lambda values: {"k": values["s"]}),
        (1, lambda values: ExceptionValue("down")),
        (1, lambda values: TOKEN),
    ],
    ids=["list-in", "dict-in", "exception-in", "object-in", "tuple-in",
         "list-out", "dict-out", "exception-out", "object-out"],
)  # fmt: skip
def test_only_scalars_are_filed(source, fn):
    schema = typed_schema(fn)
    engine = assert_matches_reference(schema, "PSE100", arrivals=spaced([source] * 4))
    plan = engine.plan
    assert not plan.launches[plan.index["a"]]
    if plan.launch_entries:
        # `t` is keyed by `a`'s value: filed only if that is a scalar
        assert plan.launch_slots[plan.index["a"]] is not None
        assert list(plan.launches[plan.index["t"]]) == [(int, 3)]
    assert engine.query_cache.hits == 6  # the cache shares what it always shared


def test_a_raising_fn_raises_as_it_did():
    for engine_cls in (Engine, BatchedEngine):
        with pytest.raises(RuntimeError, match="query function failed"):
            run_flow(engine_cls, typed_schema(explode), "PSE100", arrivals=spaced([1]))


@pytest.mark.parametrize("kwargs", [dict(share=True), dict(cache=False)], ids=["share", "no-cache"])
def test_without_a_cache_to_itself_the_engine_launches_as_it_did(kwargs):
    calls = []
    schema = typed_schema(lambda values: calls.append(values["s"]) or 3)
    engine = assert_matches_reference(schema, "PSE100", arrivals=spaced([1, 1, 2, 1]), **kwargs)
    assert engine.plan.launch_entries == engine.plan.launch_hits == engine.hit_waves == 0
    if "cache" in kwargs:  # the share table answers repeats before `fn` is asked
        assert calls == [1, 1, 2, 1] * 2


def test_fn_runs_once_per_distinct_typed_input_under_the_bound(monkeypatch):
    # (the flow memo would replay the third occurrence of a valuation whole)
    monkeypatch.setattr(batch_engine, "FLOW_LIMIT", 0)
    calls = []
    schema = typed_schema(lambda values: calls.append(values["s"]) or 3)
    sources = [1, 2, 1, 1.0, 2, 1, 1.0]
    run_flow(BatchedEngine, schema, "PSE100", arrivals=spaced(sources))
    assert [(type(call), call) for call in calls] == [(int, 1), (int, 2), (float, 1.0)]
    # A full memo files nothing: every launch asks `fn`, once.
    del calls[:]
    monkeypatch.setattr(plan_module, "LAUNCH_LIMIT", 0)
    _, engine = run_flow(BatchedEngine, schema, "PSE100", arrivals=spaced(sources))
    assert calls == sources
    assert engine.plan.launch_entries == engine.plan.launch_hits == 0
    # ... and one that fills up keeps serving what it holds.
    del calls[:]
    monkeypatch.setattr(plan_module, "LAUNCH_LIMIT", 2)
    engine = assert_matches_reference(schema, "PSE100", arrivals=spaced(sources))
    assert engine.plan.launch_entries == 2  # `a` on 1, then `t` on 3
    assert calls[len(sources):] == [1, 2, 1.0, 2, 1.0]  # after the reference's


def test_a_failed_primary_delivers_its_exception_and_the_next_launch_retries():
    """The entry holds what `fn` returns; a failure is the database's,
    drawn per dispatch, and is neither filed nor memoized."""
    schema = typed_schema(lambda values: 3, condition=Comparison("s", Op.GT, 0))
    arrivals = spaced([1, 1, 1, 1, 1, 1])
    seed = next(
        seed
        for seed in range(50)
        if run_flow(Engine, schema, "PSE100", arrivals=arrivals[:1], failure_prob=0.3, seed=seed)[
            0
        ]["database"][3]
    )
    engine = assert_matches_reference(
        schema, "PSE100", arrivals=arrivals, failure_prob=0.3, seed=seed
    )
    first, second = engine.instances[:2]
    assert any(isinstance(value, ExceptionValue) for value in first.value_map().values())
    assert second.metrics.work_units > 0  # it went to the database again
    assert engine.plan.launch_hits > 0


def test_the_table_holds_no_instance_and_no_source_object():
    class Box(float):
        """Unhashable, so neither the query cache's keys (it keys such a
        value by its ``repr``) nor the start key hold the object."""

        __hash__ = None

    config = ExecutionConfig.from_code(
        "PSE100", engine="batched", dispatch="pooled", query_cache=True, cohorts=True
    )
    service = DecisionService(PERF.schema, config)
    source = PERF.schema.source_names[0]
    service.submit({source: 94.0})
    service.run()
    value = Box(93.5)
    handle = service.submit({source: value}, at=service.now + 10.0)
    service.run()
    assert handle.done and service.engine.hit_waves > 0
    gone = weakref.ref(value)
    assert len(service.release_completed()) == 2
    del handle, value
    gc.collect()
    assert gone() is None
    assert not any(isinstance(obj, batch_engine.BatchedInstance) for obj in gc.get_objects())
    plan = service.engine.plan
    assert plan.launch_entries > 0
    scalars = (type(None), bool, int, float, str, bytes, NullType)
    for memo in plan.launches:
        for probe, (key, result, sig) in memo.items():
            assert all(type(part) in scalars for part in probe[1::2])
            assert type(result) in scalars and type(sig) is int


# -- trace identity for waves -----------------------------------------------------------


def mixed_arrivals(pattern, hot, fresh, *, instants, seed, gaps=(0.0, 0.0, 3.0, 400.0, 4000.0)):
    """Hot valuations and ones nobody else has (drawn from the range
    *fresh*), sharing instants and at later ones."""
    source = pattern.schema.source_names[0]
    rng = random.Random(seed)
    at, arrivals = 0.0, []
    for _ in range(instants):
        at += rng.choice(gaps)
        value = rng.choice(hot) if rng.random() < 0.6 else round(rng.uniform(*fresh), 3)
        arrivals.append((at, {source: value}))
    return arrivals


@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
@pytest.mark.parametrize("code", ["PSE100", "PSE50", "PCE0", "NSE100"])
@pytest.mark.parametrize("backend", ["ideal", "bounded", "profiled"])
def test_waves_are_invisible(backend, code, halt_policy):
    base = SMALL.source_values[SMALL.schema.source_names[0]]
    hot = [base, base + 1000, base - 1000]
    arrivals = mixed_arrivals(SMALL, hot, (base - 9, base + 9), instants=12, seed=1)
    waves = 0
    for cancel_unneeded in (False, True):
        for memo_limit in (3, 16, 4096):
            for stack in (SLOW, FAST):
                engine = assert_matches_reference(
                    SMALL.schema,
                    code,
                    arrivals=arrivals,
                    backend=backend,
                    halt_policy=halt_policy,
                    cancel_unneeded=cancel_unneeded,
                    memo_limit=memo_limit,
                    **stack,
                )
                assert engine.plan.launch_hits > 0
                assert engine.hit_wave_deliveries >= engine.hit_waves
                waves += engine.hit_waves
    assert waves > 60


@pytest.mark.parametrize("backend", ["ideal", "bounded", "profiled"])
def test_the_benchmark_population_in_miniature(backend):
    """Fresh valuations one per instant — the distinct sweep — and hot
    ones among them: two misses per fresh instance, runs of hits behind."""
    arrivals = mixed_arrivals(
        PERF, [93.5, 95.25, 40.0], (89.0, 100.0), instants=40, seed=2, gaps=(0.0, 5.0, 9.0)
    )
    for stack in (SLOW, FAST):
        engine = assert_matches_reference(
            PERF.schema, "PSE100", arrivals=arrivals, backend=backend, cancel_unneeded=True, **stack
        )
        assert engine.hit_waves > 60
        # (the ideal clock has an instance to itself: runs of 7 / 6 / 3 / 1)
        assert engine.hit_wave_deliveries > (3 if backend == "ideal" else 1.5) * engine.hit_waves


@pytest.mark.parametrize("concurrency", [1, 2, 4])
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
def test_closed_loops_with_no_think_time(halt_policy, concurrency):
    """A completion submits the next arrival at its own instant, ahead
    of whatever is left of the wave that completed it."""
    source = PERF.schema.source_names[0]
    rng = random.Random(concurrency)
    queue = [
        {source: rng.choice([93.5, 40.0]) if rng.random() < 0.4 else round(rng.uniform(80, 100), 3)}
        for _ in range(16)
    ]
    splits = 0
    for code in ("PSE100", "NSE50"):
        for stack in (SLOW, FAST):
            engine = assert_matches_reference(
                PERF.schema,
                code,
                closed=(concurrency, queue, 0.0),
                halt_policy=halt_policy,
                cancel_unneeded=code == "PSE100",
                **stack,
            )
            assert engine.hit_waves > 12
            splits += engine.hit_wave_splits
    # Without propagation an instance finishes with speculative launches
    # still to be delivered, the rest of its wave among them.
    assert splits > 0


#: A schedule is a list of arrivals: (gap since the previous one — 0 joins
#: its instant —, 0-2 one of three hot valuations or 3 a fresh one).
schedules = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 1.0, 60.0]), st.integers(0, 3)), min_size=1, max_size=30
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=schedules,
    memo_limit=st.sampled_from([3, 8, 4096]),
    code=st.sampled_from(["PSE100", "PSE50", "PCE0"]),
    cancel_unneeded=st.booleans(),
)
def test_any_arrival_schedule_matches_the_reference(schedule, memo_limit, code, cancel_unneeded):
    source = SMALL.schema.source_names[0]
    base = SMALL.source_values[source]
    at, fresh, arrivals = 0.0, 0, []
    for gap, pick in schedule:
        at += gap
        if pick == 3:
            fresh += 1
        arrivals.append((at, {source: base + fresh / 1000.0 if pick == 3 else base + 1000 * pick}))
    assert_matches_reference(
        SMALL.schema,
        code,
        arrivals=arrivals,
        memo_limit=memo_limit,
        cancel_unneeded=cancel_unneeded,
        **FAST,
    )


STRESS_CODES = ["PSE100", "PSE50", "PSE80", "PCE0", "NSE100", "NSE50", "NCC80", "PCC100", "PSC100"]


def stress_scenario(seed: int) -> tuple:
    """One random cell of pattern × strategy × backend × halt ×
    ``cancel_unneeded`` × failures × memo size × open schedule / closed loop."""
    rng = random.Random(seed)
    if rng.random() < 0.4:
        pattern, hot = PERF, [93.5, 95.25, 40.0, 89.5]
        lo, hi = 80.0, 100.0
    else:
        pattern = scenario_pattern(
            rng.randrange(6),
            nb_nodes=rng.choice([12, 16, 24]),
            pct_enabled=rng.choice([30.0, 50.0, 70.0]),
            max_cost=rng.choice([3, 6]),
        )
        base = pattern.source_values[pattern.schema.source_names[0]]
        hot, lo, hi = [base, base + 1000, base - 1000, base + 7], base - 30, base + 30
    source = pattern.schema.source_names[0]

    def sources():
        value = rng.choice(hot) if rng.random() < 0.6 else round(rng.uniform(lo, hi), 3)
        return {source: value}

    kwargs = dict(
        backend=rng.choice(["ideal", "bounded", "profiled"]),
        halt_policy=rng.choice(["cancel", "drain"]),
        cancel_unneeded=rng.random() < 0.5,
        failure_prob=rng.choice([0.0, 0.0, 0.3]),
        memo_limit=rng.choice([3, 6, 16, 4096, 4096]),
        seed=seed,
    )
    if rng.random() < 0.5:
        at, arrivals = 0.0, []
        for _ in range(rng.randint(4, 24)):
            at += rng.choice([0.0, 0.0, 1.0, 3.0, 60.0, 400.0, 4000.0])
            arrivals.append((at, sources()))
        kwargs["arrivals"] = arrivals
    else:
        queue = [sources() for _ in range(rng.randint(6, 24))]
        kwargs["closed"] = (rng.choice([1, 2, 4]), queue, rng.choice([0.0, 0.0, 0.0, 2.0]))
    return pattern.schema, rng.choice(STRESS_CODES), kwargs


def test_seeded_stress_against_the_reference_per_event_run():
    """Every stack against the reference engine stepping event by event
    — including the reference engine under pooled dispatch."""
    waves = deliveries = 0
    for seed in range(40):
        schema, code, kwargs = stress_scenario(seed)
        reference, _ = run_flow(Engine, schema, code, **kwargs)
        for engine_cls, stack in (
            (BatchedEngine, FAST),
            (BatchedEngine, SLOW),
            (BatchedEngine, dict(pooled=True)),
            (Engine, dict(pooled=True)),
        ):
            trace, engine = run_flow(engine_cls, schema, code, **kwargs, **stack)
            for part in reference:
                assert trace[part] == reference[part], (seed, code, stack, part)
            if engine_cls is BatchedEngine:
                waves += engine.hit_waves
                deliveries += engine.hit_wave_deliveries
    assert waves > 3000 and deliveries > 1.5 * waves


# -- observability -------------------------------------------------------------------------


def observed(engine: str, observe: bool, arrivals):
    # (no cohorts: a lockstep member's launches are its representative's)
    config = ExecutionConfig.from_code(
        "PSE100", engine=engine, dispatch="pooled", query_cache=True, observe=observe
    )
    service = DecisionService(PERF.schema, config)
    for at, values in arrivals:
        service.submit(values, at=at)
    service.run()
    snapshot = service.observability()
    readings = {
        entry["name"]: entry["value"]
        for kind in ("counters", "gauges")
        for entry in snapshot.get(kind, ())
    }
    spans = {}
    if observe:
        for event in service.obs.tracer.events():
            spans[event[1]] = spans.get(event[1], 0) + 1
    return service, readings, spans


def test_armed_runs_take_the_same_waves_and_count_every_round(monkeypatch):
    # (a flow-memo replay is one `engine.replay` span per wave, not rounds)
    monkeypatch.setattr(batch_engine, "FLOW_LIMIT", 0)
    arrivals = mixed_arrivals(
        PERF, [93.5, 40.0], (89.0, 100.0), instants=30, seed=4, gaps=(0.0, 5.0, 9.0)
    )
    plain, nothing, _ = observed("batched", False, arrivals)
    armed, readings, spans = observed("batched", True, arrivals)
    assert nothing == {}
    assert armed.dispatch_stats() == plain.dispatch_stats()
    assert armed.summary() == plain.summary()
    engine = armed.engine
    assert readings["engine_hit_waves"] == engine.hit_waves == plain.engine.hit_waves > 50
    assert readings["engine_hit_wave_deliveries"] == engine.hit_wave_deliveries
    assert engine.hit_wave_deliveries == plain.engine.hit_wave_deliveries
    assert readings["engine_launch_memo_entries"] == engine.plan.launch_entries > 0
    assert readings["engine_launch_memo_hits"] == engine.plan.launch_hits
    assert engine.plan.launch_hits == plain.engine.plan.launch_hits > 0
    # A wave's deliveries are rounds and query lifecycles like any other:
    # what the reference engine counts, event by event.
    _, reference, reference_spans = observed("reference", True, arrivals)
    launched = round(plain.summary().mean_queries_launched * len(arrivals))
    assert readings["engine_queries_launched"] == reference["engine_queries_launched"] == launched
    assert readings["engine_scheduling_rounds"] == reference["engine_scheduling_rounds"]
    assert spans["engine.round"] == reference_spans["engine.round"]
    assert spans["query"] == reference_spans["query"] == launched
    assert "engine_hit_waves" not in reference
