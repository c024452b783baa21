"""The flow memo: an instance the query memo serves whole replays a
recorded trace (core/batch_engine.py, ``_FlowTrace``).

The three differential suites submit a handful of instances per
scenario, mostly before the first has finished, so few of theirs are
ever all-hit.  Every population here repeats valuations at *later*
instants — the case the table exists for — and holds the batched engine
to the reference engine's trace: the observer event sequence, every
``InstanceMetrics`` field, values, states, database totals and the
cache's own counters.  Each ring asserts that replays happened, so it
cannot silently stop exercising the path.
"""

from __future__ import annotations

import dataclasses
import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.batch_engine as batch_engine
from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DecisionFlowSchema,
    Engine,
    Op,
    PatternParams,
    Simulation,
    Strategy,
    SynthesisTask,
    UserPredicate,
    generate_pattern,
)
from repro.api import DecisionService, ExecutionConfig
from repro.core.plan import ControlState
from repro.core.predicates import attr
from repro.simdb.database import QueryShareCache
from tests._support import add_inputs, make_database, q, scenario_pattern
from tests.test_engine_differential import METRIC_FIELDS, RecordingObserver

#: The benchmark's flow pattern (perf/stack.py): its two source-keyed
#: queries are enabled above 88, everything downstream is shared.
PERF = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))
PERF_SOURCE = PERF.schema.source_names[0]

FAST = dict(cohorts=True, pooled=True)


def run_population(
    engine_cls,
    schema,
    code,
    arrivals,
    *,
    backend="ideal",
    halt_policy="cancel",
    cancel_unneeded=False,
    failure_prob=0.0,
    memo_limit=4096,
    cache=True,
    cohorts=False,
    pooled=False,
    share=False,
    seed=5,
):
    """Run ``[(at, source values), ...]``; returns (trace, engine)."""
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
    for at, values in arrivals:
        engine.submit_instance(values, at=at)
    sim.run()
    instances = engine.instances
    trace = {
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
        and (query_cache.hits, query_cache.misses, query_cache.coalesced, query_cache.memo_size),
        "end_time": sim.now,
        "events": observer.events,
    }
    return trace, engine


def assert_matches_reference(schema, code, arrivals, *, cohorts=False, pooled=False, **kwargs):
    """Batched (on the given stack) ≡ reference; returns the batched engine.

    Both sides drain the calendar the same way: where a database query
    is cancelled at an instant other queries complete at, the reference
    engine itself orders that instant's events differently under pooled
    and per-event dispatch (same multiset) — not this suite's subject.
    """
    reference, _ = run_population(Engine, schema, code, arrivals, pooled=pooled, **kwargs)
    batched, engine = run_population(
        BatchedEngine, schema, code, arrivals, cohorts=cohorts, pooled=pooled, **kwargs
    )
    for part in reference:
        assert batched[part] == reference[part], part
    return engine


def bursts(hot, *, instants, burst=(1, 4), gap=400.0, p_hot=0.7, seed=3, source=PERF_SOURCE):
    """Same-instant bursts *gap* apart, each arrival one of the *hot*
    valuations or one nobody else has."""
    rng = random.Random(seed)
    at, arrivals = 0.0, []
    for _ in range(instants):
        at += gap
        for _ in range(rng.randint(*burst)):
            value = rng.choice(hot) if rng.random() < p_hot else round(rng.uniform(89, 100), 6)
            arrivals.append((at, {source: value}))
    return arrivals


# -- (a) the ring ---------------------------------------------------------------


@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
@pytest.mark.parametrize("code", ["PSE100", "PCE0"])
@pytest.mark.parametrize("backend", ["ideal", "bounded", "profiled"])
def test_repeats_at_later_instants_match_the_reference(backend, code, halt_policy):
    arrivals = bursts([93.5, 95.25, 40.0], instants=24, gap=4000.0)
    for stack in ({}, FAST):
        engine = assert_matches_reference(
            PERF.schema,
            code,
            arrivals,
            backend=backend,
            halt_policy=halt_policy,
            cancel_unneeded=True,
            **stack,
        )
        # 3 traces and 25-30 replays, except on ideal PSE100: there the
        # two valuations above 88 cancel an unneeded query every time, it
        # is never memoized, and only the third valuation is ever all-hit.
        assert 1 <= engine.flow_traces <= 3
        assert engine.flow_replays > 10
        assert engine.flow_fallbacks == 0


@pytest.mark.parametrize("code", ["PSE50", "PSE80", "NSE50", "NCC80"])
def test_throttled_and_lazy_strategies(code):
    """Followers hold no %Permitted slot, so an all-hit instance's launch
    decisions are a function of its valuation under any strategy."""
    for seed, cancel_unneeded in ((0, False), (0, True), (2, False), (2, True)):
        pattern = scenario_pattern(seed, nb_nodes=24, pct_enabled=50.0, max_cost=6)
        source = pattern.schema.source_names[0]
        base = pattern.source_values[source]
        arrivals = [(100.0 * k, {source: base + 1000 * (k % 2)}) for k in range(12)]
        engine = assert_matches_reference(
            pattern.schema, code, arrivals, cancel_unneeded=cancel_unneeded
        )
        assert engine.flow_traces >= 1 and engine.flow_replays >= 3


# -- eviction mid-replay ----------------------------------------------------------


@pytest.mark.parametrize("memo_limit", [4096, 16, 6, 3])
def test_eviction_is_found_at_a_wave_boundary(memo_limit, monkeypatch):
    """A query memo smaller than one instance's keys evicts what a
    replay is about to need; the instance must leave the table between
    two waves and finish as the ordinary instance it would have been."""
    pattern = scenario_pattern(0, nb_nodes=24, pct_enabled=50.0, max_cost=6)
    source = pattern.schema.source_names[0]
    base = pattern.source_values[source]
    rng = random.Random(7)
    arrivals = [
        (50.0 * (instant + 1), {source: base if rng.random() < 0.5 else base + rng.random()})
        for instant in range(40)
        for _ in range(4)
    ]
    left_mid_wave = []
    fall_back = BatchedEngine._flow_fall_back

    def spy(self, instance, trace, wave):
        left_mid_wave.append(wave.lo)
        fall_back(self, instance, trace, wave)

    monkeypatch.setattr(BatchedEngine, "_flow_fall_back", spy)
    engine = assert_matches_reference(
        pattern.schema, "PSE100", arrivals, memo_limit=memo_limit, **FAST
    )
    assert engine.flow_fallbacks == len(left_mid_wave)
    if memo_limit == 4096:
        assert engine.flow_replays > 60 and not left_mid_wave
    elif memo_limit == 16:
        # Only ever between waves: after the start, never inside one.
        assert left_mid_wave and min(left_mid_wave) >= 1
    else:
        assert engine.flow_replays == 0  # no instance is ever all-hit


# -- (b) eligibility ----------------------------------------------------------------


def gated_schema(condition=None, synthesis=False) -> DecisionFlowSchema:
    """source → a, b → target t (``t`` gated by *condition*, or a
    synthesis over a and b)."""
    attributes = [
        Attribute("s"),
        Attribute("a", task=q("a", inputs=("s",), value=4, cost=2)),
        Attribute("b", task=q("b", inputs=("s",), value=7, cost=3)),
    ]
    if synthesis:
        target = Attribute("t", task=SynthesisTask("t_sum", ("a", "b"), add_inputs), is_target=True)
    else:
        target = Attribute(
            "t",
            task=q("t", inputs=("a", "b"), value=1, cost=1),
            condition=condition if condition is not None else Comparison("a", Op.GT, 1),
            is_target=True,
        )
    return DecisionFlowSchema(attributes + [target], name="gated")


REPEATS = [(100.0 * k, {"s": 1}) for k in range(6)]


def test_an_eligible_plan_files_and_replays():
    engine = assert_matches_reference(gated_schema(), "PSE100", REPEATS)
    assert (engine.flow_traces, engine.flow_replays) == (1, 4)


@pytest.mark.parametrize(
    "schema, kwargs",
    [
        (gated_schema(), dict(cache=False)),
        (gated_schema(), dict(share=True)),
        (gated_schema(UserPredicate("big_a", ["a"], lambda values: values["a"] > 1)), {}),
        (gated_schema(synthesis=True), {}),
        (gated_schema(Comparison("a", Op.LT, attr("b"))), {}),
    ],
    ids=["no-cache", "share-results", "user-predicate", "synthesis", "attr-to-attr"],
)
def test_ineligible_runs_file_nothing(schema, kwargs):
    engine = assert_matches_reference(schema, "PSE100", REPEATS, **kwargs)
    assert (engine.flow_traces, engine.flow_replays) == (0, 0)
    assert all(instance._flow is None for instance in engine.instances)


def test_a_failed_result_is_not_memoized_so_the_next_occurrence_files_nothing():
    arrivals = [(0.0, {"s": 1}), (100.0, {"s": 1})]
    seed = next(
        seed
        for seed in range(50)
        if run_population(
            Engine, gated_schema(), "PSE100", arrivals[:1], failure_prob=0.3, seed=seed
        )[0]["database"][3]
    )
    engine = assert_matches_reference(
        gated_schema(), "PSE100", arrivals, failure_prob=0.3, seed=seed
    )
    assert engine.query_cache.misses > 3  # the second occurrence retried
    assert engine.flow_traces == 0


def test_sources_keyed_by_identity_are_not_filed():
    """An unhashable source has no key, so nothing reading it is reused;
    an identity-hashed one keys by itself, and the caller may change the
    object and submit it again, so its trace must not outlive the
    instance.  A copy keys differently — or cannot be made at all — and
    that is what the engine asks."""

    class Box:
        __hash__ = None

        def __init__(self, value):
            self.value = value

        def __repr__(self):
            return f"Box({self.value})"

    class Sealed:
        def __deepcopy__(self, memo):
            raise RuntimeError("holds a lock")

        def __repr__(self):
            return "Sealed()"

    for source, hits in ((Box(1), 3), (Sealed(), 9)):
        arrivals = [(100.0 * k, {"s": source}) for k in range(4)]
        engine = assert_matches_reference(gated_schema(), "PSE100", arrivals)
        assert engine.query_cache.hits == hits  # `t` (and `a`, `b` on a key) hit, yet
        assert (engine.flow_traces, engine.flow_replays) == (0, 0)


# -- (c) the bound ------------------------------------------------------------------


@pytest.mark.parametrize("limit", [1, 0])
def test_a_full_table_records_nothing_and_keeps_serving(limit, monkeypatch):
    monkeypatch.setattr(batch_engine, "FLOW_LIMIT", limit)
    arrivals = bursts([93.5, 95.25, 40.0], instants=24)
    engine = assert_matches_reference(PERF.schema, "PSE100", arrivals, **FAST)
    assert engine.flow_traces == limit
    assert (engine.flow_replays > 5) == bool(limit)
    assert not any(isinstance(instance._flow, list) for instance in engine.instances)


# -- (d) release between rounds -----------------------------------------------------


def service_for(engine: str) -> DecisionService:
    fast = dict(dispatch="pooled", cohorts=True) if engine == "batched" else {}
    config = ExecutionConfig.from_code("PSE100", engine=engine, query_cache=True, **fast)
    return DecisionService(PERF.schema, config)


def test_release_completed_between_rounds():
    services = {kind: service_for(kind) for kind in ("reference", "batched")}
    engine = services["batched"].engine
    for round_no in range(5):
        read = {}
        for kind, service in services.items():
            handles = [
                service.submit({PERF_SOURCE: value}, at=service.now + 10.0)
                for value in (93.5, 95.25, 93.5)
            ]
            service.run()
            read[kind] = [
                (h.result(), h.instance.value_map(), h.instance.state_map())
                + tuple(getattr(h.metrics, name) for name in METRIC_FIELDS[1:])
                for h in handles
            ]
            if kind == "batched" and round_no == 1:
                # Round 0 missed; this round's first 93.5 is the all-hit
                # instance the table records.
                lists = (handles[0].instance._raw, handles[0].instance._sv)
            del handles
            assert len(service.release_completed()) == 3
        assert read["batched"] == read["reference"]
    assert engine.flow_traces == 2
    # Round 1 filed both; rounds 2-4 are replayed whole, from lists whose
    # instance is gone.  Nobody rode a cohort: by the second 93.5, 95.25
    # had coalesced behind the first one's source-free launches (round 0)
    # or the memo had answered them (round 1).
    assert engine.flow_replays == 3 * 3 and engine.cohort_hits == 0
    summaries = [service.summary() for service in services.values()]
    assert summaries[0] == summaries[1]
    # The table holds a released instance's two value lists and its end
    # state (interned if the transition memo served it to the end, its
    # own arrays frozen otherwise) — not the instance.
    gc.collect()
    assert not any(isinstance(obj, batch_engine.BatchedInstance) for obj in gc.get_objects())
    trace = next(iter(engine._flow_traces.values()))
    assert trace.raw is lists[0] and trace.sv is lists[1]
    assert isinstance(trace.state, ControlState) and trace.state.done


# -- observability --------------------------------------------------------------------


def test_armed_runs_replay_and_count_what_an_unreplayed_run_counts(monkeypatch):
    arrivals = bursts([93.5, 95.25, 40.0], instants=16)

    def armed(cohorts: bool):
        config = ExecutionConfig.from_code(
            "PSE100", engine="batched", dispatch="pooled", query_cache=True,
            cohorts=cohorts, observe=True,
        )  # fmt: skip
        service = DecisionService(PERF.schema, config)
        for at, values in arrivals:
            service.submit(values, at=at)
        service.run()
        snapshot = service.observability()
        values = {
            entry["name"]: entry["value"]
            for kind in ("counters", "gauges")
            for entry in snapshot[kind]
        }
        spans = sum(1 for event in service.obs.tracer.events() if event[1] == "engine.replay")
        return values, spans

    replayed, spans = armed(cohorts=False)
    assert replayed["engine_flow_traces"] == 3
    assert replayed["engine_flow_replays"] > 10
    assert replayed["engine_flow_fallbacks"] == 0
    assert spans >= 2 * replayed["engine_flow_replays"]  # one per wave
    monkeypatch.setattr(batch_engine, "FLOW_LIMIT", 0)
    plain, spans = armed(cohorts=False)
    assert spans == plain["engine_flow_replays"] == plain["engine_flow_traces"] == 0
    for name in (
        "engine_queries_launched",
        "engine_scheduling_rounds",
        "engine_instances_completed",
        "query_cache_hits",
        "instances_done",
    ):
        assert replayed[name] == plain[name] > 0, name
    monkeypatch.undo()
    with_cohorts, _ = armed(cohorts=True)
    assert with_cohorts["engine_flow_replays"] > 10
    assert with_cohorts["engine_instances_completed"] + with_cohorts["cohort_hits"] == len(arrivals)


# -- (e) arrival schedules, as a property ----------------------------------------------

SMALL = scenario_pattern(2, nb_nodes=16, pct_enabled=50.0, max_cost=4)
SMALL_SOURCE = SMALL.schema.source_names[0]
SMALL_BASE = SMALL.source_values[SMALL_SOURCE]

#: A schedule is a list of bursts: (gap since the previous one — 0 joins
#: it —, the valuations arriving: 0-2 one of three hot ones, 3 a fresh one).
schedules = st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, 60.0]), st.lists(st.integers(0, 3), min_size=1, max_size=4)),
    min_size=1,
    max_size=14,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedules, memo_limit=st.sampled_from([8, 4096]))
def test_any_arrival_schedule_matches_the_reference(schedule, memo_limit):
    at, fresh, arrivals = 0.0, 0, []
    for gap, picks in schedule:
        at += gap
        for pick in picks:
            if pick == 3:
                fresh += 1
                value = SMALL_BASE + fresh / 1000.0
            else:
                value = SMALL_BASE + 1000 * pick
            arrivals.append((at, {SMALL_SOURCE: value}))
    assert_matches_reference(SMALL.schema, "PSE100", arrivals, memo_limit=memo_limit, **FAST)
