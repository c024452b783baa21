"""The flow memo: an instance the query memo serves whole replays a
recorded trace (core/flow_memo.py, ``_FlowTrace``).

The three differential suites submit a handful of instances per
scenario, mostly before the first has finished, so few of theirs are
ever all-hit.  Every population here repeats valuations at *later*
instants — the case the table exists for — and holds the batched engine
to the reference engine's whole trace (``tests/_support.trace_of``).
Each ring asserts that replays happened, so it cannot silently stop
exercising the path.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.batch_engine as batch_engine
import repro.core.flow_memo as flow_memo
from repro import (
    Attribute,
    Comparison,
    DecisionFlowSchema,
    Engine,
    Op,
    SynthesisTask,
    UserPredicate,
)
from repro.api import DecisionService, ExecutionConfig
from repro.core.batch_engine import BatchedEngine
from repro.core.batch_instance import SharedMetrics
from repro.core.plan import ControlState
from repro.core.predicates import attr
from repro.core.rows import Row
from repro.simdb.des import Simulation
from tests._support import (
    METRIC_FIELDS,
    PERF,
    RecordingObserver,
    _row,
    add_inputs,
    assert_matches_reference,
    assert_same,
    engine_arms,
    q,
    run,
    scenario_pattern,
)


def instances_of(engine) -> list:
    """The engine's instances: a lockstep rider's row stands for none
    unless it had to run for itself."""
    held = (i.materialized if type(i) is Row else i for i in engine.instances)
    return [instance for instance in held if instance is not None]


PERF_SOURCE = PERF.schema.source_names[0]

FAST = dict(cohorts=True, pooled=True)


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
            arrivals=arrivals,
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
            pattern.schema, code, arrivals=arrivals, cancel_unneeded=cancel_unneeded
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
    fall_back = flow_memo.FlowMemo._fall_back

    def spy(self, instance, trace, wave):
        left_mid_wave.append(wave.lo)
        fall_back(self, instance, trace, wave)

    monkeypatch.setattr(flow_memo.FlowMemo, "_fall_back", spy)
    engine = assert_matches_reference(
        pattern.schema, "PSE100", arrivals=arrivals, memo_limit=memo_limit, **FAST
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
    engine = assert_matches_reference(gated_schema(), "PSE100", arrivals=REPEATS)
    assert (engine.flow_traces, engine.flow_replays) == (1, 4)


@pytest.mark.parametrize(
    "schema, kwargs",
    [
        (gated_schema(), dict(cache=False)),
        (gated_schema(UserPredicate("big_a", ["a"], lambda values: values["a"] > 1)), {}),
        (gated_schema(synthesis=True), {}),
        (gated_schema(Comparison("a", Op.LT, attr("b"))), {}),
    ],
    ids=["no-cache", "user-predicate", "synthesis", "attr-to-attr"],
)
def test_ineligible_runs_file_nothing(schema, kwargs):
    engine = assert_matches_reference(schema, "PSE100", arrivals=REPEATS, **kwargs)
    assert (engine.flow_traces, engine.flow_replays) == (0, 0)
    assert all(instance._flow is None for instance in instances_of(engine))


def test_a_failed_result_is_not_memoized_so_the_next_occurrence_files_nothing():
    arrivals = [(0.0, {"s": 1}), (100.0, {"s": 1})]
    seed = next(
        seed
        for seed in range(50)
        if run(
            Engine, gated_schema(), "PSE100", arrivals=arrivals[:1], failure_prob=0.3, seed=seed
        )[0]["database"][3]
    )
    engine = assert_matches_reference(
        gated_schema(), "PSE100", arrivals=arrivals, failure_prob=0.3, seed=seed
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
        engine = assert_matches_reference(gated_schema(), "PSE100", arrivals=arrivals)
        assert engine.query_cache.hits == hits  # `t` (and `a`, `b` on a key) hit, yet
        assert (engine.flow_traces, engine.flow_replays) == (0, 0)


# -- (c) the bound ------------------------------------------------------------------


@pytest.mark.parametrize("limit", [1, 0])
def test_a_full_table_records_nothing_and_keeps_serving(limit, monkeypatch):
    monkeypatch.setattr(flow_memo, "FLOW_LIMIT", limit)
    arrivals = bursts([93.5, 95.25, 40.0], instants=24)
    engine = assert_matches_reference(PERF.schema, "PSE100", arrivals=arrivals, **FAST)
    assert engine.flow_traces == limit
    assert (engine.flow_replays > 5) == bool(limit)
    # a row that rode never recorded: only instances can still be recording
    assert not any(isinstance(instance._flow, list) for instance in instances_of(engine))


# -- (d) release between rounds -----------------------------------------------------


def service_for(engine: str) -> DecisionService:
    config = ExecutionConfig.from_code("PSE100", engine=engine, query_cache=True)
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
                # instance the table records: a row that ran for itself.
                recorded = handles[0].instance.materialized
                lists = (recorded._raw, recorded._sv)
                del recorded
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
    trace = next(iter(engine._flows.traces.values()))
    assert trace.raw is lists[0] and trace.sv is lists[1]
    assert isinstance(trace.state, ControlState) and trace.state.done


# -- observability --------------------------------------------------------------------


def test_armed_runs_replay_and_count_what_an_unreplayed_run_counts(monkeypatch):
    arrivals = bursts([93.5, 95.25, 40.0], instants=16)

    def armed(cohorts: bool):
        config = ExecutionConfig.from_code(
            "PSE100", engine="batched", query_cache=True, observe=True
        )
        with engine_arms(cohorts=cohorts):
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
    monkeypatch.setattr(flow_memo, "FLOW_LIMIT", 0)
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
    assert_matches_reference(
        SMALL.schema, "PSE100", arrivals=arrivals, memo_limit=memo_limit, **FAST
    )


# -- (f) replay runs: the replays of one instant, one event per wave -------------------

DISPATCH = pytest.mark.parametrize("pooled", [False, True], ids=["per-event", "pooled"])

HOT = (93.5, 95.25, 97.0)

#: three valuations filed by t = 300 (the first occurrence misses, the second
#: is all-hit and files), then same-instant bursts that replay them
FILED = [
    (at + 10.0 * k, {PERF_SOURCE: v}) for at in (100.0, 200.0) for k, v in enumerate(HOT)
]


class _RunResumes:
    """Counts the replay runs that gave way mid-run (``Simulation.resume``
    handed a replay run back)."""

    def __init__(self, monkeypatch):
        self.count = 0
        resume = Simulation.resume

        def counted(sim, event, fn):
            self.count += isinstance(fn, flow_memo._ReplayRun)
            return resume(sim, event, fn)

        monkeypatch.setattr(Simulation, "resume", counted)


@DISPATCH
def test_replays_with_callbacks_give_way_to_what_their_callbacks_schedule(pooled, monkeypatch):
    """A closed loop with no think time: every arrival has a callback that
    submits the next at its own instant.  Replays (rows with a callback)
    and own runs (their hit waves) share instants; a replay's callback
    schedules a start that preempts the rest of its replay run, which
    gives way and resumes behind it, as per-event starts would."""
    rng = random.Random(5)
    values = [
        {PERF_SOURCE: rng.choice(HOT) if rng.random() < 0.8 else round(rng.uniform(89, 100), 6)}
        for _ in range(120)
    ]
    resumes = _RunResumes(monkeypatch)
    for cohorts in (False, True):
        engine = assert_matches_reference(
            PERF.schema, "PSE100", closed=(8, values, 0.0), pooled=pooled, cohorts=cohorts
        )
        assert engine.flow_replays > 40 and engine.hit_waves > 0
    assert resumes.count > 0


class LateListener(RecordingObserver):
    """Records nothing until someone subscribes (``has_listeners``), as the
    service's dispatcher drops events with no handler."""

    has_listeners = False

    def on_instance_start(self, instance):
        if self.has_listeners:
            super().on_instance_start(instance)

    def on_launch(self, instance, name, *, speculative):
        if self.has_listeners:
            super().on_launch(instance, name, speculative=speculative)

    def on_query_done(self, instance, name, *, units, completed):
        if self.has_listeners:
            super().on_query_done(instance, name, units=units, completed=completed)

    def on_instance_complete(self, instance):
        if self.has_listeners:
            super().on_instance_complete(instance)


@DISPATCH
def test_a_listener_subscribed_mid_instant_hears_the_rest_of_the_run(pooled):
    """The fourth replay of a burst subscribes a listener from its
    callback: the replays behind it in the same run emit every call from
    there on, the ones ahead none."""
    traces = {}
    for engine_cls in (Engine, BatchedEngine):
        listener = LateListener()

        def subscribe(_metrics, listener=listener):
            listener.has_listeners = True

        def drive(engine, sim):
            for at, values in FILED:
                engine.submit_instance(values, at=at)
            for k in range(12):
                callback = subscribe if k == 3 else None
                engine.submit_instance({PERF_SOURCE: HOT[k % 3]}, at=300.0, on_complete=callback)

        traces[engine_cls], engine = run(
            engine_cls, PERF.schema, "PSE100", drive=drive, pooled=pooled, listen=listener
        )
        heard = {event[1] for event in listener.events}
    assert_same(traces[Engine], traces[BatchedEngine])
    assert engine.flow_replays == 12
    assert 0 < len(heard) < 12  # the run was heard from its middle on


@DISPATCH
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
def test_an_eviction_mid_run_falls_back_inside_the_run(pooled, halt_policy, monkeypatch):
    """A query memo smaller than one instance's keys: a replay finds a key
    evicted at a wave of a run it shares with other replays, becomes an
    instance there, and runs the rest for real."""
    pattern = scenario_pattern(0, nb_nodes=24, pct_enabled=50.0, max_cost=6)
    source = pattern.schema.source_names[0]
    base = pattern.source_values[source]
    rng = random.Random(7)
    arrivals = [
        (50.0 * (instant + 1), {source: base if rng.random() < 0.5 else base + rng.random()})
        for instant in range(40)
        for _ in range(4)
    ]
    runs, fell = [], []
    fire, fall_back = flow_memo.FlowMemo._fire, flow_memo.FlowMemo._fall_back

    def firing(self, run):
        runs.append(len(run.items) // 2)
        fire(self, run)

    def falling(self, row, trace, wave):
        fell.append(runs[-1])  # the waves of the run it fell back in
        fall_back(self, row, trace, wave)

    monkeypatch.setattr(flow_memo.FlowMemo, "_fire", firing)
    monkeypatch.setattr(flow_memo.FlowMemo, "_fall_back", falling)
    engine = assert_matches_reference(
        pattern.schema,
        "PSE100",
        arrivals=arrivals,
        memo_limit=16,
        halt_policy=halt_policy,
        pooled=pooled,
        cohorts=True,
    )
    assert engine.flow_fallbacks == len(fell) > 0 and max(fell) > 1


@DISPATCH
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
def test_replay_runs_under_either_halt_policy(pooled, halt_policy):
    arrivals = FILED + bursts(HOT, instants=12, burst=(4, 9), p_hot=0.8)
    engine = assert_matches_reference(
        PERF.schema,
        "PSE100",
        arrivals=arrivals,
        halt_policy=halt_policy,
        pooled=pooled,
    )
    assert engine.flow_replays > 30 and engine.flow_fallbacks == 0
    replays = [row for row in engine.instances if type(row) is Row and row.materialized is None]
    assert all(type(row.booked) is not SharedMetrics or row.done for row in replays)


def _progress(records: list) -> list:
    """*records* read (not None), each repeat of the one before left out."""
    records = [record for record in records if record is not None]
    return [record for k, record in enumerate(records) if not k or record != records[k - 1]]


def _straggling():
    """NSE50 on this pattern files 26's trace with a wave of stragglers
    after its finish, behind 1026's: warm-up, then a burst of both."""
    pattern = scenario_pattern(0, nb_nodes=24, pct_enabled=50.0, max_cost=6)
    source = pattern.schema.source_names[0]
    hot = [{source: pattern.source_values[source] + 1000 * k} for k in (0, 1)]
    warm = [(100.0 * k, hot[k % 2]) for k in range(12)]
    return pattern.schema, "NSE50", warm, [(1300.0, hot[k % 2]) for k in range(6)]


def _filed_perf():
    hot = [{PERF_SOURCE: value} for value in HOT]
    return PERF.schema, "PSE100", FILED, [(300.0, hot[k % 3]) for k in range(9)]


@DISPATCH
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
@pytest.mark.parametrize("case", [_filed_perf, _straggling], ids=["perf", "stragglers"])
def test_a_replays_record_read_after_every_step_is_the_references(pooled, halt_policy, case):
    """Each replay's ``metrics``, read after every ``sim.step()`` (a record
    of its own from the first read on, booked wave by wave), is a record
    the reference engine's instance held after some event, in order, and
    the last is its final one — where a replay finishes a wave before
    its stragglers arrive too.  Every other replay is read from the step
    after the one it finished in: its first record is made from the waves
    it has run."""
    schema, code, warm, burst = case()
    seen = {}
    for engine_cls in (Engine, BatchedEngine):
        reads = seen[engine_cls] = []

        def drive(engine, sim):
            for at, values in warm:
                engine.submit_instance(values, at=at)
            replays = [engine.submit_instance(values, at=at) for at, values in burst]
            done = set()
            while sim.step_instant() if pooled else sim.step():
                reads.append(
                    [_row(i.metrics) if k % 2 == 0 or k in done else None for k, i in enumerate(replays)]
                )
                done.update(k for k, instance in enumerate(replays) if instance.done)
            reads.append([_row(instance.metrics) for instance in replays])

        _, engine = run(
            engine_cls, schema, code, drive=drive, pooled=pooled, halt_policy=halt_policy
        )
    assert engine.flow_replays >= len(burst)
    for k in range(len(burst)):
        want = _progress([step[k] for step in seen[Engine]])
        got = _progress([step[k] for step in seen[BatchedEngine]])
        assert got[-1] == want[-1]
        rest = iter(want)
        assert all(record in rest for record in got), k  # a subsequence of the reference's
