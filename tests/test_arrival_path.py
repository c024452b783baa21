"""The arrival path: from ``submit()`` to an arrival's first decision
(``BatchedEngine.submit_instance`` / ``_fire_run``, ``BatchedInstance.start``,
``Cohorts._riders`` / ``_join``).

Three shortcuts that must not be observable, and one key they lean on:

* an arrival owns nothing until it starts for itself, and a settled
  instance nothing but its answer (allocation budgets, held as tests);
* consecutive arrivals for one instant share one calendar event, an
  *arrival run*, on the batched engine — held here to **per-arrival
  semantics**: each script's trace (``tests/_support.trace_of``) must be
  the reference engine's (one start event per arrival, drained event by
  event), with runs and with every run broken after each submit (a
  scheduled-and-cancelled no-op moves ``Simulation.scheduled``, so the
  next arrival opens a run of its own), per-event and pooled;
* consecutive arrivals of a run that ride one open cohort join it in
  one step;
* the typed start key tells ``0.0`` from ``-0.0`` (it did not).

A refused submission leaves no trace: not its id, not a number, not a
place in a run.
"""

from __future__ import annotations

import gc
import random
import re
from collections import deque

import pytest

import repro.core.flow_memo as flow_memo
import repro.core.plan as plan_module
from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DecisionFlowSchema,
    Engine,
    IdealDatabase,
    Op,
    Simulation,
    Strategy,
)
from repro.api import DecisionService, ExecutionConfig
from repro.core.predicates import UserPredicate
from repro.errors import ExecutionError
from repro.server import ServerDaemon
from tests._support import (
    HIGH,
    LOW,
    OTHER,
    METRIC_FIELDS,
    PERF,
    RETENTION_BUDGET,
    assert_same,
    engine_arms,
    population,
    q,
    retained_bytes,
    retention_table,
    run,
    two_source_schema,
    typed_schema,
    unsettled,
)

PERF_SOURCE = PERF.schema.source_names[0]
FAST = dict(engine="batched", query_cache=True)


def fast_service(schema=PERF.schema, **overrides) -> DecisionService:
    return DecisionService(schema, ExecutionConfig.from_code("PSE100", **{**FAST, **overrides}))


# -- a float zero keys with its sign ------------------------------------------------


def str_schema() -> DecisionFlowSchema:
    """source ``s`` → target ``t = str(s)``: tells ``-0.0`` from ``0.0``."""
    task = q("t", inputs=("s",), fn=lambda values: str(values["s"]))
    return DecisionFlowSchema(
        [Attribute("s"), Attribute("t", task=task, is_target=True)], name="zeros"
    )


ZEROS = [0.0, -0.0, 0.0, -0.0]


def read_zeros(monkeypatch=None, parked=None, pooled=True, cohorts=True, **config):
    if parked is not None:
        module, name = parked
        monkeypatch.setattr(module, name, 0)
    with engine_arms(pooled=pooled, cohorts=cohorts):
        service = DecisionService(str_schema(), ExecutionConfig.from_code("PSE100", **config))
    handles = [service.submit({"s": value}, at=float(at)) for at, value in enumerate(ZEROS)]
    service.run()
    return [h.value("t") for h in handles], [repr(h.value("s")) for h in handles]


@pytest.mark.parametrize(
    "config",
    [
        dict(engine="reference", pooled=False),
        dict(engine="reference", query_cache=True, pooled=False),
        dict(engine="batched", pooled=False),
        dict(engine="batched", query_cache=True, pooled=False, cohorts=False),
        dict(engine="batched", query_cache=True, cohorts=False),
        FAST,
    ],
    ids=["reference", "reference-cache", "batched", "batched-cache", "no-cohorts", "fast"],
)
def test_negative_zero_is_not_zero(config):
    """The re-anchor's reproducer: with every tier armed the batched
    engine answered ``'0.0'`` four times and read the fourth ``s`` back
    as ``0.0`` (a flow replay aliasing the first's value list)."""
    answers, sources = read_zeros(**config)
    assert answers == ["0.0", "-0.0", "0.0", "-0.0"]
    assert sources == ["0.0", "-0.0", "0.0", "-0.0"]


@pytest.mark.parametrize(
    "parked",
    [(plan_module, "LAUNCH_LIMIT"), (flow_memo, "FLOW_LIMIT")],
    ids=["launch-memo-parked", "flow-memo-parked"],
)
def test_negative_zero_with_a_tier_parked(monkeypatch, parked):
    answers, sources = read_zeros(monkeypatch, parked, **FAST)
    assert answers == sources == ["0.0", "-0.0", "0.0", "-0.0"]


def test_both_tiers_tell_the_zeros_apart_on_their_own():
    """Each of the two tables that conflated them, asked directly."""
    database = IdealDatabase(Simulation())
    plan = BatchedEngine(str_schema(), Strategy.parse("PSE100"), database, query_cache=True).plan
    assert plan.start_key({"s": 0.0}) != plan.start_key({"s": -0.0})
    assert plan.start_key({"s": 0.0}) == plan.start_key({"s": 0.0})
    assert plan.start_key({"s": (1, [-0.0])}) != plan.start_key({"s": (1, [0.0])})
    nan = float("nan")
    assert plan.start_key({"s": nan}) == plan.start_key({"s": nan})  # the one object
    assert plan.start_key({"s": nan}) != plan.start_key({"s": float("nan")})
    t = plan.index["t"]
    positive = plan.launch_entry(t, [0.0, None])
    negative = plan.launch_entry(t, [-0.0, None])
    assert (positive[1], negative[1]) == ("0.0", "-0.0")
    assert positive[0] != negative[0]  # two cache keys, as the reference engine asks
    assert plan.launch_entries == 2


def test_zeros_back_to_back_at_one_instant_do_not_ride_each_other():
    """Cohorts on, one run: neither zero rides the other, and the bulk
    join stops where the sign changes.  (The two have a cache key each, as
    on the reference engine, so no query coalesces across the signs and
    each zero rides the open cohort of its own sign.)"""
    for values, hits, bulk in (
        ([0.0, -0.0], 0, 0),
        ([0.0, 0.0, -0.0, -0.0, -0.0], 3, 1),
        ([0.0, 0.0, 0.0, -0.0, 0.0], 3, 1),
    ):
        arrivals = [(0.0, {"s": value}) for value in values]
        for pooled in (False, True):
            reference, _ = run(Engine, str_schema(), "PSE100", arrivals=arrivals, pooled=pooled)
            trace, engine = run(
                BatchedEngine, str_schema(), "PSE100", arrivals=arrivals, cohorts=True, pooled=pooled
            )
            assert_same(reference, trace)
            assert engine.arrival_runs == 1
            assert (engine.cohort_hits, engine.bulk_joins) == (hits, bulk)
            assert engine.bulk_join_members == 2 * bulk
            answers = [dict(stable)["t"] for _, _, stable in trace["values"]]
            assert answers == [repr(str(value)) for value in values]


# -- a refused submission burns nothing ---------------------------------------------


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_a_refused_submission_leaves_its_id_free(engine):
    service = DecisionService(PERF.schema, ExecutionConfig.from_code("PSE100", engine=engine))
    good = PERF.source_values
    with pytest.raises(ExecutionError, match="missing source values"):
        service.submit({}, instance_id="x")
    with pytest.raises(ExecutionError, match="missing source values"):
        service.submit({})
    service.run(until=5.0)
    with pytest.raises(ExecutionError, match=re.escape(f"{PERF.schema.name}#1") + ".*past time"):
        service.submit(good, at=1.0)
    assert not service.engine.instances and service.backend.simulation.pending == 0
    first = service.submit(good, instance_id="x")  # the same name, on retry
    second = service.submit(good)  # the number the refused calls would have got
    assert (first.instance_id, second.instance_id) == ("x", f"{PERF.schema.name}#1")
    with pytest.raises(ExecutionError, match="missing source values"):
        service.submit({})  # between two arrivals of one run: in no run
    third = service.submit(good)
    assert third.instance_id == f"{PERF.schema.name}#2"
    with pytest.raises(ExecutionError, match="duplicate instance id 'x'"):
        service.submit(good, instance_id="x")
    service.run()
    assert first.done and second.done and third.done
    if engine == "batched":  # (the reference engine starts each arrival by its own event)
        assert (service.engine.arrival_runs, service.engine.arrival_run_arrivals) == (1, 3)


def test_a_refused_submission_through_the_daemon():
    """``_mark_failed``'s path: the bad valuation fails alone, holds no
    place in the engine, and its id is not claimed there."""
    daemon = ServerDaemon(PERF.schema, "PSE100", default_values=PERF.source_values)
    try:
        bad = daemon.submit({"no_such_attribute": 1}).accepted[0]
        good = daemon.submit().accepted[0]
        assert daemon.wait_idle(30.0)
        assert daemon.get(bad)["status"] == "failed"
        assert daemon.get(good)["status"] == "done"
        engine = daemon.service.engine
        # `good` is done and released with its epoch: no longer claimed either
        assert bad not in engine._instance_ids and good not in engine._instance_ids
        assert engine.arrival_run_arrivals == 1
        handle = daemon.service.submit(PERF.source_values, instance_id=bad)
        assert handle.result()
    finally:
        daemon.shutdown()


# -- runs are exact: each script against per-arrival semantics ----------------------


def driver(script, lone: bool):
    """``drive=`` for :func:`run`: *script* gets a ``submit`` that,
    when *lone*, breaks the run after every arrival."""

    def drive(engine, sim):
        def submit(values, **kwargs):
            instance = engine.submit_instance(values, **kwargs)
            if lone:
                sim.schedule_at(sim.now, lambda: None).cancel()
            return instance

        script(submit, engine, sim)

    return drive


STACKS = [
    (BatchedEngine, dict(cohorts=False)),
    (BatchedEngine, dict(cohorts=True)),
]


def assert_runs_are_invisible(schema, code, script, **kwargs) -> dict:
    """Every stack under both dispatch modes, with runs and with every
    run broken, against the reference engine's per-arrival, per-event
    trace; returns ``{(stack index, pooled): engine}`` of the runs with
    runs."""
    oracle, _ = run(Engine, schema, code, drive=driver(script, lone=True), **kwargs)
    engines = {}
    for pooled in (False, True):
        for index, (engine_cls, stack) in enumerate(STACKS):
            for lone in (True, False):
                trace, engine = run(
                    engine_cls, schema, code, drive=driver(script, lone), pooled=pooled,
                    **stack, **kwargs,
                )  # fmt: skip
                assert_same(oracle, trace)
            engines[index, pooled] = engine
    return engines


def log(engine, *entry):
    engine.observer.events.append(entry)


def test_a_plain_event_between_two_submits_breaks_the_run():
    def script(submit, engine, sim):
        submit(HIGH, at=5.0)
        submit(HIGH, at=5.0)
        sim.schedule_at(5.0, lambda: log(engine, "plain"))
        submit(HIGH, at=5.0)
        submit(LOW, at=5.0)
        sim.run()

    engines = assert_runs_are_invisible(two_source_schema(), "PSE100", script)
    for engine in engines.values():
        assert (engine.arrival_runs, engine.arrival_run_arrivals) == (2, 4)
        events = engine.observer.events
        starts = [k for k, event in enumerate(events) if event[0] == "start"]
        assert starts[1] < events.index(("plain",)) < starts[2]
    assert engines[1, True].cohort_hits == 2  # the third rides across the break


def test_a_run_stays_open_across_a_run_until_that_fired_nothing():
    def script(submit, engine, sim):
        submit(HIGH, at=50.0)
        submit(LOW, at=50.0)
        sim.run(until=10.0)
        assert sim.now == 10.0
        submit(HIGH, at=50.0)
        submit(HIGH, at=50.0)
        sim.run()

    for engine in assert_runs_are_invisible(two_source_schema(), "PSE100", script).values():
        assert (engine.arrival_runs, engine.arrival_run_arrivals) == (1, 4)


def test_a_run_until_that_fired_something_closes_the_run():
    def script(submit, engine, sim):
        submit({"s1": 2, "s2": 9}, at=0.0)  # shares no start query with HIGH
        submit(HIGH, at=50.0)
        submit(HIGH, at=50.0)
        sim.run(until=10.0)  # the first instance has run: its events came in between
        submit(HIGH, at=50.0)
        submit(HIGH, at=50.0)
        sim.run()

    engines = assert_runs_are_invisible(two_source_schema(), "PSE100", script)
    for engine in engines.values():
        assert (engine.arrival_runs, engine.arrival_run_arrivals) == (3, 5)
    assert engines[1, False].bulk_joins == 1  # the second run's pair, in one step


def closed_loop(queue, concurrency: int):
    """A script keeping *concurrency* of *queue* in flight, no think time:
    each completion submits the next at its own instant."""

    def script(submit, engine, sim):
        todo = deque(queue)

        def submit_next(_metrics=None):
            if todo:
                submit(todo.popleft(), on_complete=submit_next)

        for _ in range(concurrency):
            submit_next()
        sim.run()

    return script


def gated_schema() -> DecisionFlowSchema:
    """``typed_schema`` whose target is off for ``s <= 0``: such an
    instance finishes inside its own start."""
    return typed_schema(lambda values: values["s"] * 2, condition=Comparison("s", Op.GT, 0))


@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
@pytest.mark.parametrize("concurrency", [2, 3, 5])
def test_a_closed_loop_replaces_inside_a_run_and_inside_a_hit_wave(concurrency, halt_policy):
    """No think time: a replacement lands at ``now`` from inside the run
    that started the instance it replaces (``s <= 0`` finishes at its
    start) and from inside the hit wave that finished one."""
    rng = random.Random(concurrency)
    queue = [{"s": rng.choice([0, 0, -1, 3, 3, 4, 7])} for _ in range(24)]

    script = closed_loop(queue, concurrency)
    engines = assert_runs_are_invisible(gated_schema(), "PSE100", script, halt_policy=halt_policy)
    for (index, _), engine in engines.items():
        assert engine.arrival_run_arrivals == len(queue)
        assert engine.arrival_runs < len(queue)  # the first `concurrency`, at least, are one
        assert engine.hit_waves > 0


def test_a_closed_loop_on_the_benchmark_pattern():
    rng = random.Random(4)
    queue = [
        {PERF_SOURCE: rng.choice([93.5, 40.0]) if rng.random() < 0.5 else round(rng.uniform(80, 100), 3)}
        for _ in range(20)
    ]  # fmt: skip

    script = closed_loop(queue, 4)
    engines = assert_runs_are_invisible(PERF.schema, "PSE100", script, cancel_unneeded=True)
    assert engines[1, True].hit_waves > 12
    assert engines[1, True].arrival_runs < 20


def raising_schema() -> DecisionFlowSchema:
    def unlucky(values):
        if values["s"] == 13:
            raise ValueError("thirteen")
        return True

    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", inputs=("s",), value=1, cost=2)),
            Attribute(
                "t",
                task=q("t", inputs=("a",), value=2),
                condition=UserPredicate("unlucky", ("s",), unlucky),
                is_target=True,
            ),
        ],
        name="raising",
    )


def test_a_start_that_raises_leaves_the_rest_of_the_run_queued():
    values = [1, 2, 13, 4, 13, 6]

    def script(submit, engine, sim):
        for value in values:
            submit({"s": value}, at=3.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="thirteen"):
                sim.run()
            log(engine, "raised", sim.pending)
        sim.run()

    oracle = None
    for pooled in (False, True):
        for engine_cls in (Engine, BatchedEngine):
            for lone in (True, False) if engine_cls is BatchedEngine else (True,):
                trace, engine = run(
                    engine_cls, raising_schema(), "PSE100", drive=driver(script, lone), pooled=pooled
                )
                done = [done for _, done, _ in trace["values"]]
                assert done == [value != 13 for value in values]
                assert trace["end"][1] == 0
                # `pending` between the raises counts a run once: leave it out
                events = engine.observer.events
                trace["events"] = [event[:1] if event[0] == "raised" else event for event in events]
                assert trace["events"].count(("raised",)) == 2
                oracle = oracle or trace
                assert_same(oracle, trace)
                if not lone:
                    assert (engine.arrival_runs, engine.arrival_run_arrivals) == (1, 6)
                    # two queries in flight, and the rest of the run: one event
                    assert ("raised", 3) in events


@pytest.mark.parametrize("band", [(0, -1), (-1, 0)], ids=["sub-priority", "band"])
def test_an_urgent_event_from_a_start_callback_preempts_the_rest_of_the_run(band):
    """The one way the resume branch is reached: a start callback
    schedules, at this instant, below band 0 sub 0 — what per-event
    stepping fires before the next arrival's start.  Nothing in the
    package does; ``Simulation.schedule_at`` is public, so a caller can."""

    def script(submit, engine, sim):
        announce = engine.observer.on_instance_start

        def on_instance_start(instance):
            announce(instance)
            if instance.instance_id.endswith(("#2", "#5")):
                sim.schedule_at(sim.now, lambda: log(engine, "urgent"), priority=band)

        engine.observer.on_instance_start = on_instance_start
        for values in (HIGH, HIGH, HIGH, HIGH, OTHER, OTHER, OTHER):
            submit(values, at=2.0)
        sim.run()

    engines = assert_runs_are_invisible(two_source_schema(), "PSE100", script)
    for (index, pooled), engine in engines.items():
        order = [
            "urgent" if event == ("urgent",) else event[1].rpartition("#")[2]
            for event in engine.observer.events
            if event[0] in ("start", "urgent")
        ]
        assert order == ["1", "2", "urgent", "3", "4", "5", "urgent", "6", "7"]
        assert (engine.arrival_runs, engine.arrival_run_arrivals) == (1, 7)
    cohorts = engines[1, True]
    assert cohorts.cohort_hits == 5
    # #2 joins alone (its callback scheduled), #3-#4 in one step, #6-#7 behind their own #5
    assert (cohorts.bulk_joins, cohorts.bulk_join_members) == (2, 4)
    # the run fired three times: two resumes, each counted as an event
    arrivals = [(2.0, HIGH)] * 4 + [(2.0, OTHER)] * 3
    plain = run(BatchedEngine, two_source_schema(), "PSE100", arrivals=arrivals)
    assert engines[0, False].sim.events_executed == plain[1].sim.events_executed + 2 + 2


# -- an allocation budget ------------------------------------------------------------


def tracked() -> int:
    """Objects the cyclic collector still walks after a full collection
    (which also untracks what turned out to hold nothing to walk: the
    nested tuples of a start key)."""
    gc.collect()
    return len(gc.get_objects())


def holds_a_container(instance) -> bool:
    slots = (getattr(instance, name, None) for name in type(instance).__slots__)
    return any(isinstance(value, (deque, set)) for value in slots)


def test_identical_arrivals_stay_within_the_budget_before_and_after_the_run():
    """11.3 tracked objects per arrival before this budget existed, 3.3
    now (the instance, its metrics, its handle)."""
    service, n = fast_service(), 2000
    values = dict(PERF.source_values)
    before = tracked()
    handles = [service.submit(values) for _ in range(n)]
    assert tracked() - before <= 5 * n
    assert not any(holds_a_container(handle.instance) for handle in handles)
    service.run()
    assert sum(bool(handle.result()) for handle in handles) == n
    assert tracked() - before <= 5 * n
    # one representative ran for itself, and let go of its containers on settling
    assert sum(holds_a_container(handle.instance) for handle in handles) == 0
    assert not any(unsettled(handle.instance) for handle in handles)
    engine = service.engine
    assert (engine.cohort_hits, engine.bulk_joins, engine.bulk_join_members) == (n - 1, 1, n - 1)
    assert (engine.arrival_runs, engine.arrival_run_arrivals) == (1, n)
    assert service.backend.simulation.events_executed < 40


def test_replayed_arrivals_stay_within_the_budget():
    """Eight hot valuations, each on file: every arrival is a flow-memo
    replay and ends aliasing its trace's arrays."""
    service, n = fast_service(), 2000
    hot = [{PERF_SOURCE: 89.0 + k} for k in range(8)]
    for at, values in enumerate(hot + hot):  # the first occurrence misses, the second files
        service.submit(values, at=100.0 * at)
    service.run()
    base, before = service.now + 1.0, tracked()
    handles = [service.submit(hot[k % 8], at=base + k // 16) for k in range(n)]
    assert tracked() - before <= 5 * n
    service.run()
    assert tracked() - before <= 5 * n
    assert service.engine.flow_replays == n and service.engine.flow_fallbacks == 0
    assert not any(holds_a_container(handle.instance) for handle in handles)
    assert all(handle.done for handle in handles)


def test_a_lone_arrival_pays_for_no_run_machinery():
    """500 unique valuations at 500 instants (14.1 tracked objects each
    before): every run is a run of one, and holds no list."""
    service, n = fast_service(), 500
    before = tracked()
    handles = [service.submit({PERF_SOURCE: 80.0 + k / 32}, at=float(k)) for k in range(n)]
    assert tracked() - before <= 11 * n
    assert service.engine._run.arrivals is None
    service.run()
    assert all(handle.done for handle in handles)
    assert service.engine.arrival_runs == service.engine.arrival_run_arrivals == n


def test_a_write_before_start_fails_loudly():
    service = fast_service()
    instance = service.submit(PERF.source_values).instance
    with pytest.raises(TypeError):
        instance.inflight["x"] = object()
    with pytest.raises(AttributeError):
        instance.speculative_launch.add("x")
    with pytest.raises(AttributeError):
        instance._cand.add(1)
    with pytest.raises(AttributeError):
        instance._queue.append(1)
    other = service.submit(PERF.source_values).instance
    assert not other.inflight and not other.speculative_launch
    service.run()
    # settled: the containers are the read-only empties again
    assert instance.done and other.done
    for settled in (instance, other):
        assert not unsettled(settled)
        with pytest.raises(TypeError):
            settled.inflight["x"] = object()
        with pytest.raises(AttributeError):
            settled.speculative_launch.add("x")
        with pytest.raises(AttributeError):
            settled._cand.add(1)
        with pytest.raises(AttributeError):
            settled._queue.append(1)


def test_a_settled_distinct_population_keeps_only_its_answer():
    """500 unique valuations at 500 instants: each instance ran for itself,
    and after the run none holds a container, its sources or its start key
    — while every reader still answers."""
    service, n = fast_service(), 500
    sources = [{PERF_SOURCE: 80.0 + k / 32} for k in range(n)]
    handles = [service.submit(values, at=float(k)) for k, values in enumerate(sources)]
    service.run()
    assert all(handle.done for handle in handles)
    assert [name for handle in handles for name in unsettled(handle.instance)] == []
    for handle, values in zip(handles, sources):
        assert handle.value(PERF_SOURCE) == values[PERF_SOURCE]
        assert handle.value_map()[PERF_SOURCE] == values[PERF_SOURCE]
        assert handle.result()


@pytest.mark.parametrize("kind", sorted(RETENTION_BUDGET))
def test_a_retained_finished_instance_stays_within_its_byte_budget(kind):
    """Traced bytes per finished instance with every handle held, on the
    product stack (the CI "Retention census" step prints them by site)."""
    service, n = fast_service(), 1000

    def drive():
        handles = [service.submit({PERF_SOURCE: value}, at=at) for at, value in population(kind, n)]
        service.run()
        assert all(handle.done for handle in handles)
        return handles

    sites = retained_bytes(drive)
    assert sum(sites.values()) / n <= RETENTION_BUDGET[kind], retention_table(sites, n)


def straggler_schema() -> DecisionFlowSchema:
    """``t`` reads ``g`` only where ``a > 3``, and ``g`` reads the slow
    ``x``: below it ``x`` (cost 20, launched at the start) is unneeded
    from ``a`` on, and still running when ``t`` decides at t = 2."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", ("s",), fn=lambda v: v["s"], cost=1)),
            Attribute("x", task=q("x", ("s",), value=5, cost=20)),
            Attribute(
                "g", task=q("g", ("x",), value=2, cost=1), condition=Comparison("a", Op.GT, 3)
            ),
            Attribute("t", task=q("t", ("a", "g"), fn=lambda v: v["a"], cost=1), is_target=True),
        ],
        name="straggler",
    )


def test_an_instance_keeps_its_containers_until_its_straggler_books_its_units():
    """Halt ``cancel``, two arrivals with one valuation: both decide at
    t = 2 with ``x`` in flight.  The first's ``x`` is a primary the
    second waits on, so it is not cancelled and runs to t = 20; the
    second's cancelled wait resolves there too.  Neither is settled — nor
    lets go — until then, and their Work is the reference engine's."""
    seen = {}

    def drive(engine, sim):
        instances = [engine.submit_instance({"s": 1}) for _ in range(2)]
        sim.run(until=3.0)
        seen["done"] = [instance.done for instance in instances]
        seen["inflight"] = [list(instance.inflight) for instance in instances]
        if isinstance(engine, BatchedEngine):
            seen["held"] = [set(unsettled(instance)) for instance in instances]
        sim.run()

    traces = {}
    for engine_cls in (Engine, BatchedEngine):
        traces[engine_cls], engine = run(engine_cls, straggler_schema(), "PSE100", drive=drive)
        assert seen["done"] == [True, True] and seen["inflight"] == [["x"], ["x"]]
        assert all(instance.done and not instance.inflight for instance in engine.instances)
    for held in seen["held"]:
        assert {"inflight", "speculative_launch", "_sources"} <= held
    assert not any(unsettled(instance) for instance in engine.instances)
    assert_same(traces[Engine], traces[BatchedEngine])
    work = METRIC_FIELDS.index("work_units")
    # the first: a, t and all 20 units of x; the second rode its primaries
    assert [row[work] for row in traces[BatchedEngine]["metrics"]] == [1 + 1 + 20, 0]


# -- counters, and the armed run takes the same path ---------------------------------


@pytest.mark.parametrize("observe", [False, True])
def test_counters_and_gauges(observe):
    service = fast_service(observe=observe)
    values = dict(PERF.source_values)
    handles = [service.submit(values) for _ in range(6)]
    handles += [service.submit({PERF_SOURCE: 80.5}, at=1.0)]
    service.run()
    assert all(handle.done for handle in handles)
    engine = service.engine
    counts = (engine.arrival_runs, engine.arrival_run_arrivals, engine.bulk_joins, engine.bulk_join_members)
    assert counts == (2, 7, 1, 5)
    assert engine.cohort_hits == 5
    snapshot = service.observability()
    if not observe:
        assert snapshot["enabled"] is False
        return
    gauges = {entry["name"]: entry["value"] for entry in snapshot["gauges"]}
    assert gauges["engine_arrival_runs"] == 2
    assert gauges["engine_arrival_run_arrivals"] == 7
    assert gauges["engine_bulk_joins"] == 1
    assert gauges["engine_bulk_join_members"] == 5
    spans = [event for event in service.chrome_trace()["traceEvents"] if event.get("ph") == "X"]
    runs = [event for event in spans if event["name"] == "engine.arrival_run"]
    assert [event["args"]["arrivals"] for event in runs] == [6]  # one span per run of several


def test_the_reference_engine_starts_each_arrival_by_its_own_event():
    """The oracle runs no arrival runs (and no instruments): four arrivals
    at one instant are four start events where the product fires one."""
    with pytest.raises(ValueError, match="reference engine is not instrumented"):
        ExecutionConfig.from_code("PSE100", engine="reference", observe=True)
    arrivals = [(0.0, PERF.source_values)] * 4
    _, reference = run(Engine, PERF.schema, "PSE100", arrivals=arrivals, cache=False)
    _, batched = run(BatchedEngine, PERF.schema, "PSE100", arrivals=arrivals, cache=False)
    assert reference.sim.events_executed == batched.sim.events_executed + 3
    assert not hasattr(reference, "arrival_runs")
    assert (batched.arrival_runs, batched.arrival_run_arrivals) == (1, 4)
