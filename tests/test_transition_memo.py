"""The transition memo: control states interned per plan (core/plan.py).

Every test here runs a population whose valuations *differ* — the three
differential suites submit one valuation per scenario, so they exercise
the memo's hit path but not what keys it — and holds the batched engine
to the reference engine's whole trace (``tests/_support.trace_of``).
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

import repro.core.batch_instance as batch_instance
import repro.core.cohorts as cohort_tier
import repro.core.plan as plan_module
from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DecisionFlowSchema,
    Engine,
    IdealDatabase,
    IsException,
    IsNull,
    NULL,
    Op,
    Simulation,
    Strategy,
    SynthesisTask,
    UserPredicate,
)
from repro.api import DecisionService, ExecutionConfig
from repro.core.conditions import TRUE, And, Not, Or
from repro.core.predicates import attr
from repro.core.rows import Row
from tests._support import PERF, add_inputs, assert_matches_reference, q, run

#: No condition of the benchmark's pattern reads the source above 88, so
#: every valuation in (89, 100) has one signature.
PERF_SOURCE = PERF.schema.source_names[0]


def perf_arrivals(n, lo=89.0, hi=100.0, seed=3, spacing=5.0):
    """*n* distinct valuations of the perf pattern, Poisson arrivals."""
    rng = random.Random(seed)
    values: dict[float, None] = {}
    while len(values) < n:
        values[round(rng.uniform(lo, hi), 6)] = None
    at, arrivals = 0.0, []
    for value in values:
        at += rng.expovariate(1 / spacing)
        arrivals.append((at, {PERF_SOURCE: value}))
    return arrivals


# -- (a) what the memo keys on ---------------------------------------------------


def test_new_valuations_on_known_paths_run_no_propagation():
    """Distinct valuations, one signature: once the paths are recorded the
    miss counter stops while hits keep growing, in a few dozen states."""
    config = ExecutionConfig.from_code("PSE100", engine="batched", query_cache=True)
    service = DecisionService(PERF.schema, config)
    arrivals = perf_arrivals(400)
    for at, values in arrivals:
        service.submit(values, at=at)
    plan = service.engine.plan
    assert plan.memo
    service.run(until=arrivals[199][0])
    # An instance records at most one step, so a path is learnt by as many
    # instances as it has steps: 200 valuations record almost all there is.
    assert 20 <= plan.memo_misses <= 60
    service.run(until=arrivals[299][0])
    flat, hits = plan.memo_misses, plan.memo_hits
    service.run()
    assert all(handle.done for handle in service.handles)
    assert plan.memo_misses == flat
    assert plan.memo_hits > hits + 1500
    assert len(plan.states) == plan.memo_steps == flat < 100
    assert service.engine.cohort_hits == 0  # no two arrivals share an instant


def test_memoized_instances_alias_immutable_arrays():
    """What is shared cannot be written: a path that forgets to take its
    own copy raises instead of corrupting every instance in that state."""
    sim = Simulation()
    engine = BatchedEngine(PERF.schema, Strategy.parse("PSE100"), IdealDatabase(sim))
    first = engine.submit_instance({PERF_SOURCE: 93.0})
    sim.run(until=0.5)
    assert first._state is None and not first.done  # missed at its start: on its own arrays since
    assert isinstance(first._readiness, bytearray) and isinstance(first._cand, set)
    sim.run()
    # settled: its arrays stay, its candidate pool is the shared empty
    assert isinstance(first._readiness, bytearray) and first._cand is batch_instance._NO_NAMES
    second = engine.submit_instance({PERF_SOURCE: 94.0}, at=sim.now + 1.0)
    sim.run(until=sim.now + 1.5)
    state = second._state
    assert state is not None and not second.done
    assert second._readiness is state.readiness and isinstance(state.readiness, bytes)
    assert isinstance(second._pending, tuple) and isinstance(second._cand, frozenset)
    with pytest.raises(TypeError):
        second._launched[0] = 1
    with pytest.raises(AttributeError):
        second._cand.discard(0)
    assert second._raw is not first._raw and second._sv[0] == 94.0


# -- satellite: signatures are eager, conditions short-circuit -------------------


def lazy_leaf_schema():
    """t's condition reads a leaf that raises (``"x" < 5``) only when
    the leaf before it is false."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", inputs=("s",), value="x", cost=2)),
            Attribute(
                "t",
                task=q("t", inputs=("s",), value=1, cost=4),
                condition=Or(Comparison("s", Op.GT, 0), Comparison("a", Op.LT, 5)),
                is_target=True,
            ),
        ],
        name="lazy-leaf",
    )


@pytest.mark.parametrize("code", ["PSE100", "NCE0"])
def test_leaf_the_reference_never_evaluates_does_not_raise(code):
    arrivals = [(0.0, {"s": 1}), (1.0, {"s": 2}), (20.0, {"s": 3})]
    engine = assert_matches_reference(lazy_leaf_schema(), code, arrivals=arrivals, cache=False)
    assert engine.plan.memo_hits > 0
    # "x" < 5 raises: its own outcome (3) in a's signature, not an error.
    assert engine.plan.signature(engine.plan.index["a"], "x") == 3


@pytest.mark.parametrize("engine_cls", [Engine, BatchedEngine])
def test_leaf_that_raises_when_evaluated_still_raises(engine_cls):
    """With s <= 0 the reference does evaluate ``"x" < 5``; so must the
    kernel, on the miss path — after a neighbour warmed the memo too."""
    with pytest.raises(TypeError):
        run(
            engine_cls,
            lazy_leaf_schema(),
            "PSE100",
            arrivals=[(0.0, {"s": 1}), (50.0, {"s": 0})],
            cache=False,
        )


def zoo_schema():
    """IN, a NULL result, IsException / Not over a slot that can fail,
    and a speculative query disabled while it is in flight."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("kind", task=q("kind", ("s",), fn=lambda v: v["s"] % 5, cost=1)),
            Attribute("gone", task=q("gone", ("s",), fn=lambda v: NULL if v["s"] % 2 else 7, cost=2)),
            Attribute("flaky", task=q("flaky", ("s",), value=3, cost=1)),
            Attribute(
                "listed",
                task=q("listed", ("kind",), value=10, cost=2),
                condition=Comparison("kind", Op.IN, (1, 2, 3)),
            ),
            Attribute(
                "fallback",
                task=q("fallback", ("s",), value=20, cost=1),
                condition=Or(IsException("flaky"), IsNull("gone")),
            ),
            Attribute(
                "strict",
                task=q("strict", ("flaky",), value=30, cost=2),
                condition=And(Not(IsException("flaky")), Comparison("gone", Op.GE, 7)),
            ),
            # Launched speculatively at t=0 (cost 6); `kind` (cost 1)
            # disables it for s % 5 == 4 while it is still in flight, and
            # `slow` keeps the instance open until its result is discarded.
            Attribute(
                "spec",
                task=q("spec", ("s",), value=40, cost=6),
                condition=Comparison("kind", Op.LT, 4),
            ),
            Attribute("slow", task=q("slow", ("s",), value=50, cost=9)),
            Attribute(
                "t",
                task=q("t", ("listed", "fallback", "strict", "spec", "slow"), fn=add_inputs, cost=1),
                is_target=True,
            ),
        ],
        name="zoo",
    )


@pytest.mark.parametrize("code", ["PSE100", "PSC50", "PCE0", "NSE100"])
@pytest.mark.parametrize("failure_prob", [0.0, 0.4])
def test_every_leaf_kind_keys_the_memo(code, failure_prob):
    arrivals = [(index * 3.0, {"s": value}) for index, value in enumerate(range(40))]
    engine = assert_matches_reference(
        zoo_schema(), code, arrivals=arrivals, failure_prob=failure_prob, seed=9, cache=False
    )
    plan = engine.plan
    assert plan.memo and plan.memo_hits > plan.memo_misses > 0
    assert 0 < len(plan.states) <= plan.memo_steps == plan.memo_misses
    if code == "PSE100":
        # the discarded result moved readiness: a state change like any other
        assert any(
            inst.cells["spec"].state.name == "DISABLED"
            and inst.cells["spec"].readiness.name == "COMPUTED"
            for inst in engine.instances
        )


# -- (b) the bound ---------------------------------------------------------------


@pytest.mark.parametrize("limit", [0, 4, None])
@pytest.mark.parametrize("query_cache", [False, True])
def test_identical_at_any_table_bound(monkeypatch, limit, query_cache):
    """Overflow (4) and kernel-only (0) paths against the default."""
    if limit is not None:
        monkeypatch.setattr(plan_module, "MEMO_LIMIT", limit)
    arrivals = perf_arrivals(40, lo=80.0)
    engine = assert_matches_reference(
        PERF.schema, "PSE100", arrivals=arrivals, cache=query_cache, cohorts=True, pooled=True
    )
    plan = engine.plan
    if limit is not None:
        assert plan.memo_steps == len(plan.states) == limit
    assert plan.memo_misses <= len(arrivals)  # one per instance at most
    assert (plan.memo_hits > 0) == (limit != 0)


def test_divergent_population_stays_bounded_and_keeps_serving(monkeypatch):
    """Nearly every instance on its own path (wide domain, failures, no
    query cache): recording stops at the bound, hits do not."""
    monkeypatch.setattr(plan_module, "MEMO_LIMIT", 48)
    arrivals = perf_arrivals(120, lo=0.0)
    options = dict(failure_prob=0.3, cohorts=True, cache=False)
    _, half = run(BatchedEngine, PERF.schema, "PSE100", arrivals=arrivals[:60], **options)
    full = assert_matches_reference(PERF.schema, "PSE100", arrivals=arrivals, **options)
    for engine, population in ((half, 60), (full, 120)):
        plan = engine.plan
        assert plan.memo_steps == 48 and len(plan.states) <= 48
        assert sum(len(state.steps) for state in [plan.root, *plan.states.values()]) == 48
        assert 48 < plan.memo_misses <= population  # one per instance at most
    assert full.plan.memo_hits > half.plan.memo_hits > 0


# -- (c) eligibility -------------------------------------------------------------


def _diamond(condition=TRUE, target_task=None):
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", ("s",), fn=lambda v: v["s"] + 1, cost=2)),
            Attribute("b", task=q("b", ("s",), value=10, cost=3), condition=condition),
            Attribute(
                "t",
                task=target_task or q("t", ("a", "b"), fn=add_inputs, cost=1),
                is_target=True,
            ),
        ],
        name="diamond",
    )


INELIGIBLE = {
    "attr-to-attr": _diamond(Comparison("a", Op.GT, attr("s"))),
    "user-predicate": _diamond(UserPredicate("odd", ("s",), lambda v: v["s"] % 2 == 1)),
    "synthesis": _diamond(TRUE, SynthesisTask("t_sum", ("a", "b"), add_inputs)),
}


@pytest.mark.parametrize("case", sorted(INELIGIBLE))
def test_ineligible_plans_intern_nothing(case):
    arrivals = [(index * 2.0, {"s": index % 7}) for index in range(14)]
    engine = assert_matches_reference(INELIGIBLE[case], "PSE100", arrivals=arrivals, cache=False)
    plan = engine.plan
    assert not plan.memo
    assert plan.states == {} and plan.root.steps == {}
    assert plan.memo_hits == plan.memo_misses == plan.memo_steps == 0
    assert all(inst._state is None for inst in engine.instances)


def test_eligible_twin_of_the_ineligible_plans_is_memoized():
    arrivals = [(index * 2.0, {"s": index % 7}) for index in range(14)]
    engine = assert_matches_reference(
        _diamond(Comparison("s", Op.GT, 3)), "PSE100", arrivals=arrivals, cache=False
    )
    assert engine.plan.memo and engine.plan.memo_hits > 0


# -- (d) %Permitted < 100: selection reads the in-flight count -------------------


@pytest.mark.parametrize("permitted", [0, 50, 80])
@pytest.mark.parametrize("query_cache", [False, True])
def test_throttled_strategies_on_the_bounded_backend(permitted, query_cache):
    arrivals = perf_arrivals(24, lo=70.0, spacing=40.0)
    engine = assert_matches_reference(
        PERF.schema,
        f"PSE{permitted}",
        arrivals=arrivals,
        backend="bounded",
        failure_prob=0.2,
        cache=query_cache,
        cancel_unneeded=True,
    )
    plan = engine.plan
    assert plan.throttled and plan.memo_hits > 0
    assert all(len(event) == 3 for state in plan.states.values() for event in state.steps)


def test_one_state_two_inflight_counts_two_selections():
    """A cache follower holds no %Permitted slot.  `h` is keyed by the
    group `g`, `x` and `w` by `s`; PSE50 starts `h` and `x` and holds `w`
    back.  When `x` returns, the instance that issued its group's `h` has
    one query counted in flight and may not launch `w`; the one whose `h`
    coalesced behind it has none and must — from the same control state.
    """
    schema = DecisionFlowSchema(
        [
            Attribute("g"),
            Attribute("s"),
            Attribute("h", task=q("h", ("g",), value=1, cost=10)),
            Attribute("x", task=q("x", ("s",), value=2, cost=1)),
            Attribute("w", task=q("w", ("s",), value=3, cost=1)),
            Attribute("t", task=q("t", ("h", "x", "w"), fn=add_inputs, cost=1), is_target=True),
        ],
        name="follower-slot",
    )
    arrivals = [(0.0, {"s": 0, "g": 0})]
    for group in range(1, 5):  # an issuer, then a coalescer half a unit later
        arrivals.append((group * 20.0, {"s": 2 * group, "g": group}))
        arrivals.append((group * 20.0 + 0.5, {"s": 2 * group + 1, "g": group}))
    engine = assert_matches_reference(schema, "PSE50", arrivals=arrivals)
    plan = engine.plan
    (started,) = plan.root.steps.values()
    x = plan.index["x"]
    issuer, coalescer = started[0].steps[(x, 0, 1)], started[0].steps[(x, 0, 0)]
    assert issuer[5] == () and coalescer[5] == ("w",)
    assert issuer[0] is not coalescer[0]
    # Both were served again: by the later groups' issuers and coalescers.
    assert plan.memo_hits > plan.memo_misses


# -- (e) cohorts over memo-served representatives --------------------------------


def _bursts(valuations, size, gap=400.0, warm=12, source=PERF_SOURCE):
    """Singles that warm the memo, then same-instant bursts per valuation."""
    arrivals = [(index * gap, {source: 90.1 + index / 5}) for index in range(warm)]
    for index, value in enumerate(valuations):
        arrivals += [((warm + index) * gap, {source: value})] * size
    return arrivals


@pytest.mark.parametrize(
    "backend,failure_prob,query_cache",
    [
        ("ideal", 0.0, True),      # lockstep to the end: members alias the end state
        ("ideal", 0.35, True),     # lockstep, failures
        ("ideal", 0.35, False),    # no cache, no primaries to ride: inert
        ("bounded", 0.25, False),  # inert
        ("profiled", 0.0, True),
    ],
)
def test_cohorts_whose_representative_is_memo_served(backend, failure_prob, query_cache):
    if query_cache:
        # Members ride the primaries of a burst's first-stage launches: on
        # the perf pattern the warm-up leaves the source-free ones in the
        # query memo, so the bursts run on a schema that keys them all by
        # the source.
        schema, source = lockstep_schema(shared_tail=False), "s"
    else:
        schema, source = PERF.schema, PERF_SOURCE
    arrivals = _bursts([96.5, 12.0, 98.5], size=4, warm=40, source=source)
    engine = assert_matches_reference(
        schema,
        "PSE100",
        arrivals=arrivals,
        backend=backend,
        failure_prob=failure_prob,
        cache=query_cache,
        cohorts=True,
        pooled=True,
    )
    assert engine.plan.memo_hits > 0
    assert (engine.cohort_hits > 0) == query_cache
    if backend == "ideal" and not failure_prob:
        # Lockstep members (rows) read their representative's interned state.
        rows = [inst for inst in engine.instances if type(inst) is Row]
        reps = [rep_of(row) for row in rows if row.materialized is None]
        assert reps and all(isinstance(rep._readiness, bytes) for rep in reps)
        assert any(rep._state in engine.plan.states.values() for rep in reps)


def built(inst):
    """What an arrival runs as: the instance built for a row that ran for
    itself, the row or instance otherwise."""
    return inst.materialized if type(inst) is Row and inst.materialized is not None else inst


def rep_of(inst):
    """The representative a cohort member (a row, or an instance) rides;
    a representative rides itself."""
    inst = built(inst)
    return inst._link.rep if type(inst) is Row else inst._cohort.rep


def lockstep_schema(shared_tail: bool):
    """First-stage queries keyed by the source, so a burst's launches are
    cache primaries and its arrivals ride the first in lockstep.  With
    *shared_tail* a second-stage query is keyed by a constant: from the
    second instance on the cache answers it, which dissolves the cohort."""
    attributes = [
        Attribute("s"),
        Attribute("a", task=q("a", ("s",), fn=lambda v: v["s"] + 1, cost=2)),
        Attribute("k", task=q("k", ("s",), value=7, cost=3)),
        Attribute(
            "c",
            task=q("c", ("a",), fn=lambda v: v["a"] * 2, cost=2),
            condition=Comparison("a", Op.GT, 3),
        ),
    ]
    if shared_tail:
        attributes.append(Attribute("e", task=q("e", ("k",), value=9, cost=2)))
    attributes.append(
        Attribute(
            "t",
            task=q("t", ("a", "c", "e" if shared_tail else "k"), fn=add_inputs, cost=1),
            is_target=True,
        )
    )
    return DecisionFlowSchema(attributes, name="lockstep")


@pytest.mark.parametrize("shared_tail", [False, True])
@pytest.mark.parametrize("failure_prob", [0.0, 0.4])
def test_lockstep_cohorts_over_the_memo(monkeypatch, shared_tail, failure_prob):
    rebuilt = []
    dissolve = cohort_tier.Cohorts._dissolve

    def watched(self, cohort, recs, trigger):
        members = dissolve(self, cohort, recs, trigger)
        rebuilt.extend(type(member._readiness) for member in members)
        return members

    monkeypatch.setattr(cohort_tier.Cohorts, "_dissolve", watched)
    arrivals = [(index * 20.0, {"s": index % 8}) for index in range(24)]  # warm
    for index, value in enumerate([100, -20, 101, -21]):
        arrivals += [(600.0 + index * 20.0, {"s": value})] * 4
    engine = assert_matches_reference(
        lockstep_schema(shared_tail),
        "PSE100",
        arrivals=arrivals,
        failure_prob=failure_prob,
        cohorts=True,
        pooled=True,
    )
    plan = engine.plan
    assert engine.cohort_hits == 12 and plan.memo_hits > plan.memo_misses > 0
    if shared_tail:
        # Dissolved mid-flight: every member was rebuilt on arrays of its own.
        assert len(rebuilt) == engine.cohort_splits == 12 and set(rebuilt) == {bytearray}
        assert engine.cohort_exits == {"join": 0, "answered": 4, "cancelled": 0}
        return
    assert not rebuilt and engine.cohort_splits == 0
    if not failure_prob:
        # Lockstep to the end, representatives memo-served throughout: the
        # members are rows, which read an interned state and the
        # representative's values through their ride.
        reps = [inst for inst in engine.instances[24:] if rep_of(inst) is built(inst)]
        assert len(reps) == 4
        for inst in engine.instances[24:]:
            rep = rep_of(inst)
            assert rep._state in plan.states.values()
            if built(inst) is not rep:
                assert type(inst) is Row and inst.materialized is None
                readiness, _, raw, sv = inst._view()
                assert readiness is rep._readiness and raw is rep._raw and sv is rep._sv


# -- satellite: nothing plan-level holds an instance value -----------------------


class _Token:
    """A weakly referenceable, hashable source value."""


def test_released_instances_source_object_is_collectable():
    schema = DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("t", task=q("t", ("s",), value=1), condition=IsNull("s"), is_target=True),
        ],
        name="token",
    )
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PSE100"), IdealDatabase(sim))
    refs = []
    for _ in range(3):
        token = _Token()
        refs.append(weakref.ref(token))
        engine.submit_instance({"s": token})
        del token
    sim.run()
    assert engine.plan.memo_hits > 0 and engine.plan.states
    assert len(engine.release_settled()) == 3
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    engine.submit_instance({"s": _Token()}, at=sim.now + 1.0)
    sim.run()
    assert engine.instances[0].done


# -- satellite: observability ----------------------------------------------------


def test_memo_gauges_are_published_beside_pooled_batches():
    config = ExecutionConfig.from_code(
        "PSE100", engine="batched", query_cache=True, observe=True
    )
    service = DecisionService(PERF.schema, config)
    for at, values in perf_arrivals(30):
        service.submit(values, at=at)
    service.run()
    gauges = {entry["name"]: entry["value"] for entry in service.observability()["gauges"]}
    plan = service.engine.plan
    assert gauges["engine_memo_states"] == len(plan.states) > 0
    assert gauges["engine_memo_hits"] == plan.memo_hits > 0
    assert gauges["engine_memo_misses"] == plan.memo_misses > 0
    assert "pooled_batches" in gauges
    # Not in the dicts the sharded differential compares across executors.
    assert not any("memo" in key for key in service.dispatch_stats())
    assert not any("memo" in key for key in service.summary().to_dict())
    # The reference engine has no memo, and no instruments to publish one.
    with pytest.raises(ValueError, match="reference engine is not instrumented"):
        config.replace(engine="reference")
