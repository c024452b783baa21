"""CompiledPlan unit tests: condition compilation, ranks, templates, cache."""

from __future__ import annotations

import random

import pytest

from repro import (
    Attribute,
    BatchedEngine,
    Engine,
    Comparison,
    CompiledPlan,
    DecisionFlowSchema,
    ExceptionValue,
    IdealDatabase,
    IsException,
    IsNull,
    NULL,
    Op,
    PatternParams,
    Simulation,
    Strategy,
    UserPredicate,
    generate_pattern,
)
from repro.api import ExecutionConfig
from repro.core.conditions import And, FALSE, Literal, Not, Or, TRUE, UNRESOLVED
from repro.core.plan import compile_condition
from repro.core.predicates import attr
from repro.core.scheduler import permitted_slots, rank_key
from repro.errors import ExecutionError
from tests._support import chain_schema, diamond_schema, q


NAMES = ("a", "b", "c", "d")
INDEX = {name: i for i, name in enumerate(NAMES)}


def random_condition(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        kind = rng.randrange(5)
        name = rng.choice(NAMES)
        if kind == 0:
            return Comparison(name, rng.choice(list(Op)[:6]), rng.randint(0, 5))
        if kind == 1:
            return Comparison(name, rng.choice(list(Op)[:6]), attr(rng.choice(NAMES)))
        if kind == 2:
            return IsNull(name)
        if kind == 3:
            return IsException(name)
        return Literal(rng.random() < 0.5)
    children = [random_condition(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    pick = rng.random()
    if pick < 0.4:
        return And(*children)
    if pick < 0.8:
        return Or(*children)
    return Not(children[0])


def random_valuation(rng: random.Random) -> list[object]:
    pool = [UNRESOLVED, NULL, ExceptionValue("down"), 0, 1, 3, 5]
    return [rng.choice(pool) for _ in NAMES]


def test_compiled_conditions_match_eval_tri():
    """Property: closures agree with the interpreter on random ASTs/valuations."""
    rng = random.Random(42)
    for _ in range(300):
        condition = random_condition(rng)
        compiled = compile_condition(condition, INDEX)
        for _ in range(8):
            sv = random_valuation(rng)
            interpreted = condition.eval_tri(lambda name: sv[INDEX[name]])
            assert compiled(sv) == interpreted.value, (condition, sv)


def test_compiled_user_predicate_and_fallback():
    pred = UserPredicate("both_small", ("a", "b"), lambda v: v["a"] + v["b"] < 4)
    compiled = compile_condition(pred, INDEX)
    assert compiled([2, 3, 0, 0]) == 0
    assert compiled([1, 1, 0, 0]) == 2
    assert compiled([UNRESOLVED, 1, 0, 0]) == 1

    class Custom(And):  # unknown subclass exercises the interpreted fallback
        pass

    custom = Custom(Comparison("a", Op.GT, 1))
    assert compile_condition(custom, INDEX)([5, 0, 0, 0]) == 2


def test_literal_conditions_compile_to_constants():
    assert compile_condition(TRUE, INDEX)([UNRESOLVED] * 4) == 2
    assert compile_condition(FALSE, INDEX)([UNRESOLVED] * 4) == 0


@pytest.mark.parametrize("code", ["PSE50", "PCC50"])
def test_rank_scalars_agree_with_rank_key(code):
    """The plan's scalar ranks induce exactly the scheduler's ordering."""
    pattern = generate_pattern(PatternParams(nb_nodes=24, nb_rows=4, seed=5))
    strategy = Strategy.parse(code)
    plan = CompiledPlan(pattern.schema, strategy)

    from repro.core.instance import InstanceRuntime

    instance = InstanceRuntime(pattern.schema, strategy, "i", pattern.source_values, 0.0)
    queries = list(pattern.schema.query_names())
    by_key = sorted(queries, key=lambda name: rank_key(instance, name))
    by_scalar = sorted(queries, key=lambda name: plan.rank[plan.index[name]])
    assert by_scalar == by_key


def test_permitted_slots_matches_formula():
    assert permitted_slots(4, 0, 0) == 1      # sequential floor
    assert permitted_slots(4, 1, 0) == 0      # one already in flight
    assert permitted_slots(4, 0, 100) == 4    # launch the whole pool
    assert permitted_slots(2, 2, 50) == 0
    assert permitted_slots(3, 1, 50) == 1


def test_plan_templates_and_edges():
    schema, _ = diamond_schema()
    plan = CompiledPlan(schema, Strategy.parse("PSE100"))
    assert plan.names == schema.names
    assert [plan.names[i] for i in plan.source_idx] == list(schema.source_names)
    assert [plan.names[i] for i in plan.target_idx] == list(schema.target_names)
    # Source template: computed+enabled; everything else pending/unknown.
    s = plan.index["s"]
    assert plan.readiness0[s] == 2 and plan.enablement0[s] == 1
    t = plan.index["t"]
    assert plan.readiness0[t] == 0 and plan.enablement0[t] == 0
    assert plan.pending0[t] == 2  # a and b are non-source data inputs
    assert plan.edges.edge_count == schema.graph.edge_count()


def test_start_cache_reused_across_identical_sources():
    """Reuse is by signature, not by value: a valuation never seen before
    replays the start recorded for another with the same leaf outcomes."""
    pattern = generate_pattern(PatternParams(nb_nodes=16, nb_rows=4, seed=2))
    sim = Simulation()
    engine = BatchedEngine(pattern.schema, Strategy.parse("PSE100"), IdealDatabase(sim))
    plan = engine.plan
    assert plan.start_cache_ok and plan.memo  # generated patterns are query-only
    source_name = pattern.schema.source_names[0]
    source = plan.index[source_name]
    by_signature: dict[int, list[int]] = {}
    for value in range(-1, 101):
        by_signature.setdefault(plan.signature(source, value), []).append(value)
    (first, second, *_), (other, *_) = sorted(by_signature.values(), key=len, reverse=True)[:2]
    for value in (first, first, second, other, second):
        engine.submit_instance({source_name: value})
    sim.run()
    assert len(plan.root.steps) == 2  # one start per signature, not per valuation
    assert plan.memo_hits >= 3  # at least the three replayed starts
    assert plan.memo_misses <= 5  # an instance leaves the memo at its first miss
    assert all(instance.done for instance in engine.instances)


def test_start_cache_disabled_for_user_code_schemas():
    """Synthesis tasks (and user predicates) must run per instance, so
    schemas containing them never replay cached start states."""
    schema, source_values = diamond_schema()  # diamond's target is synthesis
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PSE100"), IdealDatabase(sim))
    assert not engine.plan.start_cache_ok
    for _ in range(3):
        engine.submit_instance(source_values)
    sim.run()
    assert not engine.plan.memo and engine.plan.states == {}  # no state interned
    assert all(instance.done for instance in engine.instances)


def test_synthesis_results_are_per_instance_objects():
    """Each instance owns a fresh synthesis result (no cross-instance
    aliasing through any cache), exactly like the reference engine."""
    from repro import Attribute, SynthesisTask

    attributes = [
        Attribute("s"),
        Attribute("box", task=SynthesisTask("box", ("s",), lambda v: [v["s"]]), is_target=True),
    ]
    schema = DecisionFlowSchema(attributes, name="boxer")
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
    for _ in range(3):
        engine.submit_instance({"s": 9})
    sim.run()
    boxes = [instance.cells["box"].value for instance in engine.instances]
    assert boxes == [[9], [9], [9]]
    assert len({id(box) for box in boxes}) == 3, "synthesis results aliased"


def test_start_cache_keys_distinguish_equal_but_typed_values():
    """1, True and 1.0 are ==-equal; the cache must not conflate them."""
    from repro import Attribute

    attributes = [
        Attribute("s"),
        Attribute("t", task=q("t", inputs=("s",), fn=lambda v: repr(v["s"])), is_target=True),
    ]
    schema = DecisionFlowSchema(attributes, name="typed")
    results = {}
    for engine_cls in (Engine, BatchedEngine):
        sim = Simulation()
        engine = engine_cls(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
        for value in (1, True, 1.0):
            engine.submit_instance({"s": value})
        sim.run()
        results[engine_cls] = [
            instance.cells["t"].value for instance in engine.instances
        ]
    assert results[Engine] == ["1", "True", "1.0"]
    assert results[BatchedEngine] == results[Engine]


def test_start_cache_never_aliases_source_objects():
    """A cache hit must not substitute the first submitter's ==-equal
    source objects into later instances (regression)."""
    schema, _ = chain_schema(length=2)
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
    first, second = float("7.5"), float("7.5")  # ==, same type, distinct objects
    assert first is not second
    engine.submit_instance({"s": first})
    engine.submit_instance({"s": second})
    sim.run()
    values = [instance.cells["s"].value for instance in engine.instances]
    assert values[0] is first and values[1] is second


def test_unorderable_dict_keys_key_in_insertion_order():
    """Mixed-type dict keys key as they come, unsorted: no crash."""
    schema, _ = chain_schema(length=2)
    for engine_cls in (Engine, BatchedEngine):
        sim = Simulation()
        engine = engine_cls(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
        engine.submit_instance({"s": {1: "a", "b": 2}})
        engine.submit_instance({"s": {1: "a", "b": 2}})
        sim.run()
        assert all(instance.done for instance in engine.instances)


def test_start_cache_is_bounded_and_keeps_hot_entries(monkeypatch):
    """Distinct signatures churn within the cap; once it is reached nothing
    more is recorded and what was keeps serving."""
    import repro.core.plan as plan_module

    monkeypatch.setattr(plan_module, "MEMO_LIMIT", 12)
    attributes = [Attribute("s")] + [
        Attribute(f"c{k}", task=q(f"c{k}", ("s",), value=k), condition=Comparison("s", Op.GT, k))
        for k in range(40)
    ]
    attributes.append(
        Attribute("t", task=q("t", tuple(f"c{k}" for k in range(40)), value=0), is_target=True)
    )
    schema = DecisionFlowSchema(attributes, name="thresholds")
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
    plan = engine.plan
    for _ in range(4):  # the hot valuation's first steps, recorded before the churn
        engine.submit_instance({"s": -7})
    sim.run()
    for value in range(40):  # 40 more signatures: 40 more starts to record
        engine.submit_instance({"s": value + 0.5}, at=sim.now)
    sim.run()
    assert plan.memo_steps == 12 and len(plan.states) <= 12
    assert sum(len(state.steps) for state in [plan.root, *plan.states.values()]) == 12
    hits, misses = plan.memo_hits, plan.memo_misses
    for _ in range(3):
        engine.submit_instance({"s": -7.5}, at=sim.now)  # hot signature, new value
    sim.run()
    assert all(instance.done for instance in engine.instances)
    assert plan.memo_hits >= hits + 3, "a full table stopped serving"
    assert plan.memo_misses <= misses + 3 and plan.memo_steps == 12


def test_batched_engine_validation_parity():
    schema, source_values = diamond_schema()
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
    with pytest.raises(ExecutionError, match="missing source values"):
        engine.submit_instance({})
    engine.submit_instance(source_values, instance_id="dup")
    with pytest.raises(ExecutionError, match="duplicate instance id"):
        engine.submit_instance(source_values, instance_id="dup")
    sim.run()
    with pytest.raises(ExecutionError, match="past time"):
        engine.submit_instance(source_values, at=-1.0)


def test_batched_run_single_and_cell_views():
    schema, source_values = chain_schema(length=3)
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PCE0"), IdealDatabase(sim))
    metrics = engine.run_single(source_values)
    assert metrics.done
    instance = engine.instances[0]
    cell = instance.cells["c3"]
    assert cell.stable and cell.value == 3
    assert instance.cells["c1"].state.name == "VALUE"
    assert instance.value_map()["c2"] == 2
    assert set(instance.state_map()) == set(schema.names)
    assert "c3" in instance.cells and len(instance.cells) == len(schema.names)


def test_execution_config_engine_field():
    config = ExecutionConfig(engine="batched")
    assert config.engine == "batched"
    assert "engine=batched" in repr(config)
    assert config.replace(engine="reference").engine == "reference"
    assert ExecutionConfig.from_code("PSE80", engine="batched").engine == "batched"
    with pytest.raises(ValueError, match="engine must be one of"):
        ExecutionConfig(engine="vectorized")


def test_batched_engine_repr_and_plan_repr():
    schema, source_values = diamond_schema()
    sim = Simulation()
    engine = BatchedEngine(schema, Strategy.parse("PSE50"), IdealDatabase(sim))
    engine.submit_instance(source_values)
    sim.run()
    assert "BatchedEngine" in repr(engine) and "1/1 done" in repr(engine)
    assert "CompiledPlan" in repr(engine.plan)
