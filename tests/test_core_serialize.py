"""Schema serialization: the Figure-2 schema-repository storage format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    And,
    Attribute,
    Comparison,
    DecisionFlowSchema,
    IsException,
    IsNull,
    Literal,
    NULL,
    Not,
    Op,
    Or,
    Rule,
    Strategy,
    UserPredicate,
    attr,
    evaluate_schema,
    generate_pattern,
    rule_set,
    synthesize,
)
from repro.api import ExecutionConfig
from repro.core.serialize import (
    SerializationError,
    condition_from_dict,
    condition_to_dict,
    config_from_dict,
    config_to_dict,
    dumps_schema,
    dumps_strategy,
    loads_schema,
    loads_strategy,
    schema_from_dict,
    schema_to_dict,
    strategy_from_dict,
    strategy_to_dict,
    task_from_dict,
    task_to_dict,
)
from repro.core.tasks import QueryTask, constant
from repro.workload import PatternParams
from tests._support import q, run_engine


class TestConditionRoundTrip:
    @pytest.mark.parametrize(
        "condition",
        [
            Literal(True),
            Literal(False),
            Comparison("a", Op.GE, 5),
            Comparison("a", Op.EQ, "gold"),
            Comparison("a", Op.LT, attr("b")),
            IsNull("a"),
            IsException("a"),
            And(Comparison("a", Op.GT, 1), IsNull("b")),
            Or(Comparison("a", Op.GT, 1), Not(IsNull("b"))),
            Not(And(Comparison("a", Op.GT, 1), Or(IsNull("b"), Literal(True)))),
        ],
    )
    def test_round_trip(self, condition):
        assert condition_from_dict(condition_to_dict(condition)) == condition

    def test_null_constant_round_trips(self):
        condition = Comparison("a", Op.EQ, NULL)
        assert condition_from_dict(condition_to_dict(condition)) == condition

    def test_sequence_constant_round_trips(self):
        condition = Comparison("a", Op.IN, (1, 2, 3))
        restored = condition_from_dict(condition_to_dict(condition))
        assert restored.eval_tri(lambda n: 2).name == "TRUE"

    def test_user_predicate_rejected(self):
        with pytest.raises(SerializationError, match="user predicates"):
            condition_to_dict(UserPredicate("p", ("a",), lambda v: True))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            condition_from_dict({"kind": "telepathy"})


class TestTaskRoundTrip:
    def test_constant_query(self):
        task = QueryTask("q1", ("a", "b"), constant(42), cost=3, description="dip")
        restored = task_from_dict(task_to_dict(task))
        assert restored.inputs == ("a", "b")
        assert restored.cost == 3
        assert restored.description == "dip"
        assert restored.compute({"a": 0, "b": 0}) == 42

    def test_arbitrary_query_fn_rejected(self):
        task = QueryTask("q1", (), lambda v: 1, cost=1)
        with pytest.raises(SerializationError, match="constant-result"):
            task_to_dict(task)

    def test_rule_set(self):
        task = rule_set(
            "score",
            ("tier",),
            [Rule("gold", Comparison("tier", Op.EQ, "gold"), 100)],
            policy="sum",
            default=0,
        )
        restored = task_from_dict(task_to_dict(task))
        assert restored.compute({"tier": "gold"}) == 100
        assert restored.compute({"tier": "tin"}) == 0

    def test_rule_set_with_callable_contribution_rejected(self):
        task = rule_set("r", ("x",), [Rule("f", Literal(True), lambda v: 1)])
        with pytest.raises(SerializationError, match="callable contribution"):
            task_to_dict(task)

    def test_synthesis_fn_rejected(self):
        with pytest.raises(SerializationError, match="synthesis"):
            task_to_dict(synthesize("s", ("a",), lambda v: 1))


class TestSchemaRoundTrip:
    def declarative_schema(self):
        return DecisionFlowSchema(
            [
                Attribute("s", doc="input"),
                Attribute(
                    "a",
                    task=q("a", inputs=("s",), value=5, cost=2),
                    condition=Comparison("s", Op.GE, 0),
                ),
                Attribute("t", task=q("t", inputs=("a",), value=9, cost=1), is_target=True),
            ],
            name="declarative",
        )

    def test_json_round_trip_preserves_semantics(self):
        schema = self.declarative_schema()
        restored = loads_schema(dumps_schema(schema))
        assert restored.name == schema.name
        assert restored.names == schema.names
        original = evaluate_schema(schema, {"s": 1})
        recovered = evaluate_schema(restored, {"s": 1})
        assert original.states == recovered.states
        assert original.values == recovered.values

    def test_round_trip_preserves_docs_and_targets(self):
        restored = schema_from_dict(schema_to_dict(self.declarative_schema()))
        assert restored["s"].doc == "input"
        assert restored.target_names == ("t",)

    def test_bad_format_version(self):
        with pytest.raises(SerializationError, match="format"):
            schema_from_dict({"format": 99, "attributes": []})

    def test_generated_patterns_are_fully_serializable(self):
        pattern = generate_pattern(PatternParams(nb_nodes=16, nb_rows=2, seed=5))
        restored = loads_schema(dumps_schema(pattern.schema))
        original = evaluate_schema(pattern.schema, pattern.source_values)
        recovered = evaluate_schema(restored, pattern.source_values)
        assert original.states == recovered.states

    def test_restored_schema_executes_identically(self):
        pattern = generate_pattern(PatternParams(nb_nodes=16, nb_rows=2, seed=6))
        restored = loads_schema(dumps_schema(pattern.schema))
        original_metrics, _ = run_engine(pattern.schema, "PSE100", pattern.source_values)
        restored_metrics, _ = run_engine(restored, "PSE100", pattern.source_values)
        assert original_metrics.work_units == restored_metrics.work_units
        assert original_metrics.elapsed == restored_metrics.elapsed


@settings(max_examples=20, deadline=None)
@given(
    nb_nodes=st.integers(4, 20),
    pct_enabled=st.integers(0, 100),
    seed=st.integers(0, 10),
)
def test_every_generated_pattern_round_trips(nb_nodes, pct_enabled, seed):
    params = PatternParams(
        nb_nodes=nb_nodes, nb_rows=min(2, nb_nodes), pct_enabled=pct_enabled, seed=seed
    )
    pattern = generate_pattern(params)
    restored = loads_schema(dumps_schema(pattern.schema))
    original = evaluate_schema(pattern.schema, pattern.source_values)
    recovered = evaluate_schema(restored, pattern.source_values)
    assert original.states == recovered.states
    assert original.values == recovered.values


class TestStrategyRoundTrip:
    @pytest.mark.parametrize(
        "code", ["PCE0", "PSE80", "NCC100", "NSE50", "PCC25"]
    )
    @pytest.mark.parametrize("cancel_unneeded", [False, True])
    def test_every_option_combination_round_trips(self, code, cancel_unneeded):
        strategy = Strategy.parse(code, cancel_unneeded=cancel_unneeded)
        restored = strategy_from_dict(strategy_to_dict(strategy))
        assert restored == strategy
        assert loads_strategy(dumps_strategy(strategy)) == strategy

    def test_dict_form_is_plain(self):
        data = strategy_to_dict(Strategy.parse("PSE80"))
        assert data == {"code": "PSE80", "cancel_unneeded": False}

    def test_not_a_strategy_rejected(self):
        with pytest.raises(SerializationError, match="expected a Strategy"):
            strategy_to_dict("PSE80")

    def test_bad_encoding_rejected(self):
        with pytest.raises(SerializationError, match="not a strategy encoding"):
            strategy_from_dict({"permitted": 80})


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        config = ExecutionConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_fully_loaded_config_round_trips(self):
        config = ExecutionConfig.from_code(
            "PSE80",
            cancel_unneeded=True,
            halt_policy="drain",
            share_results=True,
            backend="bounded",
            backend_options={"seed": 7},
            engine="batched",
            shards=4,
            executor="process",
            dispatch="pooled",
            query_cache=True,
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.strategy == config.strategy
        assert dict(restored.backend_options) == {"seed": 7}
        assert (restored.shards, restored.executor) == (4, "process")
        assert (restored.dispatch, restored.query_cache) == ("pooled", True)

    def test_pre_dispatch_encodings_default_per_event(self):
        # Encodings written before the dispatch/query_cache fields existed
        # (e.g. persisted shard tasks) load with today's defaults.
        data = config_to_dict(ExecutionConfig())
        del data["dispatch"]
        del data["query_cache"]
        restored = config_from_dict(data)
        assert restored.dispatch == "per-event"
        assert restored.query_cache is False

    def test_legacy_placement_key(self):
        # Encodings written while placement was an option still load when
        # they asked for hash routing; any other routing is refused, so a
        # fleet is never silently re-routed.
        config = ExecutionConfig.from_code("PSE50", shards=2)
        data = {**config_to_dict(config), "placement": "hash"}
        assert config_from_dict(data) == config
        data["placement"] = "least-loaded"
        with pytest.raises(SerializationError, match="placement='least-loaded'"):
            config_from_dict(data)

    @pytest.mark.parametrize("placement", ["round-robin", "", None])
    def test_legacy_placement_other_than_hash_refused(self, placement):
        config = ExecutionConfig.from_code("PSE50", shards=2)
        data = {**config_to_dict(config), "placement": placement}
        with pytest.raises(SerializationError, match="a removed option"):
            config_from_dict(data)

    def test_encoding_carries_no_placement(self):
        config = ExecutionConfig.from_code("PSE50", shards=3, executor="process")
        assert "placement" not in config_to_dict(config)

    def test_legacy_hash_key_digests_like_a_fresh_encoding(self):
        from repro.server.store import config_hash

        config = ExecutionConfig.from_code("PSE50", shards=2)
        legacy = config_from_dict({**config_to_dict(config), "placement": "hash"})
        assert config_hash(legacy) == config_hash(config)

    def test_dict_form_is_json_able(self):
        import json

        config = ExecutionConfig.from_code("PSE50", shards=2, backend_options={"seed": 1})
        text = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(text)) == config

    def test_rich_backend_options_rejected_naming_the_option(self):
        from repro.simdb.profiler import DbFunction

        config = ExecutionConfig(
            backend="profiled",
            backend_options={"db_function": DbFunction(((1.0, 10.0),))},
        )
        with pytest.raises(SerializationError, match="db_function"):
            config_to_dict(config)

    def test_not_a_config_rejected(self):
        with pytest.raises(SerializationError, match="expected an ExecutionConfig"):
            config_to_dict(Strategy.parse("PCE0"))
        with pytest.raises(SerializationError, match="not a config encoding"):
            config_from_dict({"engine": "batched"})


class TestObserveRoundTrip:
    def test_observe_round_trips(self):
        config = ExecutionConfig(observe=True)
        assert config_from_dict(config_to_dict(config)).observe is True

    def test_pre_observe_encodings_default_disarmed(self):
        data = config_to_dict(ExecutionConfig())
        del data["observe"]
        assert config_from_dict(data).observe is False
