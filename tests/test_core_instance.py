"""Instance runtime: the evaluation phase (stability cascade, conditions)."""

import pytest

from repro import (
    Attribute,
    AttributeState,
    Comparison,
    DecisionFlowSchema,
    NULL,
    Op,
    Strategy,
    SynthesisTask,
)
from repro.oracle.instance import InstanceRuntime
from repro.core.conditions import UNRESOLVED
from repro.errors import ExecutionError
from tests._support import add_inputs, diamond_schema, q, syn

S = AttributeState


def make_instance(schema, code, source_values):
    instance = InstanceRuntime(schema, Strategy.parse(code), "i1", source_values, 0.0)
    instance.start()
    return instance


class TestStart:
    def test_sources_stable_and_conditions_resolved(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        assert instance.cells["s"].state is S.VALUE
        assert instance.cells["a"].state is S.READY_ENABLED
        assert instance.cells["b"].state is S.DISABLED  # s=5 fails s>10

    def test_double_start_rejected(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        with pytest.raises(ExecutionError, match="already started"):
            instance.start()

    def test_missing_source_rejected(self):
        schema, _ = diamond_schema()
        with pytest.raises(ExecutionError, match="missing source"):
            InstanceRuntime(schema, Strategy.parse("PCE0"), "i", {}, 0.0)

    def test_zero_input_task_ready_immediately(self):
        schema = DecisionFlowSchema(
            [Attribute("s"), Attribute("t", task=q("t", value=1), is_target=True)]
        )
        instance = make_instance(schema, "PCE0", {"s": 0})
        assert instance.cells["t"].state is S.READY_ENABLED


class TestEagerVsNaive:
    def schema_with_late_condition(self):
        """t's condition = (s > 10) AND (x > 0); s decides it at start."""
        return DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("x", task=q("x", inputs=("s",), value=5)),
                Attribute(
                    "t",
                    task=q("t", value=1),
                    condition=Comparison("s", Op.GT, 10) & Comparison("x", Op.GT, 0),
                    is_target=True,
                ),
            ]
        )

    def test_eager_resolves_from_partial_information(self):
        schema = self.schema_with_late_condition()
        instance = make_instance(schema, "PCE0", {"s": 5})
        # Eager (P): s=5 falsifies the conjunction although x is unstable.
        assert instance.cells["t"].state is S.DISABLED
        assert instance.targets_stable()

    def test_naive_waits_for_all_condition_inputs(self):
        schema = self.schema_with_late_condition()
        instance = make_instance(schema, "NCE0", {"s": 5})
        assert instance.cells["t"].enablement.name == "UNKNOWN"
        assert not instance.targets_stable()


class TestInlineSynthesis:
    def test_synthesis_chain_completes_without_queries(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("a", task=syn("a", ("s",), lambda v: v["s"] + 1)),
                Attribute("b", task=syn("b", ("a",), lambda v: v["a"] * 2)),
                Attribute("t", task=syn("t", ("b",), lambda v: v["b"] - 1), is_target=True),
            ]
        )
        instance = make_instance(schema, "PCE0", {"s": 10})
        assert instance.targets_stable()
        assert instance.cells["t"].value == 21
        assert instance.metrics.synthesis_executed == 3

    def test_speculative_synthesis_runs_before_condition(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("gate", task=q("gate", inputs=("s",), value=1)),
                Attribute(
                    "a",
                    task=syn("a", ("s",), lambda v: 7),
                    condition=Comparison("gate", Op.GT, 0),
                ),
                Attribute("t", task=q("t", inputs=("a",), value=0), is_target=True),
            ]
        )
        speculative = make_instance(schema, "PSE100", {"s": 0})
        assert speculative.cells["a"].state is S.COMPUTED
        conservative = make_instance(schema, "PCE100", {"s": 0})
        # Inputs (just the source) are stable, so the cell is READY — but a
        # conservative instance must not compute it before its condition.
        assert conservative.cells["a"].state is S.READY

    def test_disabled_synthesis_not_executed(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute(
                    "a",
                    task=syn("a", ("s",), lambda v: 7),
                    condition=Comparison("s", Op.GT, 10),
                ),
                Attribute("t", task=syn("t", ("a",), add_inputs), is_target=True),
            ]
        )
        instance = make_instance(schema, "PCE0", {"s": 5})
        assert instance.cells["a"].state is S.DISABLED
        assert instance.cells["t"].value == 0  # ⊥ treated as 0 by add_inputs
        assert instance.metrics.synthesis_executed == 1


class TestQueryResults:
    def test_apply_accepted(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        assert instance.apply_query_result("a", 1) is True
        assert instance.cells["a"].state is S.VALUE

    def test_apply_discarded_when_disabled(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute(
                    "x",
                    task=q("x", inputs=(), value=9),
                    condition=Comparison("s", Op.GT, 10),
                ),
                Attribute("t", task=q("t", value=0), is_target=True),
            ]
        )
        instance = make_instance(schema, "NSE0", {"s": 5})
        # Under N the condition on x is known at start (s is stable), but
        # force the speculative-discard path by resolving after readiness.
        cell = instance.cells["x"]
        assert cell.state is S.DISABLED
        assert instance.apply_query_result("x", 9) is False
        assert cell.value is NULL

    def test_stable_values_raises_on_unstable_input(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        with pytest.raises(ExecutionError, match="not stable"):
            instance.stable_values(("a",))

    def test_resolver(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        assert instance.resolve_stable("s") == 5
        assert instance.resolve_stable("a") is UNRESOLVED
        assert instance.resolve_stable("b") is NULL


class TestFinalization:
    def test_finalize_counts(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        instance.apply_query_result("a", 1)
        instance.drain()
        assert instance.targets_stable()
        instance.finalize_metrics()
        metrics = instance.metrics
        assert metrics.attrs_value == 2      # a, t
        assert metrics.attrs_disabled == 1   # b
        assert metrics.attrs_unstable == 0

    def test_state_and_value_maps(self):
        schema, source_values = diamond_schema()
        instance = make_instance(schema, "PCE0", source_values)
        states = instance.state_map()
        assert states["b"] is S.DISABLED
        values = instance.value_map()
        assert values["s"] == 5 and values["b"] is NULL
        assert "a" not in values  # unstable values are not reported
