"""Snapshot-relation mining (paper §2 reporting)."""

import pytest

from repro import (
    Attribute,
    Comparison,
    DecisionFlowSchema,
    Engine,
    IdealDatabase,
    Op,
    QueryTask,
    Simulation,
    Strategy,
)
from repro.analysis.mining import SnapshotTable, freeze, suggest_refinements
from tests._support import q


class TestFreeze:
    def test_scalars_pass_through(self):
        assert freeze(5) == 5
        assert freeze("x") == "x"
        assert freeze(None) is None

    def test_dicts_order_insensitive(self):
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_nested_structures(self):
        a = freeze({"k": [1, {"x": {2, 3}}]})
        b = freeze({"k": [1, {"x": {3, 2}}]})
        assert a == b
        assert isinstance(hash(a), int)

    def test_lists_and_tuples_equivalent(self):
        assert freeze([1, 2]) == freeze((1, 2))

    def test_distinct_values_distinct_keys(self):
        assert freeze({"a": 1}) != freeze({"a": 2})

    def test_unhashable_leaf_falls_back_to_repr(self):
        class Weird:
            __hash__ = None

            def __repr__(self):
                return "Weird()"

        assert freeze(Weird()) == ("repr", "Weird()")


def gated_schema():
    """'rare' enables only when s >= 90; 'common' almost always; target always."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute(
                "rare",
                task=q("rare", inputs=("s",), value="R", cost=5),
                condition=Comparison("s", Op.GE, 90),
            ),
            Attribute(
                "common",
                task=q("common", inputs=("s",), value="C", cost=1),
                condition=Comparison("s", Op.GE, 1),
            ),
            Attribute(
                "varies",
                task=QueryTask("q_varies", ("s",), lambda v: v["s"] % 3, cost=1),
            ),
            # The target consumes everything, so every attribute stabilizes
            # before the instance completes (observed = 100%).
            Attribute(
                "t",
                task=q("t", inputs=("common", "rare", "varies"), value=0, cost=1),
                is_target=True,
            ),
        ]
    )


def run_population(schema, sources, code="NCE100"):
    simulation = Simulation()
    engine = Engine(schema, Strategy.parse(code), IdealDatabase(simulation))
    instances = [
        engine.submit_instance(sv, at=float(i * 100)) for i, sv in enumerate(sources)
    ]
    simulation.run()
    return SnapshotTable.collect(schema, instances)


@pytest.fixture
def table():
    # s in 0..99: 'rare' enabled 10%, 'common' 99%, 'varies' cycles 0,1,2.
    return run_population(gated_schema(), [{"s": value} for value in range(100)])


class TestStatistics:
    def test_counts(self, table):
        assert len(table) == 100
        assert table.enabled_count("rare") == 10
        assert table.enabled_count("common") == 99

    def test_frequencies(self, table):
        assert table.enabled_frequency("rare") == pytest.approx(0.10)
        assert table.observed_frequency("common") == 1.0

    def test_value_counts(self, table):
        counts = table.value_counts("varies")
        assert sum(counts.values()) == 100
        assert set(counts) == {0, 1, 2}

    def test_dominant_value(self, table):
        assert table.dominant_value_frequency("rare") == 1.0  # constant "R"
        assert table.dominant_value_frequency("varies") < 0.5

    def test_mean_work(self, table):
        # per instance: common(1)+varies(1)+t(1) always; rare(5) in 10%.
        assert table.mean_work() == pytest.approx(3.0 + 0.1 * 5, abs=0.2)

    def test_unfinished_instances_rejected(self):
        schema = gated_schema()
        simulation = Simulation()
        engine = Engine(schema, Strategy.parse("PCE0"), IdealDatabase(simulation))
        instance = engine.submit_instance({"s": 5})  # not yet run
        table = SnapshotTable(schema)
        with pytest.raises(ValueError, match="not finished"):
            table.add_instance(instance)

    def test_render(self, table):
        text = table.render()
        assert "100 executions" in text
        assert "rare" in text and "enabled|obs" in text


class TestRefinements:
    def test_never_enabled_detected(self):
        table = run_population(gated_schema(), [{"s": value} for value in range(50)])
        kinds = {(r.kind, r.attribute) for r in suggest_refinements(table)}
        assert ("never-enabled", "rare") in kinds  # s<50 never reaches 90

    def test_always_enabled_detected(self, table):
        kinds = {(r.kind, r.attribute) for r in suggest_refinements(table)}
        assert ("always-enabled", "common") in kinds

    def test_constant_value_detected(self, table):
        findings = suggest_refinements(table)
        constant = [r for r in findings if r.kind == "constant-value"]
        assert any(r.attribute == "common" for r in constant)
        # 'varies' returns three values: must NOT be flagged constant.
        assert not any(r.attribute == "varies" for r in constant)

    def test_expensive_rarely_used_detected(self, table):
        kinds = {(r.kind, r.attribute) for r in suggest_refinements(table)}
        assert ("expensive-rarely-used", "rare") in kinds

    def test_unconditional_attrs_not_flagged_always(self, table):
        findings = suggest_refinements(table)
        always = [r.attribute for r in findings if r.kind == "always-enabled"]
        assert "varies" not in always  # no condition to remove

    def test_implication_detected(self, table):
        findings = suggest_refinements(table)
        implications = [r for r in findings if r.kind == "implied-enablement"]
        # rare ⊂ common (s>=90 ⊂ s>=1): enabled(rare) ⇒ enabled(common).
        assert any(
            r.attribute == "rare" and "common" in r.detail for r in implications
        )

    def test_min_support_gates_everything(self, table):
        assert suggest_refinements(table, min_support=1000) == []

    def test_refinement_str(self, table):
        finding = suggest_refinements(table)[0]
        assert finding.kind in str(finding)
        assert finding.attribute in str(finding)
