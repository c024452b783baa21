"""The prequalifier: candidate-pool membership under the four option combos."""

from repro import Attribute, Comparison, DecisionFlowSchema, Op, Strategy
from repro.oracle.instance import InstanceRuntime
from repro.oracle.scheduler import candidate_pool
from tests._support import q, syn


def pool_for(schema, code, source_values):
    instance = InstanceRuntime(schema, Strategy.parse(code), "i", source_values, 0.0)
    instance.start()
    return instance, candidate_pool(instance)


def gated_schema():
    """a is READY+ENABLED; b is READY with an unresolved condition (on a)."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", inputs=("s",), value=1)),
            Attribute(
                "b",
                task=q("b", inputs=("s",), value=2),
                condition=Comparison("a", Op.GT, 0),
            ),
            Attribute("t", task=q("t", inputs=("a", "b"), value=3), is_target=True),
        ]
    )


class TestSpeculationOption:
    def test_conservative_pool_excludes_unresolved(self):
        _, pool = pool_for(gated_schema(), "PCE0", {"s": 0})
        assert pool == ["a"]

    def test_speculative_pool_includes_ready(self):
        _, pool = pool_for(gated_schema(), "PSE0", {"s": 0})
        assert pool == ["a", "b"]

    def test_pending_attributes_never_eligible(self):
        # t's inputs (a, b) are unstable: t stays out of every pool.
        _, pool = pool_for(gated_schema(), "PSE100", {"s": 0})
        assert "t" not in pool


class TestPropagationOption:
    def unneeded_schema(self):
        """hit_list is enabled but its only consumer is disabled at start."""
        return DecisionFlowSchema(
            [
                Attribute("income"),
                Attribute("hit_list", task=q("hit_list", inputs=("income",), value=1)),
                Attribute(
                    "present",
                    task=q("present", inputs=("hit_list",), value=2),
                    condition=Comparison("income", Op.GT, 0),
                ),
                Attribute("page", task=q("page", inputs=("income",), value=3), is_target=True),
            ]
        )

    def test_p_option_drops_unneeded(self):
        _, pool = pool_for(self.unneeded_schema(), "PCE0", {"income": 0})
        assert pool == ["page"]  # hit_list pruned by backward propagation

    def test_n_option_keeps_unneeded(self):
        _, pool = pool_for(self.unneeded_schema(), "NCE0", {"income": 0})
        assert set(pool) == {"hit_list", "page"}


class TestPoolHygiene:
    def test_launched_attributes_excluded(self):
        instance, pool = pool_for(gated_schema(), "PCE0", {"s": 0})
        assert pool == ["a"]
        instance.launched.add("a")
        assert candidate_pool(instance) == []

    def test_synthesis_tasks_never_pooled(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("a", task=syn("a", ("s",), lambda v: 1)),
                Attribute("t", task=q("t", inputs=(), value=0), is_target=True),
            ]
        )
        instance = InstanceRuntime(schema, Strategy.parse("PCE0"), "i", {"s": 0}, 0.0)
        # Before start/drain, "a" is not yet computed — still never pooled.
        assert "a" not in candidate_pool(instance)

    def test_stable_attributes_excluded(self):
        instance, _ = pool_for(gated_schema(), "PCE0", {"s": 0})
        instance.apply_query_result("a", 1)
        instance.drain()
        pool = candidate_pool(instance)
        assert "a" not in pool
        assert "b" in pool  # a > 0 enabled b
