"""Scheduler: heuristic ordering and the %Permitted selection rule."""

from repro import Attribute, DecisionFlowSchema, Strategy
from repro.core.instance import InstanceRuntime
from repro.core.scheduler import rank_key, select_for_launch
from tests._support import q


def fanout_schema():
    """Four independent queries off the source, then a combining target.

    Depths: a1..a4 = 1; costs 5, 1, 3, 2 — so Earliest ties everything at
    depth 1 (falls back to topo order) while Cheapest orders a2, a4, a3, a1.
    """
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a1", task=q("a1", inputs=("s",), value=1, cost=5)),
            Attribute("a2", task=q("a2", inputs=("s",), value=2, cost=1)),
            Attribute("a3", task=q("a3", inputs=("s",), value=3, cost=3)),
            Attribute("a4", task=q("a4", inputs=("s",), value=4, cost=2)),
            Attribute(
                "t", task=q("t", inputs=("a1", "a2", "a3", "a4"), value=0, cost=1), is_target=True
            ),
        ]
    )


def started(code):
    instance = InstanceRuntime(fanout_schema(), Strategy.parse(code), "i", {"s": 0}, 0.0)
    instance.start()
    return instance


def deep_schema():
    """a (depth 1, cost 5) and b (depth 2, cost 1, independent path)."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("x", task=q("x", inputs=("s",), value=0, cost=1)),
            Attribute("a", task=q("a", inputs=("s",), value=1, cost=5)),
            Attribute("b", task=q("b", inputs=("x",), value=2, cost=1)),
            Attribute("t", task=q("t", inputs=("a", "b"), value=0, cost=1), is_target=True),
        ]
    )


class TestRankKey:
    def test_earliest_orders_by_depth(self):
        instance = InstanceRuntime(deep_schema(), Strategy.parse("PCE100"), "i", {"s": 0}, 0.0)
        instance.start()
        assert rank_key(instance, "x") < rank_key(instance, "b")  # depth 1 < 2

    def test_cheapest_orders_by_cost(self):
        instance = started("PCC100")
        order = sorted(["a1", "a2", "a3", "a4"], key=lambda n: rank_key(instance, n))
        assert order == ["a2", "a4", "a3", "a1"]

    def test_earliest_ties_break_by_topo_index(self):
        instance = started("PCE100")
        order = sorted(["a4", "a2", "a3", "a1"], key=lambda n: rank_key(instance, n))
        assert order == ["a1", "a2", "a3", "a4"]


class TestPermittedSelection:
    def test_zero_percent_is_sequential(self):
        instance = started("PCE0")
        first = select_for_launch(instance)
        assert len(first) == 1
        instance.launched.add(first[0])
        instance.inflight[first[0]] = object()
        # One in flight → nothing else may launch at 0%.
        assert select_for_launch(instance) == []

    def test_hundred_percent_launches_all(self):
        instance = started("PCE100")
        assert len(select_for_launch(instance)) == 4

    def test_fifty_percent_half_of_pool(self):
        instance = started("PCE50")
        assert len(select_for_launch(instance)) == 2  # ceil(0.5 * 4)

    def test_target_counts_inflight(self):
        instance = started("PCE50")
        launch = select_for_launch(instance)
        for name in launch:
            instance.launched.add(name)
            instance.inflight[name] = object()
        # pool=2, inflight=2 → target=ceil(0.5*4)=2 → no extra slots.
        assert select_for_launch(instance) == []

    def test_empty_pool(self):
        instance = started("PCE100")
        for name in ("a1", "a2", "a3", "a4"):
            instance.launched.add(name)
        assert select_for_launch(instance) == []

    def test_at_least_one_guarantee(self):
        # Even 0% must pick one task when the instance is idle (the paper's
        # "at least one attribute must be selected").
        instance = started("PCC0")
        assert select_for_launch(instance) == ["a2"]  # cheapest first

    def test_selection_is_deterministic(self):
        first = select_for_launch(started("PSE60"))
        second = select_for_launch(started("PSE60"))
        assert first == second

    def test_cache_followers_do_not_consume_slots(self):
        from repro.simdb.database import _CacheFollower

        instance = started("PCE50")
        # Two attributes "launched" as zero-cost waits on another instance's
        # queries: they must not count toward the %Permitted in-flight total.
        for name in ("a1", "a2"):
            instance.launched.add(name)
            instance.inflight[name] = _CacheFollower(("key", name), 1, None)
        # pool=2, real inflight=0 → target=ceil(0.5·2)=1 → one real launch.
        assert len(select_for_launch(instance)) == 1

    def test_real_handles_still_consume_slots(self):
        instance = started("PCE50")
        launch = select_for_launch(instance)
        for name in launch:
            instance.launched.add(name)
            instance.inflight[name] = object()  # objects default to counting
        assert select_for_launch(instance) == []
