"""Cross-instance result sharing (overlapping data, paper §6 future work)."""

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
    SynthesisTask,
)
from repro.core.sharing import ResultShare, UNSET, freeze
from repro.values import share_key
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


class TestResultShare:
    def test_miss_then_publish_then_hit(self):
        share = ResultShare()
        key = share_key("q", {"a": 1})
        assert share.get(key) is UNSET
        share.mark_pending(key)
        share.publish(key, 42)
        assert share.get(key) == 42
        assert share.hits == 1

    def test_waiters_notified_in_order(self):
        share = ResultShare()
        key = share_key("q", {})
        share.mark_pending(key)
        seen = []
        share.join(key, lambda v: seen.append(("first", v)))
        share.join(key, lambda v: seen.append(("second", v)))
        notified = share.publish(key, 7)
        assert notified == 2
        assert seen == [("first", 7), ("second", 7)]

    def test_failed_publish_not_cached(self):
        share = ResultShare()
        key = share_key("q", {})
        share.mark_pending(key)
        seen = []
        share.join(key, seen.append)
        share.publish(key, "boom", cache=False)
        assert seen == ["boom"]
        assert share.get(key) is UNSET  # retried next time

    def test_double_pending_rejected(self):
        share = ResultShare()
        key = share_key("q", {})
        share.mark_pending(key)
        with pytest.raises(ValueError):
            share.mark_pending(key)

    def test_abandon_returns_waiters(self):
        share = ResultShare()
        key = share_key("q", {})
        share.mark_pending(key)
        share.join(key, lambda v: None)
        stranded = share.abandon(key)
        assert len(stranded) == 1
        assert not share.is_pending(key)


def shared_engine(schema, code="PCE100"):
    simulation = Simulation()
    database = IdealDatabase(simulation)
    engine = Engine(schema, Strategy.parse(code), database, share_results=True)
    return engine, simulation, database


def keyed_schema():
    """One query whose result depends on the source value."""
    return DecisionFlowSchema(
        [
            Attribute("customer"),
            Attribute(
                "profile",
                task=QueryTask(
                    "q_profile", ("customer",), lambda v: f"profile-of-{v['customer']}", cost=4
                ),
            ),
            Attribute(
                "t",
                task=QueryTask("q_t", ("profile",), lambda v: v["profile"], cost=1),
                is_target=True,
            ),
        ]
    )


class TestEngineSharing:
    def test_identical_instances_share_all_queries(self):
        engine, simulation, database = shared_engine(keyed_schema())
        first = engine.submit_instance({"customer": "alice"})
        second = engine.submit_instance({"customer": "alice"})
        simulation.run()
        assert first.done and second.done
        assert first.cells["t"].value == second.cells["t"].value == "profile-of-alice"
        # The database ran each distinct query once: 4 + 1 units, not 10.
        assert database.total_units == 5
        assert second.metrics.shared_joins + second.metrics.shared_hits >= 1
        assert second.metrics.work_units == 0

    def test_distinct_inputs_do_not_share(self):
        engine, simulation, database = shared_engine(keyed_schema())
        engine.submit_instance({"customer": "alice"})
        engine.submit_instance({"customer": "bob"})
        simulation.run()
        assert database.total_units == 10  # no overlap, no sharing

    def test_later_instance_hits_cache(self):
        engine, simulation, database = shared_engine(keyed_schema())
        engine.submit_instance({"customer": "alice"}, at=0.0)
        late = engine.submit_instance({"customer": "alice"}, at=100.0)
        simulation.run()
        assert late.done
        assert late.metrics.shared_hits == 2  # both queries served from cache
        assert late.metrics.queries_launched == 0
        assert late.elapsed_is_zero if False else late.metrics.elapsed == 0.0
        assert database.total_units == 5

    def test_concurrent_instances_join_inflight_query(self):
        engine, simulation, database = shared_engine(keyed_schema())
        engine.submit_instance({"customer": "alice"}, at=0.0)
        joiner = engine.submit_instance({"customer": "alice"}, at=1.0)
        simulation.run()
        assert joiner.done
        assert joiner.metrics.shared_joins >= 1
        assert database.total_units == 5

    def test_sharing_preserves_results_vs_unshared(self):
        schema = keyed_schema()
        engine, simulation, _ = shared_engine(schema)
        shared_instances = [
            engine.submit_instance({"customer": "alice"}),
            engine.submit_instance({"customer": "alice"}),
        ]
        simulation.run()

        lone_sim = Simulation()
        lone = Engine(schema, Strategy.parse("PCE100"), IdealDatabase(lone_sim))
        reference = lone.submit_instance({"customer": "alice"})
        lone_sim.run()

        for instance in shared_instances:
            assert instance.cells["t"].value == reference.cells["t"].value

    def test_sharing_off_by_default(self):
        simulation = Simulation()
        database = IdealDatabase(simulation)
        engine = Engine(keyed_schema(), Strategy.parse("PCE100"), database)
        engine.submit_instance({"customer": "alice"})
        engine.submit_instance({"customer": "alice"})
        simulation.run()
        assert database.total_units == 10
        assert engine.share is None

    def test_shared_repr(self):
        engine, _, _ = shared_engine(keyed_schema())
        assert "shared" in repr(engine)

    def test_many_instances_work_scales_with_distinct_profiles(self):
        engine, simulation, database = shared_engine(keyed_schema())
        for index in range(12):
            engine.submit_instance({"customer": f"c{index % 3}"}, at=float(index))
        simulation.run()
        assert all(i.done for i in engine.instances)
        assert database.total_units == 3 * 5  # one query pair per profile


def speculative_share_schema():
    """A speculative 10-unit query (`big`) keyed only by the shared `s`.

    `big` is guarded by a condition on the per-instance `c`, so an
    instance with flag=0 disables it and finishes at t=2 while the big
    query it issued speculatively is still in flight.
    """
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("flag"),
            Attribute("c", task=QueryTask("q_c", ("flag",), lambda v: v["flag"], 2)),
            Attribute(
                "big",
                task=QueryTask("q_big", ("s",), lambda v: f"big-{v['s']}", 10),
                condition=Comparison("c", Op.EQ, 1),
            ),
            Attribute(
                "t",
                task=SynthesisTask("s_t", ("c", "big"), lambda v: (v["c"], v["big"])),
                is_target=True,
            ),
        ],
        name="spec-share",
    )


class TestDrainPolicyWithSharing:
    """halt_policy='drain' × share_results=True (satellite coverage).

    The issuer of a shared query can finish (its targets stabilize with
    the speculative attribute disabled) while the query is still in
    flight; instances that joined the query must still resolve.
    """

    def run_pair(self, halt_policy):
        simulation = Simulation()
        database = IdealDatabase(simulation)
        engine = Engine(
            speculative_share_schema(),
            Strategy.parse("PSE100"),
            database,
            halt_policy=halt_policy,
            share_results=True,
        )
        issuer = engine.submit_instance({"s": "k", "flag": 0})
        waiter = engine.submit_instance({"s": "k", "flag": 1})
        simulation.run()
        return issuer, waiter, database

    def test_drain_waiter_resolves_after_issuer_finishes(self):
        issuer, waiter, database = self.run_pair("drain")
        assert issuer.done and waiter.done
        assert issuer.metrics.finish_time == 2.0  # finished with big in flight
        assert waiter.metrics.finish_time == 10.0  # resolved by the drained query
        assert waiter.cells["t"].value == (1, "big-k")
        assert waiter.metrics.shared_joins == 1
        assert database.total_units == 14  # 2 + 2 + one big(10), never reissued

    def test_drain_books_inflight_units_to_the_issuer(self):
        issuer, waiter, _ = self.run_pair("drain")
        assert issuer.metrics.work_units == 12  # its c plus the drained big
        assert waiter.metrics.work_units == 2  # only its own c

    def test_cancel_policy_spares_queries_with_waiters(self):
        # Under halt_policy='cancel' the issuer's completion must not kill
        # the in-flight query, because another instance joined it.
        issuer, waiter, database = self.run_pair("cancel")
        assert issuer.done and waiter.done
        assert waiter.cells["t"].value == (1, "big-k")
        assert database.total_units == 14
        assert issuer.metrics.queries_cancelled == 0


class TestJoinsAndParallelismBudget:
    """A joined query is free, so it must not eat a %Permitted slot."""

    @staticmethod
    def budget_schema():
        # profile is first in topo order and expensive (shared across
        # instances); locA/locB depend on a per-instance region, so they
        # never share.  The target is synthesized from all three.
        return DecisionFlowSchema(
            [
                Attribute("customer"),
                Attribute("region"),
                Attribute(
                    "profile",
                    task=QueryTask(
                        "q_profile", ("customer",), lambda v: f"p-{v['customer']}", cost=10
                    ),
                ),
                Attribute(
                    "locA",
                    task=QueryTask("q_locA", ("region",), lambda v: f"a-{v['region']}", cost=2),
                ),
                Attribute(
                    "locB",
                    task=QueryTask("q_locB", ("region",), lambda v: f"b-{v['region']}", cost=4),
                ),
                Attribute(
                    "t",
                    task=SynthesisTask(
                        "t_all", ("profile", "locA", "locB"), lambda v: tuple(sorted(v))
                    ),
                    is_target=True,
                ),
            ]
        )

    def test_joined_query_does_not_throttle_launches(self):
        simulation = Simulation()
        database = IdealDatabase(simulation)
        engine = Engine(
            self.budget_schema(),
            Strategy.parse("PCE50"),
            database,
            share_results=True,
        )
        engine.submit_instance({"customer": "alice", "region": "eu"}, at=0.0)
        joiner = engine.submit_instance({"customer": "alice", "region": "us"}, at=0.5)
        simulation.run()
        assert joiner.done
        assert joiner.metrics.shared_joins == 1
        # Timeline for the joiner: join profile + launch locA at 0.5 (one
        # real slot of the 50% budget); when locA finishes at 2.5 the join
        # must not block the remaining slot, so locB runs 2.5 → 6.5 and the
        # instance completes as soon as the shared profile lands at 10.
        # Counting the join as in flight would defer locB to t=10 and the
        # finish to t=14.
        assert joiner.metrics.finish_time == 10.0
