"""QueryShareCache: database-level query coalescing and result memoing.

Unit-level contracts — coalesce/hit/miss classification, zero-cost
follower delivery, cancellation and failure protocols, memo bounds — on
a bare :class:`IdealDatabase`, and the one engine-level contract that is
the cache's own: every unit the database runs is booked to an instance.
The other end-to-end guarantees (identical decision values,
dispatch-mode invariance, shard travel) live in the differential suites.
"""

from __future__ import annotations

import pytest

from repro.simdb.database import IdealDatabase, QueryShareCache
from repro.simdb.des import Simulation
from tests._support import ENGINES, PERF, population, run


def make_cache(memo_limit: int = 64, failure_prob: float = 0.0, seed: int = 0):
    sim = Simulation()
    database = IdealDatabase(sim, failure_prob=failure_prob, seed=seed)
    return sim, database, QueryShareCache(database, memo_limit=memo_limit)


class Recorder:
    def __init__(self):
        self.calls: list[tuple[int, bool]] = []

    def __call__(self, processed: int, completed: bool) -> None:
        self.calls.append((processed, completed))


class TestClassification:
    def test_miss_dispatches_to_the_database(self):
        sim, database, cache = make_cache()
        done = Recorder()
        cache.submit(("q", 3), 3, done)
        sim.run()
        assert done.calls == [(3, True)]
        assert database.total_units == 3
        assert (cache.misses, cache.coalesced, cache.hits) == (1, 0, 0)

    def test_inflight_duplicate_coalesces(self):
        sim, database, cache = make_cache()
        first, second = Recorder(), Recorder()
        cache.submit(("q", 3), 3, first)
        cache.submit(("q", 3), 3, second)
        sim.run()
        # One real query; the follower completes with zero units of work.
        assert database.total_units == 3
        assert first.calls == [(3, True)]
        assert second.calls == [(0, True)]
        assert (cache.misses, cache.coalesced, cache.hits) == (1, 1, 0)

    def test_completed_result_served_from_memo(self):
        sim, database, cache = make_cache()
        cache.submit(("q", 3), 3, Recorder())
        sim.run()
        late = Recorder()
        cache.submit(("q", 3), 3, late)
        assert late.calls == []  # delivery is event-driven, not synchronous
        sim.run()
        assert late.calls == [(0, True)]
        assert database.total_units == 3
        assert (cache.misses, cache.coalesced, cache.hits) == (1, 0, 1)

    def test_distinct_keys_do_not_share(self):
        sim, database, cache = make_cache()
        cache.submit(("a", 2), 2, Recorder())
        cache.submit(("b", 2), 2, Recorder())
        sim.run()
        assert database.total_units == 4
        assert cache.misses == 2

    def test_cost_below_one_rejected(self):
        _, _, cache = make_cache()
        with pytest.raises(ValueError):
            cache.submit(("q", 0), 0, Recorder())


class TestFollowerHandles:
    def test_follower_does_not_count_for_parallelism(self):
        sim, _, cache = make_cache()
        cache.submit(("q", 2), 2, Recorder())
        follower = cache.submit(("q", 2), 2, Recorder())
        assert follower.counts_for_parallelism is False

    def test_cancelled_follower_resolves_as_cancelled(self):
        sim, database, cache = make_cache()
        primary_done, follower_done = Recorder(), Recorder()
        cache.submit(("q", 3), 3, primary_done)
        follower = cache.submit(("q", 3), 3, follower_done)
        follower.cancel()
        sim.run()
        assert primary_done.calls == [(3, True)]
        assert follower_done.calls == [(0, False)]
        assert database.queries_completed == 1

    def test_cancelled_memo_hit_resolves_as_cancelled(self):
        sim, _, cache = make_cache()
        cache.submit(("q", 1), 1, Recorder())
        sim.run()
        late = Recorder()
        follower = cache.submit(("q", 1), 1, late)
        follower.cancel()
        sim.run()
        assert late.calls == [(0, False)]

    def test_followers_are_answered_in_join_order(self):
        sim, _, cache = make_cache()
        order = []
        cache.submit(("q", 2), 2, lambda processed, completed: order.append("primary"))
        for name in ("a", "b", "c"):
            cache.submit(("q", 2), 2, lambda processed, completed, name=name: order.append(name))
        sim.run()
        assert order == ["primary", "a", "b", "c"]

    def test_waiter_count_tracks_primary(self):
        sim, _, cache = make_cache()
        primary = cache.submit(("q", 4), 4, Recorder())
        assert cache.waiter_count(primary) == 0
        follower = cache.submit(("q", 4), 4, Recorder())
        assert cache.waiter_count(primary) == 1
        assert cache.waiter_count(follower) == 0
        sim.run()
        assert cache.waiter_count(primary) == 0

    def test_cancelled_followers_do_not_pin_the_primary(self):
        """Once every waiter is itself cancelled, waiter_count must drop
        to zero so cancel-unneeded can cancel the primary instead of
        forcing the unneeded query to run to completion."""
        sim, database, cache = make_cache()
        primary = cache.submit(("q", 4), 4, Recorder())
        follower = cache.submit(("q", 4), 4, Recorder())
        follower.cancel()
        assert cache.waiter_count(primary) == 0
        primary.cancel()
        sim.run()
        assert database.total_units == 1  # cancelled at the unit boundary
        assert cache.reissues == 0


class TestCancellationAndFailure:
    def test_cancelled_primary_reissues_for_live_followers(self):
        sim, database, cache = make_cache()
        primary_done, follower_done = Recorder(), Recorder()
        primary = cache.submit(("q", 4), 4, primary_done)
        cache.submit(("q", 4), 4, follower_done)
        primary.cancel()
        sim.run()
        # The issuer sees its cancellation; the follower is answered by a
        # fresh full-cost reissue (the database did real work twice), whose
        # units are the follower's: it ran for nobody else.
        assert primary_done.calls == [(1, False)]
        assert follower_done.calls == [(4, True)]
        assert cache.reissues == 1
        assert database.total_units == 1 + 4
        assert ("q", 4) in cache._memo

    def test_a_reissue_books_its_units_to_its_first_follower(self):
        sim, database, cache = make_cache()
        first, second = Recorder(), Recorder()
        primary = cache.submit(("q", 4), 4, Recorder())
        waits = [cache.submit(("q", 4), 4, done) for done in (first, second)]
        primary.cancel()
        sim.run(until=2.0)  # the reissue is in flight
        assert cache.reissues == 1
        waits[0].cancel()  # the follower it ran for no longer needs it
        sim.run()
        assert first.calls == [(4, False)]
        assert second.calls == [(0, True)]
        assert database.total_units == 1 + 4

    def test_cancelled_primary_with_only_cancelled_followers_skips_reissue(self):
        sim, database, cache = make_cache()
        primary_done, follower_done = Recorder(), Recorder()
        primary = cache.submit(("q", 4), 4, primary_done)
        follower = cache.submit(("q", 4), 4, follower_done)
        follower.cancel()
        primary.cancel()
        sim.run()
        assert primary_done.calls == [(1, False)]
        assert follower_done.calls == [(0, False)]
        assert cache.reissues == 0
        assert database.total_units == 1

    def test_failed_primary_marks_followers_failed_and_skips_memo(self):
        sim, database, cache = make_cache(failure_prob=1.0)
        cache.submit(("q", 2), 2, Recorder())
        follower = cache.submit(("q", 2), 2, Recorder())
        sim.run()
        assert follower.failed is True
        assert cache.memo_size == 0  # failures are retried, never memoized
        retry = cache.submit(("q", 2), 2, Recorder())
        assert retry is not follower
        assert cache.misses == 2


class TestMemoBounds:
    def test_memo_is_lru_bounded(self):
        sim, _, cache = make_cache(memo_limit=2)
        for name in ("a", "b", "c"):
            cache.submit((name, 1), 1, Recorder())
        sim.run()
        assert cache.memo_size == 2
        # "a" (oldest) was evicted; "b"/"c" still hit.
        cache.submit(("b", 1), 1, Recorder())
        cache.submit(("a", 1), 1, Recorder())
        sim.run()
        assert cache.hits == 1
        assert cache.misses == 4

    def test_hit_refreshes_recency(self):
        sim, _, cache = make_cache(memo_limit=2)
        for name in ("a", "b"):
            cache.submit((name, 1), 1, Recorder())
        sim.run()
        cache.submit(("a", 1), 1, Recorder())  # refresh "a"
        sim.run()
        cache.submit(("c", 1), 1, Recorder())  # evicts "b", not "a"
        sim.run()
        cache.submit(("a", 1), 1, Recorder())
        sim.run()
        assert cache.hits == 2

    def test_memo_limit_validated(self):
        sim = Simulation()
        database = IdealDatabase(sim)
        with pytest.raises(ValueError):
            QueryShareCache(database, memo_limit=0)

    def test_repr_mentions_counters(self):
        _, _, cache = make_cache()
        text = repr(cache)
        assert "hits=0" in text and "memo=0" in text


class TestOneTierPerCache:
    """A cache's own memo is the only reuse: nothing is shared between caches."""

    def test_no_shared_tier_can_be_stacked(self):
        sim = Simulation()
        database = IdealDatabase(sim, seed=0)
        with pytest.raises(TypeError):
            QueryShareCache(database, l2=object())
        cache = QueryShareCache(database)
        assert not any(name.startswith("l2") for name in dir(cache))

    def test_two_caches_on_one_database_do_not_share(self):
        sim = Simulation()
        database = IdealDatabase(sim, seed=0)
        first, second = QueryShareCache(database), QueryShareCache(database)
        first.submit(("q", 3), 3, Recorder())
        sim.run()
        late = Recorder()
        second.submit(("q", 3), 3, late)
        sim.run()
        # The second cache never saw the key: it pays the full cost again.
        assert late.calls == [(3, True)]
        assert database.total_units == 3 + 3
        assert (first.misses, second.misses, second.hits) == (1, 1, 0)
        assert (first.memo_size, second.memo_size) == (1, 1)

    def test_a_reissued_result_is_memoized_once_and_then_hit(self):
        sim, database, cache = make_cache()
        primary = cache.submit(("q", 4), 4, Recorder())
        cache.submit(("q", 4), 4, Recorder())
        primary.cancel()
        sim.run()
        assert cache.reissues == 1 and cache.memo_size == 1
        again = Recorder()
        cache.submit(("q", 4), 4, again)
        sim.run()
        assert again.calls == [(0, True)]
        assert database.total_units == 1 + 4  # the hit added no work
        assert cache.hits == 1


# -- the engine: Work is the database's work ----------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_every_database_unit_is_booked_to_an_instance(engine):
    """NCC100 over the benchmark pattern, the smallest case where the
    retired engine-level share table booked 2 units to no instance (a
    reissue for halted waiters): Work sums to the database's 188 units,
    and the last instance pays its own 8."""
    source = PERF.schema.source_names[0]
    arrivals = [(at, {source: value}) for at, value in population("distinct", 16)]
    _, ran = run(ENGINES[engine], PERF.schema, "NCC100", arrivals=arrivals)
    work = [instance.metrics.work_units for instance in ran.instances]
    assert sum(work) == ran.database.total_units == 188
    assert work[-1] == 8
