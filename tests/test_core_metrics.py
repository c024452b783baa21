"""Instance metrics and aggregation."""

import json
import math
import statistics
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import InstanceMetrics, MetricsSummary, summarize


def finished(work=10, elapsed=5.0, instance_id="i"):
    return InstanceMetrics(
        instance_id=instance_id,
        start_time=100.0,
        finish_time=100.0 + elapsed,
        work_units=work,
    )


class TestInstanceMetrics:
    def test_elapsed(self):
        assert finished(elapsed=5.0).elapsed == 5.0

    def test_elapsed_requires_finish(self):
        metrics = InstanceMetrics(instance_id="i", start_time=0.0)
        assert not metrics.done
        with pytest.raises(ValueError, match="not finished"):
            _ = metrics.elapsed

    def test_time_in_units_scaling(self):
        metrics = finished(elapsed=6.0)
        assert metrics.time_in_units() == 6.0
        assert metrics.time_in_units(unit_duration=2.0) == 3.0

    def test_time_in_seconds(self):
        metrics = finished(elapsed=250.0)  # ms clock
        assert metrics.time_in_seconds() == 0.25


class TestSummarize:
    def test_basic_stats(self):
        summary = summarize([finished(10, 4.0), finished(20, 8.0)])
        assert summary.count == 2
        assert summary.mean_work == 15.0
        assert summary.mean_elapsed == 6.0
        assert summary.std_work == 5.0
        assert summary.total_work == 30

    def test_single_instance_zero_std(self):
        summary = summarize([finished()])
        assert summary.std_work == 0.0
        assert summary.std_elapsed == 0.0

    def test_unfinished_excluded(self):
        unfinished = InstanceMetrics(instance_id="u", start_time=0.0)
        summary = summarize([finished(10, 4.0), unfinished])
        assert summary.count == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no finished"):
            summarize([])
        with pytest.raises(ValueError, match="no finished"):
            summarize([InstanceMetrics(instance_id="u", start_time=0.0)])

    def test_empty_ok_returns_zeroed_summary(self):
        for metrics in ([], [InstanceMetrics(instance_id="u", start_time=0.0)]):
            summary = summarize(metrics, empty_ok=True)
            assert summary.count == 0
            assert summary.total_work == 0
            assert summary.mean_work == 0.0
            assert summary.mean_elapsed == 0.0
            assert summary.mean_speculative_wasted_units == 0.0
            assert summary.mean_unneeded_detected == 0.0

    def test_summary_conversions(self):
        summary = summarize([finished(10, 500.0)])
        assert summary.mean_time_in_units(unit_duration=1.0) == 500.0
        assert summary.mean_time_in_seconds() == 0.5


class TestMerge:
    """MetricsSummary.merge: cross-shard aggregation of disjoint sets."""

    def _population(self, spec):
        """spec: list of (work, elapsed) per instance."""
        return [
            finished(work, elapsed, instance_id=f"i{k}")
            for k, (work, elapsed) in enumerate(spec)
        ]

    def test_merge_nothing_is_the_zeroed_summary(self):
        assert MetricsSummary.merge() == MetricsSummary()
        assert MetricsSummary.merge() == summarize([], empty_ok=True)

    def test_merge_only_empties_is_zeroed(self):
        merged = MetricsSummary.merge(MetricsSummary(), MetricsSummary())
        assert merged.count == 0
        assert merged == summarize([], empty_ok=True)

    def test_single_nonempty_summary_passes_through_exactly(self):
        # Count 3 so a weighted recombination would drift by float ulps.
        original = summarize(self._population([(3, 7.0), (5, 11.0), (9, 2.0)]))
        merged = MetricsSummary.merge(MetricsSummary(), original)
        assert merged == original
        assert merged is not original  # a copy, not an alias

    def test_merge_equals_summarize_of_concatenation(self):
        part_a = self._population([(3, 7.0), (5, 11.0)])
        part_b = self._population([(9, 2.0), (1, 4.0), (6, 6.0)])
        merged = MetricsSummary.merge(summarize(part_a), summarize(part_b))
        combined = summarize(part_a + part_b)
        assert merged == combined
        assert merged.to_dict() == combined.to_dict()

    def test_merge_weights_by_count(self):
        heavy = summarize(self._population([(10, 1.0)] * 3))
        light = summarize(self._population([(1, 10.0)]))
        merged = MetricsSummary.merge(heavy, light)
        assert merged.count == 4
        assert merged.mean_work == (3 * 10 + 1) / 4
        assert merged.mean_elapsed == (3 * 1.0 + 10.0) / 4
        assert merged.total_work == 31

    def test_merge_is_associative_exactly(self):
        parts = [
            summarize(self._population([(w, e)]))
            for w, e in [(2, 3.0), (8, 1.0), (5, 9.0)]
        ]
        left = MetricsSummary.merge(MetricsSummary.merge(parts[0], parts[1]), parts[2])
        flat = MetricsSummary.merge(*parts)
        assert left.count == flat.count == 3
        assert left == flat
        assert left.to_dict() == flat.to_dict()


class TestQueryCacheCounters:
    def test_summarize_leaves_counters_zero(self):
        metrics = InstanceMetrics("i", 0.0, finish_time=4.0, work_units=3)
        summary = summarize([metrics])
        assert summary.query_cache_hits == 0
        assert summary.query_cache_misses == 0
        assert summary.query_cache_coalesced == 0

    def test_merge_sums_counters_across_shards(self):
        a = replace(
            summarize([InstanceMetrics("a", 0.0, finish_time=2.0, work_units=2)]),
            query_cache_hits=3, query_cache_misses=5, query_cache_coalesced=7,
        )
        b = replace(
            summarize([InstanceMetrics("b", 0.0, finish_time=4.0, work_units=4)]),
            query_cache_hits=1, query_cache_misses=2, query_cache_coalesced=4,
        )
        merged = MetricsSummary.merge(a, b)
        assert merged.query_cache_hits == 4
        assert merged.query_cache_misses == 7
        assert merged.query_cache_coalesced == 11

    def test_merge_keeps_counters_of_empty_shards(self):
        busy = replace(
            summarize([InstanceMetrics("a", 0.0, finish_time=2.0, work_units=2)]),
            query_cache_misses=2,
        )
        # A shard whose instances are all still in flight has an empty
        # summary but real cache traffic; the totals must survive merge.
        idle = replace(MetricsSummary(), query_cache_coalesced=9)
        merged = MetricsSummary.merge(busy, idle)
        assert merged.count == 1
        assert merged.query_cache_misses == 2
        assert merged.query_cache_coalesced == 9
        only_idle = MetricsSummary.merge(idle)
        assert only_idle.count == 0
        assert only_idle.query_cache_coalesced == 9


class TestCohortCounters:
    """cohort_hits/cohort_splits are whole-shard totals: merge must sum
    them exactly — never average, never drop empty shards' counts."""

    def _shard(self, rng):
        """One shard summary: possibly empty, with random cohort totals."""
        if rng.random() < 0.4:  # idle shard: no finished instances yet
            base = MetricsSummary()
        else:
            base = summarize(
                [
                    InstanceMetrics(
                        f"i{k}", 0.0, finish_time=rng.uniform(1.0, 9.0),
                        work_units=rng.randrange(1, 20),
                    )
                    for k in range(rng.randrange(1, 5))
                ]
            )
        return replace(
            base,
            cohort_hits=rng.randrange(0, 50),
            cohort_splits=rng.randrange(0, 12),
        )

    def test_summarize_leaves_cohort_counters_zero(self):
        summary = summarize([InstanceMetrics("i", 0.0, finish_time=4.0, work_units=3)])
        assert summary.cohort_hits == 0
        assert summary.cohort_splits == 0

    def test_merge_sums_exactly_over_random_shard_mixes(self):
        import random

        for seed in range(50):
            rng = random.Random(seed)
            shards = [self._shard(rng) for _ in range(rng.randrange(1, 7))]
            merged = MetricsSummary.merge(*shards)
            assert merged.cohort_hits == sum(s.cohort_hits for s in shards), seed
            assert merged.cohort_splits == sum(s.cohort_splits for s in shards), seed
            # Order-invariant and associative: shuffle, then fold pairwise.
            shuffled = shards[:]
            rng.shuffle(shuffled)
            folded = shuffled[0]
            for shard in shuffled[1:]:
                folded = MetricsSummary.merge(folded, shard)
            assert folded.cohort_hits == merged.cohort_hits, seed
            assert folded.cohort_splits == merged.cohort_splits, seed

    def test_empty_shards_still_contribute_counters(self):
        # Shards whose instances are all mid-flight summarize to count=0
        # but have already recorded cohort traffic; an average (or a
        # count-weighted mean) would erase it.
        idle_a = replace(MetricsSummary(), cohort_hits=7, cohort_splits=2)
        idle_b = replace(MetricsSummary(), cohort_hits=5)
        merged = MetricsSummary.merge(idle_a, idle_b)
        assert merged.count == 0
        assert merged.cohort_hits == 12
        assert merged.cohort_splits == 2

    def test_merge_roundtrips_through_wire_format(self):
        shard = replace(
            summarize([InstanceMetrics("a", 0.0, finish_time=2.0, work_units=2)]),
            cohort_hits=4, cohort_splits=1,
        )
        merged = MetricsSummary.merge(shard, MetricsSummary())
        assert json.loads(json.dumps(merged.to_dict())) == shard.to_dict()


class TestSummaryDict:
    """to_dict: the wire format GET /metrics serves."""

    #: The keys /metrics, the ``summary_*`` gauges and ``--json`` serve.
    WIRE_KEYS = [
        "count", "mean_work", "std_work", "mean_elapsed", "std_elapsed",
        "mean_speculative_wasted_units", "mean_unneeded_detected", "total_work",
        "mean_queries_launched", "query_cache_hits", "query_cache_misses",
        "query_cache_coalesced", "cohort_hits", "cohort_splits",
    ]

    def _summary(self):
        population = [
            InstanceMetrics(
                f"i{k}", 0.1 * k, finish_time=0.1 * k + elapsed, work_units=work,
                queries_launched=launched, speculative_wasted_units=k, unneeded_detected=1 + k % 2,
            )
            for k, (work, elapsed, launched) in enumerate([(10, 7.3, 4), (13, 6.9, 5), (14, 7.1, 5)])
        ]
        return replace(
            summarize(population), query_cache_hits=9, query_cache_misses=4, query_cache_coalesced=2
        )

    def test_to_dict_serves_the_wire_keys_in_order(self):
        assert list(self._summary().to_dict()) == self.WIRE_KEYS

    def test_to_dict_values_are_the_read_time_values(self):
        summary = self._summary()
        data = summary.to_dict()
        assert data == {name: getattr(summary, name) for name in self.WIRE_KEYS}
        assert type(data["count"]) is type(data["total_work"]) is int
        assert all(type(data[name]) is float for name in data if name.startswith(("mean_", "std_")))

    def test_json_round_trip_is_exact(self):
        data = self._summary().to_dict()
        over_the_wire = json.loads(json.dumps(data))
        assert over_the_wire == data
        assert [type(v) for v in over_the_wire.values()] == [type(v) for v in data.values()]

    def test_merge_then_dict_keeps_summed_cache_counters(self):
        shard_a = self._summary()
        shard_b = self._summary()
        merged = MetricsSummary.merge(shard_a, shard_b)
        data = merged.to_dict()
        assert data["query_cache_hits"] == 18
        assert data["query_cache_misses"] == 8
        assert data["query_cache_coalesced"] == 4
        assert data["count"] == 6 and data["total_work"] == 74


def _exact_variance(xs) -> Fraction:
    """The exact population variance of *xs*."""
    exact = [Fraction(x) for x in xs]
    mean = sum(exact) / len(exact)
    return sum((x - mean) ** 2 for x in exact) / len(exact)


def _is_correctly_rounded_sqrt(root: float, variance: Fraction) -> bool:
    """*root* is the float nearest sqrt(*variance*): the square of each
    midpoint to a neighbouring float brackets *variance*."""
    below = Fraction(root) + (Fraction(math.nextafter(root, -math.inf)) - Fraction(root)) / 2
    above = Fraction(root) + (Fraction(math.nextafter(root, math.inf)) - Fraction(root)) / 2
    return (root == 0.0 or below * below <= variance) and variance <= above * above


#: A finished instance: integer work, and an elapsed time that is often
#: not dyadic in decimal (0.1, 2.3), so float sums would round.
_instances = st.builds(
    lambda k, start, elapsed, work, wasted, unneeded, launched: InstanceMetrics(
        f"i{k}", start, finish_time=start + elapsed, work_units=work,
        speculative_wasted_units=wasted, unneeded_detected=unneeded, queries_launched=launched,
    ),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.1, 3.0, 1234.5678]),
    st.one_of(
        st.sampled_from([0.1, 0.2, 0.3, 2.3, 7.0, 1e-3]),
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    ),
    st.integers(0, 10**9),
    st.integers(0, 500),
    st.integers(0, 40),
    st.integers(0, 200),
)


class TestExactFold:
    """A summary is a sum: any partition of a population, merged in any
    order or grouping, is bit for bit the summary of the whole."""

    @given(
        population=st.lists(_instances, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=6),
        order=st.randoms(use_true_random=False),
    )
    def test_merge_of_parts_is_the_summary_of_all(self, population, cuts, order):
        bounds = [0, *sorted(min(cut, len(population)) for cut in cuts), len(population)]
        parts = [population[lo:hi] for lo, hi in zip(bounds, bounds[1:])]  # empties included
        whole = summarize(population, empty_ok=True)
        summaries = [summarize(part, empty_ok=True) for part in parts]
        order.shuffle(summaries)
        flat = MetricsSummary.merge(*summaries)
        folded = MetricsSummary()
        for summary in summaries:  # one at a time, as releases and rounds fold
            folded = MetricsSummary.merge(folded, summary)
        nested = MetricsSummary.merge(
            MetricsSummary.merge(*summaries[::2]), MetricsSummary.merge(*summaries[1::2])
        )
        for merged in (flat, folded, nested):
            assert merged == whole
            assert merged.to_dict() == whole.to_dict()

    @given(population=st.lists(_instances, min_size=1, max_size=40))
    def test_read_time_values_round_the_exact_ones_once(self, population):
        summary = summarize(population)
        works = [m.work_units for m in population]
        elapsed = [m.elapsed for m in population]
        n = len(population)
        assert summary.count == n and summary.total_work == sum(works)
        assert summary.mean_work == float(Fraction(sum(works), n))
        assert summary.mean_elapsed == float(sum(map(Fraction, elapsed)) / n)
        assert summary.mean_queries_launched == float(
            Fraction(sum(m.queries_launched for m in population), n)
        )
        assert _is_correctly_rounded_sqrt(summary.std_work, _exact_variance(works))
        assert _is_correctly_rounded_sqrt(summary.std_elapsed, _exact_variance(elapsed))

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="statistics.pstdev rounds twice before 3.11"
    )
    @given(population=st.lists(_instances, min_size=1, max_size=40))
    def test_a_single_set_reads_as_the_statistics_module(self, population):
        summary = summarize(population)
        works = [float(m.work_units) for m in population]
        elapsed = [m.elapsed for m in population]
        assert summary.mean_work == statistics.mean(works)
        assert summary.std_work == statistics.pstdev(works)
        assert summary.mean_elapsed == statistics.mean(elapsed)
        assert summary.std_elapsed == statistics.pstdev(elapsed)

    def test_a_perfect_square_deviation_is_exact(self):
        summary = summarize([finished(w, 0.1 * w) for w in (2, 4, 4, 4, 5, 5, 7, 9)])
        assert summary.mean_work == 5.0 and summary.std_work == 2.0


class TestInstanceDict:
    """to_dict: the per-instance snapshot the daemon serves and stores."""

    #: Annotations whose values asdict() would return as they are.  A field
    #: outside this set (a list, a nested dataclass) would make to_dict()
    #: share what asdict() deep-copies: widen to_dict() before this set.
    SCALARS = {"str", "int", "float", "float | None", "int | None", "str | None"}

    def test_every_field_is_a_scalar(self):
        from dataclasses import fields

        assert {f.type for f in fields(InstanceMetrics)} <= self.SCALARS

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_equals_asdict_on_both_engines(self, engine):
        from dataclasses import asdict

        from repro import (
            DecisionService,
            ExecutionConfig,
            PatternParams,
            generate_pattern,
        )

        pattern = generate_pattern(
            PatternParams(nb_nodes=16, nb_rows=3, pct_enabled=50, seed=3)
        )
        service = DecisionService(
            pattern.schema, ExecutionConfig.from_code("PSE80", engine=engine)
        )
        handles = [service.submit(pattern.source_values) for _ in range(3)]
        service.run()
        for handle in handles:
            metrics = handle.metrics
            assert metrics.done and metrics.work_units > 0
            snapshot = metrics.to_dict()
            assert snapshot == asdict(metrics)
            assert list(snapshot) == list(asdict(metrics))
