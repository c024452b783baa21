"""Instance metrics and aggregation."""

import pytest

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
        assert MetricsSummary.merge() == MetricsSummary.empty()
        assert MetricsSummary.merge() == summarize([], empty_ok=True)

    def test_merge_only_empties_is_zeroed(self):
        merged = MetricsSummary.merge(MetricsSummary.empty(), MetricsSummary.empty())
        assert merged.count == 0
        assert merged == summarize([], empty_ok=True)

    def test_single_nonempty_summary_passes_through_exactly(self):
        # Count 3 so a weighted recombination would drift by float ulps.
        original = summarize(self._population([(3, 7.0), (5, 11.0), (9, 2.0)]))
        merged = MetricsSummary.merge(MetricsSummary.empty(), original)
        assert merged == original
        assert merged is not original  # a copy, not an alias

    def test_merge_equals_summarize_of_concatenation(self):
        part_a = self._population([(3, 7.0), (5, 11.0)])
        part_b = self._population([(9, 2.0), (1, 4.0), (6, 6.0)])
        merged = MetricsSummary.merge(summarize(part_a), summarize(part_b))
        combined = summarize(part_a + part_b)
        assert merged.count == combined.count
        assert merged.total_work == combined.total_work
        for name in (
            "mean_work",
            "std_work",
            "mean_elapsed",
            "std_elapsed",
            "mean_speculative_wasted_units",
            "mean_unneeded_detected",
            "mean_queries_launched",
        ):
            assert getattr(merged, name) == pytest.approx(getattr(combined, name)), name

    def test_merge_weights_by_count(self):
        heavy = summarize(self._population([(10, 1.0)] * 3))
        light = summarize(self._population([(1, 10.0)]))
        merged = MetricsSummary.merge(heavy, light)
        assert merged.count == 4
        assert merged.mean_work == pytest.approx((3 * 10 + 1) / 4)
        assert merged.mean_elapsed == pytest.approx((3 * 1.0 + 10.0) / 4)
        assert merged.total_work == 31

    def test_merge_is_associative_enough(self):
        parts = [
            summarize(self._population([(w, e)]))
            for w, e in [(2, 3.0), (8, 1.0), (5, 9.0)]
        ]
        left = MetricsSummary.merge(MetricsSummary.merge(parts[0], parts[1]), parts[2])
        flat = MetricsSummary.merge(*parts)
        assert left.count == flat.count == 3
        assert left.mean_work == pytest.approx(flat.mean_work)
        assert left.std_elapsed == pytest.approx(flat.std_elapsed)


class TestQueryCacheCounters:
    def test_summarize_leaves_counters_zero(self):
        metrics = InstanceMetrics("i", 0.0, finish_time=4.0, work_units=3)
        summary = summarize([metrics])
        assert summary.query_cache_hits == 0
        assert summary.query_cache_misses == 0
        assert summary.query_cache_coalesced == 0

    def test_merge_sums_counters_across_shards(self):
        from dataclasses import replace

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
        from dataclasses import replace

        busy = replace(
            summarize([InstanceMetrics("a", 0.0, finish_time=2.0, work_units=2)]),
            query_cache_misses=2,
        )
        # A shard whose instances are all still in flight has an empty
        # summary but real cache traffic; the totals must survive merge.
        idle = replace(MetricsSummary.empty(), query_cache_coalesced=9)
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
        from dataclasses import replace

        if rng.random() < 0.4:  # idle shard: no finished instances yet
            base = MetricsSummary.empty()
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
        from dataclasses import replace

        # Shards whose instances are all mid-flight summarize to count=0
        # but have already recorded cohort traffic; an average (or a
        # count-weighted mean) would erase it.
        idle_a = replace(MetricsSummary.empty(), cohort_hits=7, cohort_splits=2)
        idle_b = replace(MetricsSummary.empty(), cohort_hits=5)
        merged = MetricsSummary.merge(idle_a, idle_b)
        assert merged.count == 0
        assert merged.cohort_hits == 12
        assert merged.cohort_splits == 2

    def test_merge_roundtrips_through_wire_format(self):
        from dataclasses import replace

        shard = replace(
            summarize([InstanceMetrics("a", 0.0, finish_time=2.0, work_units=2)]),
            cohort_hits=4, cohort_splits=1,
        )
        merged = MetricsSummary.merge(shard, MetricsSummary.empty())
        assert MetricsSummary.from_dict(merged.to_dict()) == merged


class TestSummaryDict:
    """to_dict/from_dict: the wire format GET /metrics serves."""

    def _summary(self):
        return MetricsSummary(
            count=3,
            mean_work=12.333333333333334,
            std_work=1.699673171197595,
            mean_elapsed=7.1,
            std_elapsed=0.2,
            mean_speculative_wasted_units=0.5,
            mean_unneeded_detected=1.25,
            total_work=37,
            mean_queries_launched=4.666666666666667,
            query_cache_hits=9,
            query_cache_misses=4,
            query_cache_coalesced=2,
        )

    def test_to_dict_covers_every_field(self):
        from dataclasses import fields

        data = self._summary().to_dict()
        assert set(data) == {f.name for f in fields(MetricsSummary)}

    def test_from_dict_inverts_to_dict_exactly(self):
        summary = self._summary()
        assert MetricsSummary.from_dict(summary.to_dict()) == summary

    def test_json_round_trip_is_exact(self):
        import json

        summary = self._summary()
        over_the_wire = json.loads(json.dumps(summary.to_dict()))
        assert MetricsSummary.from_dict(over_the_wire) == summary

    def test_unknown_keys_rejected(self):
        data = self._summary().to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            MetricsSummary.from_dict(data)

    def test_merge_then_dict_keeps_summed_cache_counters(self):
        shard_a = self._summary()
        shard_b = self._summary()
        merged = MetricsSummary.merge(shard_a, shard_b)
        data = merged.to_dict()
        assert data["query_cache_hits"] == 18
        assert data["query_cache_misses"] == 8
        assert data["query_cache_coalesced"] == 4
        assert MetricsSummary.from_dict(data) == merged


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
