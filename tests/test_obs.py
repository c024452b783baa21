"""Unit tests for repro.obs: registry, tracer, and the export formats.

The observability layer has two contracts the rest of the repo leans on:

* **Mergeability** — registry snapshots from independent shards combine
  like :class:`MetricsSummary.merge`: counters and histogram buckets
  add, gauges overwrite, and an ``extra_labels`` relabel keeps per-shard
  gauges (clocks, Gmpl) from summing into nonsense.
* **Zero-cost disarm** — the null instruments and :data:`NULL_OBS` are
  shared singletons whose methods do nothing, so a disarmed engine can
  hold them unconditionally.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_TRACE_CAPACITY,
    NULL_OBS,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Observability,
    SpanTracer,
    export_chrome_trace,
    histogram_quantile,
)


class TestRegistry:
    def test_counters_are_get_or_create_and_label_keyed(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", shard="0")
        b = registry.counter("hits", shard="0")
        c = registry.counter("hits", shard="1")
        assert a is b and a is not c
        a.inc()
        a.inc(4)
        assert a.value == 5
        assert c.value == 0

    def test_gauge_overwrites(self):
        gauge = MetricsRegistry().gauge("sim_time")
        gauge.set(10.0)
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_histogram_buckets_and_percentiles(self):
        hist = MetricsRegistry().histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]  # last slot is overflow
        assert hist.count == 5
        assert hist.sum == pytest.approx(105.5)
        assert 0.0 < hist.percentile(0.5) <= 2.0
        # Overflow observations clamp to the top finite bound.
        assert hist.percentile(1.0) == 4.0

    def test_histogram_rejects_bound_redefinition(self):
        registry = MetricsRegistry()
        registry.histogram("lat", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", bounds=(5.0, 6.0))

    def test_quantile_of_empty_histogram_is_zero(self):
        assert histogram_quantile((1.0, 2.0), [0, 0, 0], 0.99) == 0.0

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g", shard="0").set(1.5)
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["enabled"] is True
        assert json.loads(json.dumps(snapshot)) == snapshot
        (hist,) = snapshot["histograms"]
        assert tuple(hist["bounds"]) == DEFAULT_LATENCY_BOUNDS
        assert len(hist["counts"]) == len(DEFAULT_LATENCY_BOUNDS) + 1

    def test_merge_adds_counters_and_buckets_overwrites_gauges(self):
        shard0, shard1, merged = (
            MetricsRegistry(),
            MetricsRegistry(),
            MetricsRegistry(),
        )
        shard0.counter("hits").inc(3)
        shard1.counter("hits").inc(4)
        shard0.histogram("lat", bounds=(1.0,)).observe(0.5)
        shard1.histogram("lat", bounds=(1.0,)).observe(2.0)
        shard0.gauge("clock").set(10.0)
        shard1.gauge("clock").set(20.0)
        merged.merge_snapshot(shard0.snapshot())
        merged.merge_snapshot(shard1.snapshot())
        assert merged.counter("hits").value == 7
        assert merged.histogram("lat", bounds=(1.0,)).counts == [1, 1]
        assert merged.gauge("clock").value == 20.0  # last write wins

    def test_merge_with_extra_labels_keeps_shards_apart(self):
        shard0, shard1, merged = (
            MetricsRegistry(),
            MetricsRegistry(),
            MetricsRegistry(),
        )
        shard0.gauge("clock").set(10.0)
        shard1.gauge("clock").set(20.0)
        merged.merge_snapshot(shard0.snapshot(), extra_labels={"shard": 0})
        merged.merge_snapshot(shard1.snapshot(), extra_labels={"shard": 1})
        assert merged.gauge("clock", shard="0").value == 10.0
        assert merged.gauge("clock", shard="1").value == 20.0

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("queries", shard="0").inc(2)
        registry.gauge("sim_time").set(1.5)
        hist = registry.histogram("lat", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_queries counter" in lines
        assert 'repro_queries{shard="0"} 2' in lines
        assert "repro_sim_time 1.5" in lines
        # Cumulative buckets with the mandatory +Inf terminal.
        assert 'repro_lat_bucket{le="0.1"} 1' in lines
        assert 'repro_lat_bucket{le="1"} 1' in lines
        assert 'repro_lat_bucket{le="+Inf"} 2' in lines
        assert "repro_lat_count 2" in lines
        assert text.endswith("\n")

    @pytest.mark.parametrize(
        "first, second",
        [("counter", "gauge"), ("gauge", "counter"), ("counter", "histogram"),
         ("histogram", "gauge")],
    )  # fmt: skip
    def test_a_name_keeps_its_kind(self, first, second):
        """One ``# TYPE`` line per name: a second kind under a held name is
        refused, directly and through a merged snapshot, naming both."""
        registry = MetricsRegistry()
        getattr(registry, first)("x", shard="0")
        text = registry.to_prometheus()
        with pytest.raises(ValueError, match=f"'x' is already a {first}, not a {second}"):
            getattr(registry, second)("x", shard="1")
        other = MetricsRegistry()
        getattr(other, second)("x")
        with pytest.raises(ValueError, match=f"already a {first}, not a {second}"):
            registry.merge_snapshot(other.snapshot())
        assert registry.to_prometheus() == text  # nothing of the refused kind got in
        getattr(registry, first)("x", shard="2")  # its own kind, new labels: fine

    def test_two_kinds_under_one_name_never_render(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(2)
        with pytest.raises(ValueError):
            registry.gauge("x").set(3)
        assert registry.to_prometheus() == "# TYPE repro_x counter\nrepro_x 2\n"


class TestNullInstruments:
    def test_null_registry_has_no_instruments(self):
        assert not hasattr(NullRegistry(), "counter")
        assert not hasattr(NullRegistry(), "histogram")

    def test_null_registry_snapshots_nothing(self):
        snapshot = NullRegistry().snapshot()
        assert snapshot == {
            "enabled": False, "counters": [], "gauges": [], "histograms": [],
        }
        assert NullRegistry().to_prometheus() == ""

    def test_null_obs_bundle_is_disarmed(self):
        assert NULL_OBS.enabled is False
        assert isinstance(NULL_OBS.tracer, NullTracer)
        NULL_OBS.tracer.record("x", 0.0, 1.0)
        NULL_OBS.tracer.instant("y")
        assert NULL_OBS.tracer.events() == []
        assert len(NULL_OBS.tracer) == 0

    def test_armed_bundle_factory(self):
        obs = Observability.create(trace_capacity=8)
        assert obs.enabled is True
        assert isinstance(obs.registry, MetricsRegistry)
        assert isinstance(obs.tracer, SpanTracer)


class TestTracer:
    def test_span_and_instant_recording(self):
        tracer = SpanTracer()
        start = tracer.now()
        tracer.record("phase", start, start + 0.001, args={"n": 1})
        tracer.instant("marker")
        events = tracer.events()
        assert len(events) == 2
        phase, name, _ts, dur, args = events[0]
        assert (phase, name, args) == ("X", "phase", {"n": 1})
        assert dur == pytest.approx(1000.0, rel=0.01)  # microseconds
        assert events[1][0] == "i"

    def test_ring_buffer_bounds_memory(self):
        tracer = SpanTracer(capacity=4)
        for index in range(10):
            tracer.instant(f"e{index}")
        events = tracer.events()
        assert len(events) == 4
        assert events[0][1] == "e6"  # oldest entries evicted
        tracer.clear()
        assert len(tracer) == 0
        assert DEFAULT_TRACE_CAPACITY >= 4096

    def test_chrome_trace_export_shape(self):
        tracer = SpanTracer()
        t0 = tracer.now()
        tracer.record("span", t0, t0 + 0.002)
        tracer.instant("mark")
        doc = export_chrome_trace([(0, "lane", tracer.events())])
        assert json.loads(json.dumps(doc)) == doc
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert metadata[0]["args"]["name"] == "lane"
        assert spans[0]["dur"] == pytest.approx(2000.0, rel=0.01)
        assert instants[0]["s"] == "t"
        assert all(e["pid"] == 0 for e in events)
        assert doc["metadata"]["armed"] is True

    def test_disarmed_export_is_valid_and_empty(self):
        doc = export_chrome_trace([], armed=False)
        assert doc["traceEvents"] == []
        assert doc["metadata"]["armed"] is False
