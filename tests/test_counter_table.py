"""The counter table (`repro.api.counters`): each row is declared once
and appears, under its name and kind, on every surface — a plain
service's and a fleet's snapshot, `summary()`, `dispatch_stats()`, the
daemon's Prometheus text, `simulate --json` and README — and a disarmed
run keeps every count an armed one does."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.api import DecisionService, ExecutionConfig
from repro.api import counters as table
from repro.core.metrics import MetricsSummary
from repro.runtime import create_service
from repro.server import ServerDaemon
from tests._support import PERF

ROWS = table.COUNTS
NAMES = [row.name for row in ROWS]
#: the counts only armed runs kept before they were plain ints
KEPT = (
    "engine_scheduling_rounds",
    "engine_queries_launched",
    "engine_instances_completed",
    "cohort_forms",
)
WAIT = 30.0


def burst():
    """Two same-instant bursts of one valuation and a few of another:
    cohorts form, riders join, the query cache serves."""
    source = PERF.schema.source_names[0]
    values = PERF.source_values[source]
    return (
        [(0.0, {source: values})] * 6
        + [(0.0, {source: values + 1000})] * 3
        + [(5.0, {source: values})] * 4
    )


def served(config, arrivals):
    service = create_service(PERF.schema, config)
    for at, valuation in arrivals:
        service.submit(valuation, at=at)
    service.run()
    return service


def entries(snapshot, row):
    """*row*'s entries in *snapshot*, which must carry it under its kind only."""
    other = "gauges" if row.kind == table.COUNTER else "counters"
    assert not [e for e in snapshot[other] if e["name"] == row.name], row.name
    return [e for e in snapshot[row.kind + "s"] if e["name"] == row.name]


@pytest.fixture(scope="module")
def plain():
    config = ExecutionConfig.from_code("PSE100", query_cache=True, observe=True)
    return served(config, burst())


@pytest.fixture(scope="module", params=["serial", "process"])
def fleet(request):
    config = ExecutionConfig.from_code(
        "PSE100", query_cache=True, observe=True, shards=2, executor=request.param
    )
    service = served(config, burst())
    yield service
    service.close()


def test_each_name_is_declared_once():
    assert len(set(NAMES)) == len(NAMES)
    assert {row.kind for row in ROWS} == {table.COUNTER, table.GAUGE}
    assert {row.fold for row in ROWS} == {None, "summary", "dispatch"}
    service_fields = [f.name for f in fields(MetricsSummary)]
    service_fields = service_fields[service_fields.index("query_cache_hits") :]
    assert [row.name for row in table.SUMMARY] == service_fields
    assert [row.name for row in table.DISPATCH] == ["pooled_batches", "pooled_events"]


@pytest.mark.parametrize("row", ROWS, ids=NAMES)
def test_a_plain_snapshot_has_the_row_with_its_kind(plain, row):
    snapshot = plain.observability()
    (entry,) = entries(snapshot, row)
    assert entry["labels"] == {}
    assert entry["value"] == plain.counters()[row.name]
    if row.fold == "summary":
        assert getattr(plain.summary(), row.name) == entry["value"]
    if row.fold == "dispatch":
        assert plain.dispatch_stats()[row.name] == entry["value"]


def test_a_plain_snapshot_has_exactly_the_rows(plain):
    snapshot = plain.observability()
    published = [e["name"] for kind in ("counters", "gauges") for e in snapshot[kind]]
    assert sorted(published) == sorted(NAMES)
    assert plain.summary().cohort_hits > 0  # every tier served


def test_a_fleet_merges_every_row(fleet):
    snapshot = fleet.observability()
    shards = [outcome.counters for outcome in fleet.outcomes]
    summary, dispatch, sums = fleet.summary(), fleet.dispatch_stats(), fleet.counters()
    for row in ROWS:
        found = entries(snapshot, row)
        assert sorted(e["labels"]["shard"] for e in found) == ["0", "1"], row.name
        if row.fold is not None:
            merged = sum(e["value"] for e in found)
            assert sums[row.name] == merged == sum(s[row.name] for s in shards), row.name
        if row.fold == "summary":
            assert getattr(summary, row.name) == sums[row.name]
        if row.fold == "dispatch":
            assert dispatch[row.name] == sums[row.name]
    assert set(sums) == {row.name for row in table.FOLDED}


def test_the_daemon_publishes_each_name_once():
    config = ExecutionConfig.from_code("PSE100", query_cache=True, observe=True)
    daemon = ServerDaemon(PERF.schema, config, default_values=PERF.source_values)
    try:
        daemon.submit_many([None] * 6)
        assert daemon.wait_idle(WAIT)
        text = daemon.prometheus_payload()
        payload = daemon.metrics_payload()
    finally:
        daemon.shutdown()
    types = Counter(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
    samples = Counter(re.findall(r"^(repro_\w+) ", text, re.M))
    assert all(n == 1 for n in types.values()), types
    kinds = {name: kind for name, kind in types}
    assert all(n == 1 for name, n in samples.items() if name in kinds), samples
    for row in ROWS:
        assert kinds[f"repro_{row.name}"] == row.kind, row.name
    for row in table.DISPATCH:
        assert kinds[f"repro_dispatch_{row.name}"] == "counter"
        assert payload["dispatch"][row.name] > 0
    for row in table.SUMMARY:
        assert kinds[f"repro_summary_{row.name}"] == "gauge"
        assert row.name in payload["summary"]


def test_simulate_json_carries_the_folds(capsys):
    args = ["simulate", "--code", "PSE100", "--instances", "12", "--concurrency", "4"]
    assert main([*args, "--query-cache", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for row in table.FOLDED:
        assert type(payload[row.name]) is int, row.name
    assert payload["cohort_hits"] == 3
    assert payload["pooled_batches"] > 0


@pytest.mark.parametrize("arrivals", ["burst", "mixed"])
def test_a_disarmed_run_counts_what_an_armed_one_does(arrivals):
    if arrivals == "burst":
        schedule = burst()
    else:  # mixed valuations: hit waves and flow replays
        source = PERF.schema.source_names[0]
        values = [93.5, 40.0, 93.5, 91.25, 40.0, 95.5, 93.5, 40.0, 97.0, 93.5]
        schedule = [(float(5 * (k // 3)), {source: v}) for k, v in enumerate(values * 3)]
    config = ExecutionConfig.from_code("PSE100", query_cache=True)
    disarmed = served(config, schedule)
    armed = served(config.replace(observe=True), schedule)
    assert disarmed.observability()["enabled"] is False
    readings = {e["name"]: e["value"] for e in armed.observability()["counters"]}
    kept = {name: disarmed.counters()[name] for name in KEPT}
    assert kept == {name: readings[name] for name in KEPT}
    assert kept["engine_scheduling_rounds"] > kept["engine_instances_completed"] > 0
    assert disarmed.counters() == armed.counters()


def test_readme_lists_exactly_the_declared_rows():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \| (counter|gauge) \| (\w+|no) \|", readme, re.M)
    assert listed == [(row.name, row.kind, row.fold or "no") for row in ROWS]


def test_the_reference_engine_keeps_the_folds():
    config = ExecutionConfig.from_code("PSE100", query_cache=True, engine="reference")
    service = DecisionService(PERF.schema, config)
    service.submit_stream([0.0, 0.0, 1.0], values=PERF.source_values)
    counts = service.counters()
    assert "engine_scheduling_rounds" not in counts
    assert counts["query_cache_misses"] == service.summary().query_cache_misses > 0
    assert service.dispatch_stats() == {row.name: counts[row.name] for row in table.DISPATCH}
