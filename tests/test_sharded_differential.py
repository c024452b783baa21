"""Differential harness: the sharded runtime vs a plain DecisionService.

The :class:`~repro.runtime.ShardedDecisionService` claims the
``DecisionService`` facade with hash-partitioned execution.  This suite
pins the claim down in three rings:

* **shards=1 is the service, bit for bit** — every backend, both
  engines, sharing and concurrency included: identical value maps, every
  metrics counter, database totals, and the exact event sequence.
* **Partitioning is invisible when instances don't interact** — on the
  ideal backend (unbounded resources) under full overlap, and on the
  ideal/profiled backends with non-overlapping arrivals: shards ∈ {2, 4}
  produce identical per-instance results and merged database totals,
  with the event stream equal as a multiset.
* **On a contended stochastic backend only values are invariant** — the
  bounded database draws per-replica service times, so response times
  legitimately differ across partitionings, but decision outcomes must
  not.

Result sharing (the query cache) is deliberately per-shard (shards share
nothing), so the cross-shard rings run with it off; the shards=1 ring
keeps it on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

import pytest

from repro.api import DecisionService, ExecutionConfig
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.core.metrics import InstanceMetrics
from repro.runtime import ShardedDecisionService

from tests._support import backend_options, engine_arms, scenario_pattern

METRIC_FIELDS = tuple(f.name for f in fields(InstanceMetrics))

#: Arrival gap guaranteeing no overlap on any backend (ideal units or ms).
NO_OVERLAP = 1.0e6

ENGINES = ("reference", "batched")


def build_config(
    code: str,
    backend: str,
    engine: str,
    seed: int,
    *,
    shards: int = 1,
    failure_prob: float = 0.0,
    query_cache: bool = False,
) -> ExecutionConfig:
    return ExecutionConfig.from_code(
        code,
        backend=backend,
        engine=engine,
        backend_options=backend_options(backend, seed, failure_prob),
        shards=shards,
        query_cache=query_cache,
    )


def project_event(event) -> tuple:
    """A hashable, comparable projection of one typed service event."""
    if isinstance(event, LaunchEvent):
        return ("launch", event.time, event.instance_id, event.attribute,
                event.speculative)
    if isinstance(event, QueryDoneEvent):
        return ("done", event.time, event.instance_id, event.attribute,
                event.units, event.completed)
    if isinstance(event, InstanceCompleteEvent):
        return ("complete", event.time, event.instance_id)
    raise AssertionError(f"unexpected event {event!r}")


def run_plain(pattern, config: ExecutionConfig, arrivals) -> dict:
    service = DecisionService(pattern.schema, config.replace(shards=1))
    log = service.attach_log()
    service.submit_stream(arrivals, values=pattern.source_values)
    database = service.database
    return {
        "values": [
            (h.instance_id, h.done,
             tuple(sorted((n, repr(v)) for n, v in h.instance.value_map().items())))
            for h in service.handles
        ],
        "metrics": [
            tuple(getattr(h.metrics, name) for name in METRIC_FIELDS)
            for h in service.handles
        ],
        "totals": (
            database.total_units,
            database.queries_completed,
            database.queries_cancelled,
            database.queries_failed,
        ),
        "events": [project_event(e) for e in log.events],
        "summary": service.summary(),
    }


def run_sharded(pattern, config: ExecutionConfig, arrivals) -> dict:
    service = ShardedDecisionService(pattern.schema, config)
    log = service.attach_log()
    service.submit_stream(arrivals, values=pattern.source_values)
    stats = service.stats()
    assert len(stats) == config.shards
    return {
        "values": [
            (h.instance_id, h.done,
             tuple(sorted((n, repr(v)) for n, v in h.value_map().items())))
            for h in service.handles
        ],
        "metrics": [
            tuple(getattr(h.metrics, name) for name in METRIC_FIELDS)
            for h in service.handles
        ],
        "totals": (
            sum(s.total_units for s in stats),
            sum(s.queries_completed for s in stats),
            sum(s.queries_cancelled for s in stats),
            sum(s.queries_failed for s in stats),
        ),
        "events": [project_event(e) for e in log.events],
        "summary": service.summary(),
        "observability": service.observability(),
        "dispatch": service.dispatch_stats(),
    }


def assert_summaries_close(sharded, plain) -> None:
    assert sharded.count == plain.count
    assert sharded.total_work == plain.total_work
    for name in ("mean_work", "std_work", "mean_elapsed", "std_elapsed",
                 "mean_speculative_wasted_units", "mean_unneeded_detected",
                 "mean_queries_launched"):
        assert getattr(sharded, name) == getattr(plain, name), name


# -- ring 1: one shard is the plain service, bit for bit -----------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["ideal", "profiled", "bounded"])
@pytest.mark.parametrize("code,query_cache", [("PSE50", True), ("PSE100", False)])
def test_single_shard_is_bit_identical(backend, engine, code, query_cache):
    seed = 11
    pattern = scenario_pattern(seed)
    config = build_config(code, backend, engine, seed, shards=1, query_cache=query_cache)
    arrivals = [index * 2.0 for index in range(5)]
    plain = run_plain(pattern, config, arrivals)
    sharded = run_sharded(pattern, config, arrivals)
    assert sharded["values"] == plain["values"]
    assert sharded["metrics"] == plain["metrics"]
    assert sharded["totals"] == plain["totals"]
    assert sharded["events"] == plain["events"]  # exact sequence, same clock
    assert_summaries_close(sharded["summary"], plain["summary"])


# -- ring 2: partitioning is invisible without database coupling ---------------


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "backend,spacing,code",
    [
        ("ideal", 0.0, "PSE100"),        # full overlap: no contention coupling
        ("ideal", 2.0, "PSE50"),
        ("ideal", NO_OVERLAP, "PCE0"),
        ("profiled", NO_OVERLAP, "PSE50"),   # Gmpl-priced, so no overlap
        ("profiled", NO_OVERLAP, "PSE100"),
    ],
)
def test_sharded_matches_single_when_uncoupled(backend, spacing, code, engine, shards, seed):
    pattern = scenario_pattern(seed)
    config = build_config(code, backend, engine, seed, shards=shards)
    arrivals = [index * spacing for index in range(6)]
    plain = run_plain(pattern, config, arrivals)
    sharded = run_sharded(pattern, config, arrivals)
    assert sharded["values"] == plain["values"]
    assert sharded["metrics"] == plain["metrics"]
    assert sharded["totals"] == plain["totals"]
    # Shard clocks are independent: global order is conventional, the
    # event population is not.
    assert Counter(sharded["events"]) == Counter(plain["events"])
    assert_summaries_close(sharded["summary"], plain["summary"])


# -- ring 3: stochastic contention varies times, never decisions ---------------


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("engine", ENGINES)
def test_bounded_backend_values_invariant_under_sharding(engine, shards):
    seed = 5
    pattern = scenario_pattern(seed, nb_nodes=16)
    config = build_config("PCE0", "bounded", engine, seed, shards=shards)
    arrivals = [index * NO_OVERLAP for index in range(4)]
    plain = run_plain(pattern, config, arrivals)
    sharded = run_sharded(pattern, config, arrivals)
    assert sharded["values"] == plain["values"]
    assert sharded["summary"].count == plain["summary"].count


# -- ring 4: pooled dispatch (× query cache) is invisible at any shard count ---


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["ideal", "profiled", "bounded"])
def test_pooled_dispatch_invisible_at_any_shard_count(
    backend, engine, shards, query_cache
):
    """Same shard count, per-event vs pooled drain (cache on/off): every
    shard's calendar must produce the identical trace — values, all
    metrics counters, database totals, and the exact event sequence
    (shard clocks are shared between the two runs, so even the merged
    global order must match event for event)."""
    seed = 7
    pattern = scenario_pattern(seed, nb_nodes=16 if backend == "bounded" else 24)
    arrivals = [index * 1.5 for index in range(6)]
    config = build_config(
        "PSE50", backend, engine, seed, shards=shards, query_cache=query_cache
    )
    with engine_arms(pooled=False):
        per_event = run_sharded(pattern, config, arrivals)
    pooled = run_sharded(pattern, config, arrivals)
    assert pooled["values"] == per_event["values"]
    assert pooled["metrics"] == per_event["metrics"]
    assert pooled["totals"] == per_event["totals"]
    assert pooled["events"] == per_event["events"]
    assert_summaries_close(pooled["summary"], per_event["summary"])
    assert pooled["summary"].query_cache_misses == per_event["summary"].query_cache_misses
    assert pooled["summary"].query_cache_hits == per_event["summary"].query_cache_hits
    assert (
        pooled["summary"].query_cache_coalesced
        == per_event["summary"].query_cache_coalesced
    )


# -- ring 5: cohort execution is invisible at any shard count ------------------


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["ideal", "profiled", "bounded"])
def test_cohorts_invisible_at_any_shard_count(backend, engine, shards, query_cache):
    """Same shard count, cohorts off vs on (cache on/off, both engines,
    every backend): each shard's cohort grouping must reproduce the
    identical trace — values, all metrics counters, database totals, and
    the exact event sequence — while the merged summary surfaces the
    hit/split totals."""
    seed = 9
    pattern = scenario_pattern(seed, nb_nodes=16 if backend == "bounded" else 24)
    # Same-instant bursts (the cohort case) mixed with spaced arrivals.
    arrivals = [0.0, 0.0, 0.0, 1.5, 1.5, 3.0]
    config = build_config(
        "PSE100", backend, engine, seed, shards=shards, query_cache=query_cache
    )
    with engine_arms(cohorts=False):
        individual = run_sharded(pattern, config, arrivals)
    cohorted = run_sharded(pattern, config, arrivals)
    assert cohorted["values"] == individual["values"]
    assert cohorted["metrics"] == individual["metrics"]
    assert cohorted["totals"] == individual["totals"]
    assert cohorted["events"] == individual["events"]
    assert_summaries_close(cohorted["summary"], individual["summary"])
    assert individual["summary"].cohort_hits == 0
    assert individual["summary"].cohort_splits == 0
    if engine == "batched" and shards == 1 and query_cache:
        # All three t=0 arrivals land in one shard: the burst must
        # actually cohort, so the equality above isn't vacuous.
        assert cohorted["summary"].cohort_hits > 0
    if engine == "reference" or not query_cache:
        # (members ride the cache's primaries: no cache, nothing to ride)
        assert cohorted["summary"].cohort_hits == 0


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_cohort_config_survives_executors(executor):
    """Shard workers arm cohorts with the query cache; hit/split counters
    merge back summed (never averaged) across shards."""
    pattern = scenario_pattern(0)
    config = build_config(
        "PSE100", "ideal", "batched", 0, shards=2, query_cache=True
    ).replace(executor=executor)
    service = ShardedDecisionService(pattern.schema, config)
    for _ in range(8):
        service.submit(pattern.source_values)
    service.run()
    summary = service.summary()
    assert summary.count == 8
    # Every shard saw a same-instant burst of one valuation: all six
    # non-representative instances must be cohort hits across the two
    # shards combined, identically on both executors.
    assert summary.cohort_hits == 6
    assert summary.cohort_splits == 0
    serial = ShardedDecisionService(pattern.schema, config.replace(executor="serial"))
    for _ in range(8):
        serial.submit(pattern.source_values)
    serial.run()
    assert serial.summary() == summary


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_pooled_cache_config_survives_executors(executor):
    """query_cache travels to shard workers; counters merge back."""
    pattern = scenario_pattern(0)
    config = build_config(
        "PSE100", "ideal", "batched", 0, shards=2, query_cache=True
    ).replace(executor=executor)
    service = ShardedDecisionService(pattern.schema, config)
    for _ in range(8):
        service.submit(pattern.source_values)
    service.run()
    summary = service.summary()
    assert summary.count == 8
    # Every shard saw repeats of the same source valuation, so the cache
    # must have removed db work on both executors identically.
    assert summary.query_cache_misses > 0
    assert summary.query_cache_hits + summary.query_cache_coalesced > 0
    serial = ShardedDecisionService(
        pattern.schema, config.replace(executor="serial")
    )
    for _ in range(8):
        serial.submit(pattern.source_values)
    serial.run()
    assert serial.summary() == summary


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["ideal", "profiled", "bounded"])
def test_armed_observability_invisible_at_any_shard_count(backend, engine, shards):
    """observe=True (tracer + registry armed in every shard) must not
    perturb execution: values, every metrics counter, database totals,
    and the exact merged event sequence match the disarmed run."""
    seed = 7
    pattern = scenario_pattern(seed, nb_nodes=16 if backend == "bounded" else 24)
    arrivals = [index * 1.5 for index in range(6)]
    config = build_config(
        "PSE50", backend, engine, seed, shards=shards, query_cache=True
    )
    disarmed = run_sharded(pattern, config, arrivals)
    armed = run_sharded(pattern, config.replace(observe=True), arrivals)
    assert armed["values"] == disarmed["values"]
    assert armed["metrics"] == disarmed["metrics"]
    assert armed["totals"] == disarmed["totals"]
    assert armed["events"] == disarmed["events"]
    assert_summaries_close(armed["summary"], disarmed["summary"])
    assert armed["dispatch"] == disarmed["dispatch"]
    # The disarmed run reports the stub; the armed run has real content
    # with every instrument carrying its shard label.
    assert disarmed["observability"] == {
        "enabled": False, "counters": [], "gauges": [], "histograms": [],
    }
    snapshot = armed["observability"]
    assert snapshot["enabled"] is True
    assert snapshot["counters"]
    assert all("shard" in c["labels"] for c in snapshot["counters"])
    rounds = sum(
        c["value"] for c in snapshot["counters"]
        if c["name"] == "engine_scheduling_rounds"
    )
    assert rounds > 0


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_observability_merges_across_executors(executor):
    """observe travels to shard workers; registry snapshots and trace
    events ship back in the outcome and merge shard-labeled, identically
    on both executors."""
    pattern = scenario_pattern(0)
    config = build_config(
        "PSE100", "ideal", "batched", 0, shards=2, query_cache=True
    ).replace(executor=executor, observe=True)
    service = ShardedDecisionService(pattern.schema, config)
    for _ in range(8):
        service.submit(pattern.source_values)
    service.run()
    snapshot = service.observability()
    assert snapshot["enabled"] is True
    shards_seen = {c["labels"]["shard"] for c in snapshot["counters"]}
    assert shards_seen == {"0", "1"}
    trace = service.chrome_trace()
    assert trace["metadata"]["armed"] is True
    span_pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert span_pids == {0, 1}
    assert service.dispatch_stats()["pooled_batches"] > 0


def test_multiple_shards_actually_used():
    """The CRC routing genuinely spreads a population across shards."""
    pattern = scenario_pattern(0)
    config = build_config("PCE0", "ideal", "batched", 0, shards=4)
    service = ShardedDecisionService(pattern.schema, config)
    handles = [service.submit(pattern.source_values) for _ in range(32)]
    service.run()
    assert len({h.shard for h in handles}) == 4
    assert all(h.done for h in handles)


# -- ring 6: persistent workers run multi-round, and are the serial executor ---


def plain_backend_options(backend: str, seed: int) -> dict:
    """Backend options that survive ``core.serialize`` to the workers.

    Persistent workers receive their config as plain data, so the
    profiled backend profiles its Db function on demand (seeded, hence
    identical in every shard and on both executors) instead of taking
    the suite's prebuilt :data:`RISING_DB` object.
    """
    if backend == "profiled":
        return {"seed": seed, "completions_per_level": 120, "warmup": 40}
    return {"seed": seed, "failure_prob": 0.0}


def run_rounds(pattern, config: ExecutionConfig, executor: str, batches) -> dict:
    """Drive several submit→run rounds on one service; trace everything."""
    service = ShardedDecisionService(
        pattern.schema, config.replace(executor=executor)
    )
    log = service.attach_log()
    per_round = []
    for arrivals in batches:
        service.submit_stream(arrivals, values=pattern.source_values)
        summary = service.summary()
        per_round.append(
            (service.now, summary.count, summary.query_cache_hits)
        )
    stats = service.stats()
    trace = {
        "per_round": per_round,
        "values": [
            (h.instance_id, h.done,
             tuple(sorted((n, repr(v)) for n, v in h.value_map().items())))
            for h in service.handles
        ],
        "metrics": [
            tuple(getattr(h.metrics, name) for name in METRIC_FIELDS)
            for h in service.handles
        ],
        "totals": (
            sum(s.total_units for s in stats),
            sum(s.queries_completed for s in stats),
            sum(s.queries_cancelled for s in stats),
            sum(s.queries_failed for s in stats),
        ),
        "events": [project_event(e) for e in log.events],
        "summary": service.summary(),
        "health": service.worker_health()["alive"],
    }
    service.close()
    return trace


@pytest.mark.parametrize(
    "cohorts,query_cache",
    [(False, True), (True, True), (False, False)],
    ids=["individual", "cohorted", "uncached"],
)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["ideal", "profiled", "bounded"])
def test_persistent_multi_round_matches_serial(backend, engine, cohorts, query_cache):
    """Three incremental rounds on one worker fleet reproduce the serial
    executor's trace bit for bit: values, every metrics counter (cache
    counters included via the summary),
    database totals, and the merged event stream — on the fast stack
    (pooled dispatch + cache) and on the plain per-event one."""
    seed = 13
    pattern = scenario_pattern(seed, nb_nodes=16 if backend == "bounded" else 24)
    code = "PSE100" if cohorts else "PSE50"
    config = build_config(
        code, backend, engine, seed, shards=2, query_cache=query_cache
    ).replace(backend_options=plain_backend_options(backend, seed))
    batches = [
        [0.0, 0.0, 0.0, 1.5],  # a same-instant burst (the cohort case)
        [NO_OVERLAP, NO_OVERLAP, NO_OVERLAP + 1.5],
        [2 * NO_OVERLAP, 2 * NO_OVERLAP],
    ]
    # Process workers fork inside the arms, so they run the same stack.
    with engine_arms(pooled=query_cache, cohorts=cohorts):
        serial = run_rounds(pattern, config, "serial", batches)
        process = run_rounds(pattern, config, "process", batches)
    assert process["values"] == serial["values"]
    assert process["metrics"] == serial["metrics"]
    assert process["totals"] == serial["totals"]
    assert Counter(process["events"]) == Counter(serial["events"])
    assert process["per_round"] == serial["per_round"]
    assert process["summary"] == serial["summary"]
    assert serial["health"] and process["health"]
    assert serial["summary"].count == 9


def _pin_to_shard(shard: int, shards: int, prefix: str) -> str:
    from repro.runtime import shard_of

    for index in range(10_000):
        candidate = f"{prefix}-{index}"
        if shard_of(candidate, shards) == shard:
            return candidate
    raise AssertionError("no id found")  # pragma: no cover


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("backend", ["ideal", "profiled"])
def test_alternating_shard_rounds_match_serial(backend, engine):
    """A population whose rounds alternate shards — each round lands on
    the shard the previous round left cold — runs identically on both
    executors."""
    seed = 17
    pattern = scenario_pattern(seed)
    config = build_config(
        "PSE50", backend, engine, seed, shards=2, query_cache=True
    ).replace(backend_options=plain_backend_options(backend, seed))

    def drive(executor):
        service = ShardedDecisionService(
            pattern.schema, config.replace(executor=executor)
        )
        for round_index in range(3):
            for index in range(6):
                service.submit(
                    pattern.source_values,
                    instance_id=_pin_to_shard(
                        round_index % 2, 2, f"r{round_index}-{index}"
                    ),
                )
            service.run()
        trace = {
            "values": [
                (h.instance_id,
                 tuple(sorted((n, repr(v)) for n, v in h.value_map().items())))
                for h in service.handles
            ],
            "summary": service.summary(),
        }
        service.close()
        return trace

    serial = drive("serial")
    process = drive("process")
    assert process == serial
    assert serial["summary"].count == 18
