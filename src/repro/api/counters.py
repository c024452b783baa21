"""The counter table: every count a service publishes, declared once.

A row names a count, the kind it is published as (``counter`` or
``gauge``) and how to read it off a plain service; README's
Observability section says what each counts.  Its owner keeps it as a
plain number on every path, armed or not, and every surface reads it
here at snapshot time: ``summary()``, ``dispatch_stats()`` and
``counters()`` on both facades, an armed ``observability()``, a shard's
outcome, the daemon's ``/metrics`` and Prometheus text, ``simulate
--json``.  A fleet sums the rows in a *fold*: :data:`SUMMARY`'s are
:class:`~repro.core.metrics.MetricsSummary`'s service counters,
:data:`DISPATCH`'s what ``dispatch_stats()`` returns.
"""

from __future__ import annotations

from operator import attrgetter as _of
from typing import Any, Callable, NamedTuple

from repro.core.batch_engine import BatchedEngine

__all__ = ["COUNTS", "Count", "fold", "publish", "publish_folds", "read"]

COUNTER, GAUGE = "counter", "gauge"


class Count(NamedTuple):
    """One row: *read* takes a service (an engine row reads only its
    ``engine``) and returns the count, or None where the service does not
    keep it (a tier not armed, the reference engine); *fold* is
    ``"summary"``, ``"dispatch"`` or None."""

    name: str
    kind: str
    read: Callable[[Any], int | float | None]
    fold: str | None = None


def _engine(read: Callable[[BatchedEngine], int | float | None]):
    """A count the product engine keeps: the reference engine keeps none."""
    return lambda s: read(s.engine) if isinstance(s.engine, BatchedEngine) else None


def _cache(attribute: str):
    """A count of the query cache, kept where one is armed."""
    read = _of(f"query_cache.{attribute}")
    return lambda s: None if s.engine.query_cache is None else read(s.engine)


def _cohorts(attribute: str):
    """A count of the cohort tier, published where it is armed."""
    return _engine(lambda e: None if e._cohorts is None else getattr(e._cohorts, attribute))


#: The table, in publication order within each kind.
COUNTS = (
    Count("engine_scheduling_rounds", COUNTER, _engine(_of("scheduling_rounds"))),
    Count("engine_queries_launched", COUNTER, _engine(_of("queries_launched"))),
    Count("engine_instances_completed", COUNTER, _engine(_of("instances_completed"))),
    Count("cohort_forms", COUNTER, _engine(_of("cohort_forms"))),
    Count("cohort_joins", COUNTER, _engine(_of("cohort_hits"))),
    Count("sim_time", GAUGE, lambda s: s.engine.sim.now),
    Count("sim_events_executed", GAUGE, lambda s: s.engine.sim.events_executed),
    Count("db_total_units", GAUGE, lambda s: s.engine.database.total_units),
    Count("db_mean_gmpl", GAUGE, lambda s: s.engine.database.mean_gmpl()),
    Count("pooled_batches", GAUGE, lambda s: s.engine.sim.pooled_batches, "dispatch"),
    Count("pooled_events", GAUGE, lambda s: s.engine.sim.pooled_events, "dispatch"),
    Count("engine_arrival_runs", GAUGE, _engine(_of("arrival_runs"))),
    Count("engine_arrival_run_arrivals", GAUGE, _engine(_of("arrival_run_arrivals"))),
    Count("engine_memo_states", GAUGE, _engine(lambda e: len(e.plan.states))),
    Count("engine_memo_hits", GAUGE, _engine(_of("plan.memo_hits"))),
    Count("engine_memo_misses", GAUGE, _engine(_of("plan.memo_misses"))),
    Count("engine_flow_traces", GAUGE, _engine(_of("flow_traces"))),
    Count("engine_flow_replays", GAUGE, _engine(_of("flow_replays"))),
    Count("engine_flow_fallbacks", GAUGE, _engine(_of("flow_fallbacks"))),
    Count("engine_launch_memo_entries", GAUGE, _engine(_of("plan.launch_entries"))),
    Count("engine_launch_memo_hits", GAUGE, _engine(_of("plan.launch_hits"))),
    Count("engine_hit_waves", GAUGE, _engine(_of("hit_waves"))),
    Count("engine_hit_wave_deliveries", GAUGE, _engine(_of("hit_wave_deliveries"))),
    Count("engine_bulk_joins", GAUGE, _engine(_of("bulk_joins"))),
    Count("engine_bulk_join_members", GAUGE, _engine(_of("bulk_join_members"))),
    Count("instances_submitted", GAUGE, lambda s: s._counts()[0]),
    Count("instances_done", GAUGE, lambda s: s._counts()[1]),
    Count("query_cache_hits", GAUGE, _cache("hits"), "summary"),
    Count("query_cache_misses", GAUGE, _cache("misses"), "summary"),
    Count("query_cache_coalesced", GAUGE, _cache("coalesced"), "summary"),
    Count("cohort_hits", GAUGE, _cohorts("hits"), "summary"),  # cohort_joins' events
    Count("cohort_splits", COUNTER, _engine(_of("cohort_splits")), "summary"),
)

SUMMARY = tuple(row for row in COUNTS if row.fold == "summary")
DISPATCH = tuple(row for row in COUNTS if row.fold == "dispatch")
#: what a shard ships each round, and a fleet sums
FOLDED = SUMMARY + DISPATCH


def read(service, rows=COUNTS) -> dict[str, int | float]:
    """The *rows* *service* keeps, by name, as they read now."""
    return {row.name: value for row in rows if (value := row.read(service)) is not None}


def fold(service, rows) -> dict[str, int]:
    """*rows* (a fold's) on *service*, one it does not keep reading 0."""
    return {row.name: row.read(service) or 0 for row in rows}


def publish(registry, values: dict[str, int | float]) -> None:
    """Write *values* (a :func:`read`) into *registry*, each as its row's kind."""
    for row in COUNTS:
        if row.name in values:
            instrument = registry.counter if row.kind == COUNTER else registry.gauge
            instrument(row.name).value = values[row.name]


def publish_folds(registry, summary: dict, dispatch: dict[str, int]) -> None:
    """The daemon's Prometheus view of a service's folds: each numeric
    entry of ``summary().to_dict()`` a ``summary_<key>`` gauge, each
    dispatch row a ``dispatch_<name>`` counter."""
    for name, value in summary.items():
        if isinstance(value, (int, float)):
            registry.gauge(f"summary_{name}").set(float(value))
    for name, value in dispatch.items():
        registry.counter(f"dispatch_{name}").inc(int(value))
