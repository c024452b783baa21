"""Per-instance performance metrics.

The paper's three measures (section 5):

* **TimeInUnits** — response time of an instance in units of processing,
  used with the ideal (unbounded-resource) database where one unit takes
  exactly one tick of simulated time.
* **TimeInSeconds** — wall-clock response time on the bounded-resource
  simulated database (our simulated milliseconds / 1000).
* **Work** — total units of processing the database performed for the
  instance (speculative and unneeded work included).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from math import sqrt
from statistics import mean, pstdev
from typing import Iterable, Mapping, Sequence

__all__ = ["InstanceMetrics", "MetricsSummary", "summarize"]


@dataclass
class InstanceMetrics:
    """Counters for one decision-flow instance execution."""

    instance_id: str
    start_time: float
    finish_time: float | None = None
    work_units: int = 0
    queries_launched: int = 0
    queries_completed: int = 0
    queries_cancelled: int = 0
    queries_failed: int = 0
    shared_hits: int = 0
    shared_joins: int = 0
    speculative_launched: int = 0
    speculative_wasted_queries: int = 0
    speculative_wasted_units: int = 0
    synthesis_executed: int = 0
    unneeded_detected: int = 0
    unneeded_cost_avoided: int = 0
    attrs_value: int = 0
    attrs_disabled: int = 0
    attrs_unstable: int = 0

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def elapsed(self) -> float:
        """Response time in raw simulated time (units or ms, per database)."""
        if self.finish_time is None:
            raise ValueError(f"instance {self.instance_id} has not finished")
        return self.finish_time - self.start_time

    def time_in_units(self, unit_duration: float = 1.0) -> float:
        """TimeInUnits: response time divided by the ideal unit duration."""
        return self.elapsed / unit_duration

    def time_in_seconds(self, ms_per_time_unit: float = 1.0) -> float:
        """TimeInSeconds: response time when the clock is in milliseconds."""
        return self.elapsed * ms_per_time_unit / 1000.0

    def to_dict(self) -> dict:
        """A plain-dict snapshot of every field, in declaration order.

        Equal to ``dataclasses.asdict(self)`` at about a tenth of the
        cost: every field is a ``str``, ``int``, ``float`` or ``None``,
        so ``asdict``'s recursive deep copy has nothing to copy.  The
        daemon snapshots every finished instance this way, for the
        ``/events`` payload at completion and for the stored row at the
        epoch's end, which is why it is a field read and not ``asdict``.
        """
        return {name: getattr(self, name) for name in _INSTANCE_FIELDS}


_INSTANCE_FIELDS = tuple(f.name for f in fields(InstanceMetrics))


@dataclass
class MetricsSummary:
    """Aggregates over a set of finished instances.

    The ``query_cache_*`` and ``cohort_*`` counters are service-level
    (one :class:`~repro.simdb.database.QueryShareCache` and one cohort
    table per service/shard, not per instance): zero unless the feature
    is armed, filled in by ``DecisionService.summary()``, and summed —
    not averaged — by :meth:`merge` so sharded aggregations report fleet
    totals.
    """

    count: int
    mean_work: float
    std_work: float
    mean_elapsed: float
    std_elapsed: float
    mean_speculative_wasted_units: float
    mean_unneeded_detected: float
    total_work: int = 0
    mean_queries_launched: float = 0.0
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    query_cache_coalesced: int = 0
    query_cache_l2_hits: int = 0
    query_cache_l2_misses: int = 0
    query_cache_l2_promotions: int = 0
    cohort_hits: int = 0
    cohort_splits: int = 0

    def mean_time_in_units(self, unit_duration: float = 1.0) -> float:
        return self.mean_elapsed / unit_duration

    def mean_time_in_seconds(self) -> float:
        return self.mean_elapsed / 1000.0

    def to_dict(self) -> dict:
        """A plain-dict (hence JSON-able) view of every field.

        The server's ``/metrics`` endpoint serves this; floats survive a
        JSON round trip exactly (Python serializes them via repr), so
        ``MetricsSummary.from_dict(json.loads(json.dumps(s.to_dict())))``
        equals ``s`` bit for bit — including the summed-not-averaged
        ``query_cache_*`` fleet totals of a sharded service.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSummary":
        """Rebuild a summary from :meth:`to_dict` output (strict keys)."""
        field_names = {f.name for f in fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ValueError(
                f"unknown MetricsSummary field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(field_names)}"
            )
        return cls(**dict(data))

    @classmethod
    def empty(cls) -> "MetricsSummary":
        """The zeroed summary of no instances (``count == 0``)."""
        return cls(
            count=0,
            mean_work=0.0,
            std_work=0.0,
            mean_elapsed=0.0,
            std_elapsed=0.0,
            mean_speculative_wasted_units=0.0,
            mean_unneeded_detected=0.0,
        )

    @classmethod
    def merge(cls, *summaries: "MetricsSummary") -> "MetricsSummary":
        """Combine summaries of disjoint instance sets into one.

        Means are count-weighted; standard deviations pool the population
        variances.  Empty summaries (``count == 0``) contribute nothing,
        and merging none — or only empties — yields the same zeroed
        summary as ``summarize([], empty_ok=True)``.  A single non-empty
        input is returned as an exact copy, so one-shard aggregations
        reproduce their shard's summary bit for bit.
        """
        cache_totals = {
            name: sum(getattr(s, name) for s in summaries)
            for name in (
                "query_cache_hits",
                "query_cache_misses",
                "query_cache_coalesced",
                "query_cache_l2_hits",
                "query_cache_l2_misses",
                "query_cache_l2_promotions",
                "cohort_hits",
                "cohort_splits",
            )
        }
        live = [s for s in summaries if s.count > 0]
        if not live:
            return replace(cls.empty(), **cache_totals)
        if len(live) == 1:
            return replace(live[0], **cache_totals)
        count = sum(s.count for s in live)

        def weighted(attr: str) -> float:
            return sum(s.count * getattr(s, attr) for s in live) / count

        def pooled_std(mean_attr: str, std_attr: str, combined_mean: float) -> float:
            # E[x^2] per part is var + mean^2; recombine and re-center.
            second_moment = (
                sum(
                    s.count * (getattr(s, std_attr) ** 2 + getattr(s, mean_attr) ** 2)
                    for s in live
                )
                / count
            )
            return sqrt(max(0.0, second_moment - combined_mean**2))

        mean_work = weighted("mean_work")
        mean_elapsed = weighted("mean_elapsed")
        return cls(
            count=count,
            mean_work=mean_work,
            std_work=pooled_std("mean_work", "std_work", mean_work),
            mean_elapsed=mean_elapsed,
            std_elapsed=pooled_std("mean_elapsed", "std_elapsed", mean_elapsed),
            mean_speculative_wasted_units=weighted("mean_speculative_wasted_units"),
            mean_unneeded_detected=weighted("mean_unneeded_detected"),
            total_work=sum(s.total_work for s in live),
            mean_queries_launched=weighted("mean_queries_launched"),
            **cache_totals,
        )


def summarize(
    metrics: Iterable[InstanceMetrics], *, empty_ok: bool = False
) -> MetricsSummary:
    """Summarize finished instances.

    By default an empty (or entirely unfinished) input raises
    ``ValueError`` — a figure averaged over nothing is a bug in an
    experiment driver.  Pass ``empty_ok=True`` to get a well-defined
    zeroed summary (``count == 0``, all means ``0.0``) instead, which is
    what live services report before any instance completes.
    """
    finished: Sequence[InstanceMetrics] = [m for m in metrics if m.done]
    if not finished:
        if empty_ok:
            return MetricsSummary.empty()
        raise ValueError("no finished instances to summarize")
    works = [float(m.work_units) for m in finished]
    elapsed = [m.elapsed for m in finished]
    return MetricsSummary(
        count=len(finished),
        mean_work=mean(works),
        std_work=pstdev(works) if len(works) > 1 else 0.0,
        mean_elapsed=mean(elapsed),
        std_elapsed=pstdev(elapsed) if len(elapsed) > 1 else 0.0,
        mean_speculative_wasted_units=mean(
            float(m.speculative_wasted_units) for m in finished
        ),
        mean_unneeded_detected=mean(float(m.unneeded_detected) for m in finished),
        total_work=int(sum(works)),
        mean_queries_launched=mean(float(m.queries_launched) for m in finished),
    )
