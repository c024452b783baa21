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

from dataclasses import dataclass, fields
from fractions import Fraction
from math import isqrt
from operator import attrgetter
from typing import Iterable

__all__ = ["InstanceMetrics", "MetricsSummary", "summarize"]


@dataclass(slots=True)
class InstanceMetrics:
    """Counters for one decision-flow instance execution.

    Slotted: one allocation per instance, in every engine, fleet record
    and daemon record.
    """

    instance_id: str
    start_time: float
    finish_time: float | None = None
    work_units: int = 0
    queries_launched: int = 0
    queries_completed: int = 0
    queries_cancelled: int = 0
    queries_failed: int = 0
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


def _mean_of(total: str) -> property:
    """A read-time mean: the correctly rounded float of Σx / n (0.0 for none)."""
    return property(lambda s: float(Fraction(getattr(s, total), s.count)) if s.count else 0.0)


def _deviation_of(total: str, squares: str) -> property:
    """A read-time population deviation, sqrt((Σx² − (Σx)²/n)/n), rounded once."""

    def deviation(s: "MetricsSummary") -> float:
        n = s.count
        spread = Fraction(getattr(s, squares) * n - getattr(s, total) ** 2)
        return _sqrt(spread.numerator, spread.denominator * n * n) if n else 0.0

    return property(deviation)


def _sqrt(n: int, m: int) -> float:
    """The correctly rounded square root of ``n / m``, for ``n >= 0``, ``m > 0``:
    an integer root of at least 55 bits, its last bit set when any bit below
    was dropped (rounding to odd), so its one conversion to a float is right."""
    shift = (n.bit_length() - m.bit_length() - 109) // 2
    if shift >= 0:
        m <<= 2 * shift
    else:
        n <<= -2 * shift
    root = isqrt(n // m)
    root |= root * root * m != n
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


@dataclass
class MetricsSummary:
    """Exact sums over a set of finished instances.

    The fields are the count; integer Σ and Σ² of ``work_units`` and Σ of
    the wasted speculative units, unneeded detections and launches; exact
    (:class:`~fractions.Fraction`) Σ and Σ² of the elapsed times; and, from
    ``query_cache_hits`` on, the service counters: the counter table's
    summary rows (:data:`repro.api.counters.SUMMARY`, zero unless armed),
    filled in by ``summary()`` and summed — never averaged — across shards.
    :meth:`merge` adds them, so a summary equals one :func:`summarize` over
    the same instances whatever the releases and fleet rounds.  Means and
    population deviations are computed when read, each rounded once.
    """

    count: int = 0
    total_work: int = 0
    total_work_squares: int = 0
    total_elapsed: Fraction = Fraction(0)
    total_elapsed_squares: Fraction = Fraction(0)
    total_speculative_wasted_units: int = 0
    total_unneeded_detected: int = 0
    total_queries_launched: int = 0
    query_cache_hits: int = 0
    query_cache_misses: int = 0
    query_cache_coalesced: int = 0
    cohort_hits: int = 0
    cohort_splits: int = 0

    mean_work = _mean_of("total_work")
    std_work = _deviation_of("total_work", "total_work_squares")
    mean_elapsed = _mean_of("total_elapsed")
    std_elapsed = _deviation_of("total_elapsed", "total_elapsed_squares")
    mean_speculative_wasted_units = _mean_of("total_speculative_wasted_units")
    mean_unneeded_detected = _mean_of("total_unneeded_detected")
    mean_queries_launched = _mean_of("total_queries_launched")

    # Shards share no cache, so cross-shard reuse is always 0.  perf/'s
    # fleet cells (declared in BENCHMARK.json) still read these two names,
    # and its smoke test wants every declared cell read; they are not
    # fields, so no summary, payload or merge carries them.
    @property
    def query_cache_l2_hits(self) -> int:
        return 0

    @property
    def query_cache_l2_promotions(self) -> int:
        return 0

    def mean_time_in_units(self, unit_duration: float = 1.0) -> float:
        return self.mean_elapsed / unit_duration

    def mean_time_in_seconds(self) -> float:
        return self.mean_elapsed / 1000.0

    def to_dict(self) -> dict:
        """The ``/metrics`` payload: the count, the means and deviations as
        read, ``total_work`` and the service counters (JSON round-trips it
        exactly: Python serializes floats via repr)."""
        return {name: getattr(self, name) for name in _PAYLOAD}

    @classmethod
    def merge(cls, *summaries: "MetricsSummary") -> "MetricsSummary":
        """Combine summaries of disjoint instance sets: every field added.

        Exact, so the grouping and the order never show: merging none is
        ``MetricsSummary()``, the summary of no instances, and
        ``merge(*map(summarize, parts)) == summarize(all)``.
        """
        return cls(*map(sum, zip(*map(_sums, summaries))))


_FIELDS = tuple(f.name for f in fields(MetricsSummary))
_sums = attrgetter(*_FIELDS)

#: The keys of :meth:`MetricsSummary.to_dict`, in the order it serves them.
_PAYLOAD = (
    "count", "mean_work", "std_work", "mean_elapsed", "std_elapsed",
    "mean_speculative_wasted_units", "mean_unneeded_detected", "total_work",
    "mean_queries_launched", *_FIELDS[_FIELDS.index("query_cache_hits") :],
)


def summarize(
    metrics: Iterable[InstanceMetrics], *, empty_ok: bool = False
) -> MetricsSummary:
    """Sum the finished instances among *metrics* into a summary.

    By default an empty (or entirely unfinished) input raises
    ``ValueError`` — a figure averaged over nothing is a bug in an
    experiment driver.  Pass ``empty_ok=True`` to get the zeroed summary
    (``count == 0``, all means ``0.0``) instead, which is what live
    services report before any instance completes.
    """
    count = work = work_squares = wasted = unneeded = launched = 0
    # elapsed times are dyadic: numerators summed per power-of-two denominator
    elapsed: dict[int, int] = {}
    elapsed_squares: dict[int, int] = {}
    for m in metrics:
        if m.finish_time is None:
            continue
        count += 1
        units = m.work_units
        work += units
        work_squares += units * units
        wasted += m.speculative_wasted_units
        unneeded += m.unneeded_detected
        launched += m.queries_launched
        n, d = (m.finish_time - m.start_time).as_integer_ratio()
        elapsed[d] = elapsed.get(d, 0) + n
        elapsed_squares[d] = elapsed_squares.get(d, 0) + n * n
    if not count and not empty_ok:
        raise ValueError("no finished instances to summarize")
    return MetricsSummary(
        count, work, work_squares,
        sum((Fraction(n, d) for d, n in elapsed.items()), Fraction(0)),
        sum((Fraction(n, d * d) for d, n in elapsed_squares.items()), Fraction(0)),
        wasted, unneeded, launched,
    )
