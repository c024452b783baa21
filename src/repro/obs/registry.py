"""A lightweight metrics registry: counters, gauges, fixed-bucket histograms.

Instrumented code asks the registry for an instrument once (typically in a
constructor) and then calls ``inc`` / ``set`` / ``observe``; counts kept
elsewhere are written in at snapshot time (:mod:`repro.api.counters`).
Everything is lock-free plain Python — the engine and DES run on one
thread, and the sharded runtime merges per-shard *snapshots* rather than
sharing live registries, exactly like
:meth:`~repro.core.metrics.MetricsSummary.merge`.

Disarmed, a context holds :class:`NullRegistry`, which has no instruments
and snapshots to nothing: no path asks it for one.

Snapshots are plain JSON-able dicts (``{"enabled", "counters", "gauges",
"histograms"}``, each a list of labelled entries) so they cross process
boundaries with the shard outcomes; :meth:`MetricsRegistry.merge_snapshot`
folds one back in, optionally adding labels (the sharded service tags each
shard's snapshot with ``shard=<n>`` so per-shard gauges stay meaningful).
:meth:`MetricsRegistry.to_prometheus` renders the text exposition format
served by ``GET /metrics?format=prometheus``.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "histogram_quantile",
]

#: Default histogram bucket upper bounds (seconds), tuned for wall-clock
#: stage latencies from sub-millisecond engine rounds to multi-second
#: drain epochs.  A final +Inf bucket is implicit.
DEFAULT_LATENCY_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"<Counter {self.name} {dict(self.labels)} {self.value}>"


class Gauge:
    """A point-in-time value, overwritten on each ``set``."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name} {dict(self.labels)} {self.value}>"


class Histogram:
    """A fixed-bucket histogram with an implicit +Inf overflow bucket.

    ``bounds`` are ascending upper bounds; ``counts[i]`` holds the
    observations with ``value <= bounds[i]`` (non-cumulative), and
    ``counts[-1]`` the overflow.  Percentiles interpolate linearly within
    the winning bucket, which is the usual fixed-bucket estimate.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, bounds=DEFAULT_LATENCY_BOUNDS, labels: tuple = ()):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be ascending and unique: {bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """The q-quantile estimate (q in [0, 1]); 0.0 when empty."""
        return histogram_quantile(self.bounds, self.counts, q)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} sum={self.sum:.6g}>"


def histogram_quantile(bounds, counts, q: float) -> float:
    """Quantile estimate over plain snapshot data (bounds + bucket counts).

    Works on live histograms and on snapshot entries alike, so exposition
    code never needs a live :class:`Histogram` to report p50/p99.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= target and count:
            if i >= len(bounds):
                return float(bounds[-1])  # overflow bucket: clamp
            lower = bounds[i - 1] if i else 0.0
            upper = bounds[i]
            fraction = (target - (cumulative - count)) / count
            return lower + (upper - lower) * fraction
    return float(bounds[-1])


def _labels_key(labels: dict | None) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create home of every instrument in one execution context.

    A name is of one kind: asking for it as another (directly or through
    :meth:`merge_snapshot`) raises :class:`ValueError`, since the
    exposition writes one ``# TYPE`` line per name.
    """

    enabled = True

    __slots__ = ("_counters", "_gauges", "_histograms", "_kinds")

    def __init__(self):
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        #: name → the kind it was first registered as
        self._kinds: dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        held = self._kinds.setdefault(name, kind)
        if held != kind:
            raise ValueError(f"metric {name!r} is already a {held}, not a {kind}")

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            self._claim(name, "counter")
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            self._claim(name, "gauge")
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self, name: str, bounds=DEFAULT_LATENCY_BOUNDS, **labels: object
    ) -> Histogram:
        key = (name, _labels_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            self._claim(name, "histogram")
            instrument = self._histograms[key] = Histogram(name, bounds, key[1])
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{instrument.bounds}, asked for {tuple(bounds)}"
            )
        return instrument

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a plain JSON-able dict (picklable, mergeable)."""
        return {
            "enabled": True,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self._counters.values()
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self._gauges.values()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in self._histograms.values()
            ],
        }

    def merge_snapshot(self, snapshot: dict, extra_labels: dict | None = None) -> None:
        """Fold one snapshot in: counters/histograms add, gauges overwrite.

        ``extra_labels`` are appended to every entry's labels — the
        sharded service tags each shard's snapshot with ``shard=<n>`` so
        per-shard gauges (clock, Gmpl) are never summed into nonsense.
        """
        extra = extra_labels or {}
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **{**entry["labels"], **extra}).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **{**entry["labels"], **extra}).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            histogram = self.histogram(
                entry["name"], entry["bounds"], **{**entry["labels"], **extra}
            )
            for i, count in enumerate(entry["counts"]):
                histogram.counts[i] += count
            histogram.sum += entry["sum"]
            histogram.count += entry["count"]

    # -- exposition -----------------------------------------------------------

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []

        def sample(name: str, labels: tuple, value, extra: tuple = ()) -> str:
            pairs = ", ".join(f'{k}="{v}"' for k, v in (*labels, *extra))
            rendered = f"{{{pairs}}}" if pairs else ""
            return f"{name}{rendered} {_format_value(value)}"

        seen_types: set[str] = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for counter in self._counters.values():
            name = prefix + _sanitize(counter.name)
            type_line(name, "counter")
            lines.append(sample(name, counter.labels, counter.value))
        for gauge in self._gauges.values():
            name = prefix + _sanitize(gauge.name)
            type_line(name, "gauge")
            lines.append(sample(name, gauge.labels, gauge.value))
        for histogram in self._histograms.values():
            name = prefix + _sanitize(histogram.name)
            type_line(name, "histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                lines.append(
                    sample(
                        name + "_bucket",
                        histogram.labels,
                        cumulative,
                        extra=(("le", _format_value(bound)),),
                    )
                )
            cumulative += histogram.counts[-1]
            lines.append(
                sample(name + "_bucket", histogram.labels, cumulative, extra=(("le", "+Inf"),))
            )
            lines.append(sample(name + "_sum", histogram.labels, histogram.sum))
            lines.append(sample(name + "_count", histogram.labels, histogram.count))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters "
            f"{len(self._gauges)} gauges {len(self._histograms)} histograms>"
        )


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _format_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class NullRegistry:
    """The disarmed registry: no instruments, an empty snapshot."""

    enabled = False

    __slots__ = ()

    def snapshot(self) -> dict:
        return {"enabled": False, "counters": [], "gauges": [], "histograms": []}

    def to_prometheus(self, prefix: str = "repro_") -> str:
        return ""

    def __repr__(self) -> str:
        return "<NullRegistry>"
