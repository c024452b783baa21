"""repro.obs: the unified observability layer (metrics, spans, exposition).

One :class:`Observability` bundle pairs a
:class:`~repro.obs.registry.MetricsRegistry` with a
:class:`~repro.obs.trace.SpanTracer`; armed via
``ExecutionConfig(observe=True)`` it threads from
:class:`~repro.api.service.DecisionService` through both engines, the
sharded executors (workers ship registry snapshots and trace events back
with their results), and the server daemon.  Disarmed, every execution
context shares :data:`NULL_OBS` — an empty registry, a no-op tracer — and
hot paths guard on ``obs.enabled`` so the cost is one attribute test.
"""

from __future__ import annotations

from repro.obs.registry import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    histogram_quantile,
)
from repro.obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    NullTracer,
    SpanTracer,
    export_chrome_trace,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanTracer",
    "NullTracer",
    "export_chrome_trace",
    "histogram_quantile",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_TRACE_CAPACITY",
]


class Observability:
    """A registry + tracer pair with one armed/disarmed switch.

    Construct armed bundles with :meth:`create`; use the shared
    :data:`NULL_OBS` when disarmed rather than building null pairs.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self, enabled: bool, registry, tracer):
        self.enabled = enabled
        self.registry = registry
        self.tracer = tracer

    @classmethod
    def create(cls, trace_capacity: int = DEFAULT_TRACE_CAPACITY) -> "Observability":
        """A fresh armed bundle (one per execution context, never shared)."""
        return cls(True, MetricsRegistry(), SpanTracer(trace_capacity))

    def __repr__(self) -> str:
        state = "armed" if self.enabled else "disarmed"
        return f"<Observability {state} {self.registry!r} {self.tracer!r}>"


#: The process-wide disarmed bundle every unobserved context shares.
NULL_OBS = Observability(False, NullRegistry(), NullTracer())
