"""Typed service events: the observable internals of a DecisionService.

The engine exposes a low-level :class:`~repro.core.engine.EngineObserver`
seam; this module turns those callbacks into immutable, timestamped event
records and fans them out to any number of subscribed handlers — the
"observable box" that tracing and metrics exporters hook into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.engine import EngineObserver
from repro.core.metrics import InstanceMetrics

if TYPE_CHECKING:
    from repro.oracle import InstanceRuntime

__all__ = [
    "LaunchEvent",
    "QueryDoneEvent",
    "InstanceCompleteEvent",
    "EventLog",
]


@dataclass(frozen=True)
class LaunchEvent:
    """A task launch was decided for an attribute."""

    time: float
    instance_id: str
    attribute: str
    speculative: bool


@dataclass(frozen=True)
class QueryDoneEvent:
    """The database finished (or cancelled) a query."""

    time: float
    instance_id: str
    attribute: str
    units: int
    completed: bool


@dataclass(frozen=True)
class InstanceCompleteEvent:
    """All targets of an instance are stable; metrics are final."""

    time: float
    instance_id: str
    metrics: InstanceMetrics


class _Dispatcher(EngineObserver):
    """Adapts engine callbacks to typed events and fans them out.

    ``clock`` supplies the current simulated time (the service passes the
    backend simulation's ``now``).
    """

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self.launch_handlers: list[Callable[[LaunchEvent], None]] = []
        self.query_done_handlers: list[Callable[[QueryDoneEvent], None]] = []
        self.complete_handlers: list[Callable[[InstanceCompleteEvent], None]] = []

    @property
    def has_listeners(self) -> bool:
        """Whether any handler is subscribed to any stream.

        Aggregated emission paths (cohort fan-out) consult this per event
        batch: with no subscriber, per-member event construction is pure
        overhead and may be skipped — a later subscriber starts receiving
        events from the next batch on, exactly as with plain dispatch.
        """
        return bool(
            self.launch_handlers or self.query_done_handlers or self.complete_handlers
        )

    def on_launch(self, instance: InstanceRuntime, name: str, *, speculative: bool) -> None:
        if not self.launch_handlers:
            return
        event = LaunchEvent(
            time=self._clock(),
            instance_id=instance.instance_id,
            attribute=name,
            speculative=speculative,
        )
        for handler in list(self.launch_handlers):
            handler(event)

    def on_query_done(
        self, instance: InstanceRuntime, name: str, *, units: int, completed: bool
    ) -> None:
        if not self.query_done_handlers:
            return
        event = QueryDoneEvent(
            time=self._clock(),
            instance_id=instance.instance_id,
            attribute=name,
            units=units,
            completed=completed,
        )
        for handler in list(self.query_done_handlers):
            handler(event)

    def on_instance_complete(self, instance: InstanceRuntime) -> None:
        if not self.complete_handlers:
            return
        event = InstanceCompleteEvent(
            time=self._clock(),
            instance_id=instance.instance_id,
            metrics=instance.metrics,
        )
        for handler in list(self.complete_handlers):
            handler(event)


class EventLog:
    """A convenience subscriber that records every event in order.

    Attach with ``service.attach_log()`` (or subscribe manually) and read
    ``log.events`` afterwards — handy in tests and for post-hoc tracing.
    """

    def __init__(self):
        self.events: list[object] = []

    def __call__(self, event: object) -> None:
        self.events.append(event)

    def of_type(self, event_type: type) -> list[object]:
        return [e for e in self.events if isinstance(e, event_type)]

    def __len__(self) -> int:
        return len(self.events)
