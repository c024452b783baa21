"""The decision-service daemon: streaming arrivals in front of the engine.

Everything else in the repo is batch — a sweep is submitted, drained, and
the process exits.  :class:`ServerDaemon` is the open-system front half:
it owns a :class:`~repro.api.service.DecisionService` (plain, or sharded
on either executor — the process executor's persistent shard workers
stay alive across epochs, so each drain round streams down the same
pipes), accepts submissions from any thread, and runs a single **drain
loop** thread that feeds admitted arrivals into the engine in epochs —
submit the pending batch at DES times derived from wall-clock arrival
(``ticks_per_second`` maps wall seconds onto the simulated clock), run
the calendar dry, record and persist completions, repeat.  The DES clock
therefore advances against wall-time arrivals instead of a pre-baked
schedule.

In front of the engine sits an **admission controller**: a bounded
arrival queue with a configurable high-water mark.  Past it, submissions
are rejected (HTTP maps this to ``429``) with a retry hint derived from
the observed drain rate — an EWMA of instances completed per wall second
over recent epochs.  The queue can never exceed ``high_water``, which
bounds the work in flight and keeps the engine from falling unboundedly
behind the arrival rate.

Finished records — done, stalled or failed: source valuation, decision
values or error, metrics snapshot, config hash — are written to a
:class:`~repro.server.store.RunStore` after every epoch, so ``get()`` on
a restarted daemon still resolves instances finished before the restart.  Once an epoch is committed the daemon
**forgets** it: the finished instances are released from the service
(its summary keeps counting them) and their records leave the live map,
so memory follows the admission bound rather than the number of
instances ever served, and ``get()`` answers them from the store
(``"origin": "store"``).  ``"origin": "live"`` therefore means queued,
running, or not persisted — a daemon without a store keeps every record,
memory being its only home.  A plain service and a sharded fleet answer
the same calls (release, health, close), so this holds on every
executor.  :meth:`shutdown` is graceful:
admission closes, the drain loop finishes every already-accepted
instance, the store is flushed and closed — zero accepted instances are
lost.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from queue import Full, Queue
from typing import Any, Mapping, Sequence

from repro.api import counters as table
from repro.api.config import ExecutionConfig
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.api.service import coerce_config
from repro.core.metrics import MetricsSummary
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    Observability,
    export_chrome_trace,
    histogram_quantile,
)
from repro.runtime.sharding import create_service
from repro.server.store import RunStore, config_hash
from repro.values import encode_values

__all__ = ["ServerDaemon", "SubmitResult", "STATUSES"]

#: Instance lifecycle states as reported by ``get()`` / ``GET /instances/<id>``.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
STALLED = "stalled"
FAILED = "failed"
STATUSES = (QUEUED, RUNNING, DONE, STALLED, FAILED)

#: Default wall→DES time scale: 1 wall second = 1000 simulated ticks,
#: the repo-wide "ms clock" convention the CLI's --rate flag uses.
DEFAULT_TICKS_PER_SECOND = 1000.0

#: Default drain-loop liveness threshold (wall seconds).  The loop
#: heartbeats every wake and between epochs; a heartbeat older than this
#: flips ``health()`` to "wedged" (HTTP 503) — either the thread is stuck
#: inside one epoch for that long, or it stopped iterating entirely.
DEFAULT_STALL_AFTER = 30.0


@dataclass(frozen=True)
class SubmitResult:
    """The admission controller's answer to one submission (or batch).

    ``accepted`` holds the assigned instance ids (empty on rejection);
    ``rejected`` counts instances turned away — a batch is admitted
    atomically, so one of the two is always zero.  ``retry_after`` is the
    backpressure hint in wall seconds (set only for ``queue full``), and
    ``queue_depth`` the arrival-queue depth after the decision.
    """

    accepted: tuple[str, ...]
    rejected: int
    reason: str | None
    retry_after: float | None
    queue_depth: int

    @property
    def ok(self) -> bool:
        return self.rejected == 0


@dataclass
class _Record:
    """In-memory state of one accepted instance, until it is persisted:
    what the arrival queue holds until its drain epoch."""

    instance_id: str
    status: str
    submitted_wall: float
    source: dict | None
    started_wall: float | None = None
    completed_wall: float | None = None
    values: dict | None = None
    metrics: Any = None  # InstanceMetrics once done
    error: str | None = None


def _event_payload(event: object) -> dict | None:
    """A typed observer event as a plain JSON-able dict (None if unknown)."""
    if isinstance(event, LaunchEvent):
        return {
            "type": "launch",
            "time": event.time,
            "instance_id": event.instance_id,
            "attribute": event.attribute,
            "speculative": event.speculative,
        }
    if isinstance(event, QueryDoneEvent):
        return {
            "type": "query_done",
            "time": event.time,
            "instance_id": event.instance_id,
            "attribute": event.attribute,
            "units": event.units,
            "completed": event.completed,
        }
    if isinstance(event, InstanceCompleteEvent):
        return {
            "type": "instance_complete",
            "time": event.time,
            "instance_id": event.instance_id,
            # A snapshot: late cancellations and speculative waste are
            # still charged to the metrics after the instance finishes.
            "metrics": event.metrics.to_dict(),
        }
    return None


class ServerDaemon:
    """Admission control + drain loop + persistence around a service.

    ``config`` accepts the same spellings as
    :class:`~repro.api.service.DecisionService`; ``config.shards > 1``
    builds the sharded facade on either executor.  Under
    ``executor="process"`` each drain epoch becomes one round streamed
    to the persistent shard workers, and ``health()`` folds the fleet's
    per-worker liveness into ``/healthz`` (a dead worker flips the
    daemon unhealthy).

    ``db`` is a SQLite path (or a pre-built
    :class:`~repro.server.store.RunStore`); omit it to run without
    persistence.  ``default_values`` is the source valuation used when a
    submission carries none (the CLI wires the generated pattern's
    canonical payload here so ``POST /instances`` with an empty body
    works).  ``high_water`` bounds the arrival queue.  ``stall_after``
    is the drain-loop liveness threshold ``health()`` uses to report a
    wedged loop; ``config.observe`` arms the repro.obs tracer and
    registry across the daemon and its service (the per-stage latency
    histograms of :meth:`stage_stats` are always on).
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None = None,
        *,
        db: str | RunStore | None = None,
        high_water: int = 256,
        default_values: Mapping[str, object] | None = None,
        ticks_per_second: float = DEFAULT_TICKS_PER_SECOND,
        drain_interval: float = 0.005,
        stall_after: float = DEFAULT_STALL_AFTER,
        event_history: int = 1024,
        id_prefix: str = "srv-",
        backend: str | None = None,
        **backend_options: Any,
    ):
        config = coerce_config(config)
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1, got {high_water}")
        if ticks_per_second <= 0:
            raise ValueError(
                f"ticks_per_second must be > 0, got {ticks_per_second}"
            )
        if stall_after <= 0:
            raise ValueError(f"stall_after must be > 0, got {stall_after}")
        self.schema = schema
        self.service = create_service(
            schema, config, backend=backend, **backend_options
        )
        self.config = self.service.config
        self.config_digest = config_hash(self.config)
        self.default_values = (
            dict(default_values) if default_values is not None else None
        )
        self.high_water = high_water
        self.ticks_per_second = ticks_per_second
        self._drain_interval = drain_interval
        self._id_prefix = id_prefix
        self._store = db if isinstance(db, RunStore) else (
            RunStore(db) if db is not None else None
        )
        first = self._store.next_sequence(id_prefix) if self._store is not None else 1
        self._seq = itertools.count(first)

        self._wall0 = time.time()
        self._mono0 = time.monotonic()
        self._state_lock = threading.Lock()
        self._service_lock = threading.Lock()
        self._queue: deque[_Record] = deque()
        self._records: dict[str, _Record] = {}
        self._completion_walls: dict[str, float] = {}

        # -- counters (guarded by _state_lock) --
        self._accepted = 0
        self._rejected = 0
        self._completed = 0
        self._stalled = 0
        self._failed = 0
        self._persisted = 0
        self._epochs = 0
        self._peak_queue = 0
        self._drain_rate: float | None = None

        # -- observability --
        # The tracer arms only under config.observe (flight-recorder
        # spans for admit/epoch on top of the service's engine spans).
        # Stage latency histograms are always on: a handful of observes
        # per instance, far from any hot loop, and /metrics percentiles
        # should not require arming the full tracer.
        self._obs = Observability.create() if self.config.observe else NULL_OBS
        self._stages = MetricsRegistry()
        self._h_admit = self._stages.histogram("stage_seconds", stage="admit")
        self._h_queue_wait = self._stages.histogram(
            "stage_seconds", stage="queue_wait"
        )
        self._h_epoch = self._stages.histogram("stage_seconds", stage="epoch")
        self._h_decision = self._stages.histogram(
            "stage_seconds", stage="decision"
        )
        if self._store is not None:
            # Seed decision percentiles from persisted runs so a
            # restarted daemon's /metrics does not start cold.
            for latency in self._store.latencies():
                self._h_decision.observe(latency)
        self._stall_after = stall_after
        self._heartbeat_mono = time.monotonic()
        self._events_dropped = 0

        # -- event fan-out --
        self._events_lock = threading.Lock()
        self._subscribers: list[Queue] = []
        self._history: deque = deque(maxlen=event_history)
        self._taps_armed = False
        self.service.on_instance_complete(self._on_complete)

        # -- drain loop --
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._wake = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-server-drain", daemon=True
        )
        self._thread.start()

    # -- admission ------------------------------------------------------------

    def submit(self, values: Mapping[str, object] | None = None) -> SubmitResult:
        """Admit one instance (or reject it with a backpressure hint)."""
        return self.submit_many([values])

    def submit_many(
        self, values_list: Sequence[Mapping[str, object] | None]
    ) -> SubmitResult:
        """Admit a batch atomically: all instances enter the queue, or none.

        Rejection reasons: ``"queue full"`` (the batch would push the
        arrival queue past ``high_water``; ``retry_after`` estimates when
        the drain loop will have made room) and ``"shutting down"``
        (admission is closed; already-accepted work still completes).
        """
        admit_started = time.perf_counter()
        result = self._admit(values_list)
        elapsed = time.perf_counter() - admit_started
        with self._state_lock:
            # HTTP handler threads call this concurrently; the state
            # lock keeps the (single-writer) histogram consistent.
            self._h_admit.observe(elapsed)
        if self._obs.enabled:
            self._obs.tracer.instant(
                "daemon.admit",
                args={
                    "accepted": len(result.accepted),
                    "rejected": result.rejected,
                    "queue_depth": result.queue_depth,
                },
            )
        return result

    def _admit(
        self, values_list: Sequence[Mapping[str, object] | None]
    ) -> SubmitResult:
        n = len(values_list)
        wall = time.time()
        with self._state_lock:
            depth = len(self._queue)
            if n == 0:
                return SubmitResult((), 0, None, None, depth)
            if self._stopping.is_set():
                self._rejected += n
                return SubmitResult((), n, "shutting down", None, depth)
            if depth + n > self.high_water:
                self._rejected += n
                return SubmitResult(
                    (), n, "queue full", self._retry_after_locked(depth + n), depth
                )
            ids = []
            for values in values_list:
                instance_id = f"{self._id_prefix}{next(self._seq)}"
                if values is not None:
                    source = dict(values)
                elif self.default_values is not None:
                    source = dict(self.default_values)
                else:
                    source = None
                record = _Record(instance_id, QUEUED, wall, source)
                self._queue.append(record)
                self._records[instance_id] = record
                ids.append(instance_id)
            self._accepted += n
            depth = len(self._queue)
            self._peak_queue = max(self._peak_queue, depth)
            self._idle.clear()
        self._wake.set()
        return SubmitResult(tuple(ids), 0, None, None, depth)

    def _retry_after_locked(self, needed_drain: int) -> float:
        """Wall seconds until ~needed_drain instances will have drained."""
        rate = self._drain_rate if self._drain_rate else 20.0
        return min(60.0, max(0.05, needed_drain / rate))

    # -- the drain loop -------------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            self._wake.wait(timeout=self._drain_interval)
            self._wake.clear()
            self._heartbeat_mono = time.monotonic()
            batch = self._take_batch()
            while batch:
                self._run_epoch(batch)
                self._heartbeat_mono = time.monotonic()
                batch = self._take_batch()
            with self._state_lock:
                if not self._queue:
                    self._idle.set()
                    if self._stopping.is_set():
                        break
        self._stopped.set()

    def _take_batch(self) -> list[_Record]:
        with self._state_lock:
            if not self._queue:
                return []
            batch = list(self._queue)
            self._queue.clear()
        return batch

    def _run_epoch(self, batch: list[_Record]) -> None:
        epoch_mono = time.monotonic()
        epoch_wall = time.time()
        span_started = time.perf_counter()
        handles: list[tuple[_Record, object]] = []
        failed: list[_Record] = []
        with self._service_lock:
            floor = self.service.now
            for record in batch:
                with self._state_lock:
                    record.status = RUNNING
                    record.started_wall = epoch_wall
                    self._h_queue_wait.observe(max(0.0, epoch_wall - record.submitted_wall))
                scaled = (record.submitted_wall - self._wall0) * self.ticks_per_second
                try:
                    handle = self.service.submit(
                        record.source,
                        at=max(floor, scaled),
                        instance_id=record.instance_id,
                    )
                except Exception as error:  # a bad valuation must not kill the loop
                    failed.append(self._mark_failed(record, error))
                    continue
                handles.append((record, handle))
            try:
                self.service.run()
            except Exception as error:  # pragma: no cover - engine invariant breach
                for record, _handle in handles:
                    failed.append(self._mark_failed(record, error))
                handles = []
        if self._obs.enabled:
            self._obs.tracer.record(
                "daemon.epoch",
                span_started,
                time.perf_counter(),
                args={"batch": len(batch)},
            )
        self._finish_epoch(handles, failed, time.monotonic() - epoch_mono)

    def _mark_failed(self, record: _Record, error: Exception) -> _Record:
        with self._state_lock:
            record.status = FAILED
            record.error = f"{type(error).__name__}: {error}"
            self._failed += 1
        return record

    def _finish_epoch(
        self,
        handles: list[tuple[_Record, object]],
        failed: list[_Record],
        epoch_seconds: float,
    ) -> None:
        """Record the epoch's outcomes and persist them with the records
        that *failed* to start: every record it settled, failed ones too,
        leaves the live map once the store has it."""
        fallback_wall = time.time()
        # Every value_map() returns a fresh dict: the record may keep it.
        decided = [h.value_map() if h.done else None for _r, h in handles]
        finished = failed
        done_count = 0
        with self._state_lock:
            for (record, handle), values in zip(handles, decided):
                if handle.done:
                    record.status = DONE
                    record.completed_wall = self._completion_walls.pop(
                        record.instance_id, fallback_wall
                    )
                    record.values = values
                    record.metrics = handle.metrics
                    self._h_decision.observe(
                        max(0.0, record.completed_wall - record.submitted_wall)
                    )
                    done_count += 1
                else:
                    # run() drained the calendar with targets unstable:
                    # the flow can never finish.  Record it as stalled.
                    record.status = STALLED
                finished.append(record)
            self._completed += done_count
            self._stalled += len(handles) - done_count
            self._epochs += 1
            self._h_epoch.observe(epoch_seconds)
            if done_count and epoch_seconds > 0:
                rate = done_count / epoch_seconds
                self._drain_rate = (
                    rate
                    if self._drain_rate is None
                    else 0.3 * rate + 0.7 * self._drain_rate
                )
        # The records now hold the values and metrics, so the service can
        # let the instances go; the records themselves leave once the store
        # has them.  Only this thread writes a finished record: its rows
        # are built unlocked.
        with self._service_lock:
            self.service.release_completed()
        if self._store is not None and finished:
            written = self._store.record_many(map(self._store_record, finished))
            with self._state_lock:
                self._persisted += written
                for record in finished:
                    del self._records[record.instance_id]

    def _store_record(self, record: _Record) -> dict:
        return {
            "instance_id": record.instance_id,
            "schema_name": self.schema.name,
            "status": record.status,
            "submitted_wall": record.submitted_wall,
            "started_wall": record.started_wall,
            "completed_wall": record.completed_wall,
            "source": record.source,
            "values": record.values,
            "metrics": None if record.metrics is None else record.metrics.to_dict(),
            "config_hash": self.config_digest,
            "error": record.error,
        }

    # -- reading --------------------------------------------------------------

    def get(self, instance_id: str) -> dict | None:
        """The status payload for one instance id, or None if unknown.

        The live map answers for instances that are queued, running, or
        have no store to go to (``origin: "live"``); the store answers
        for everything persisted, by this daemon or one before a restart
        (``origin: "store"``).  :meth:`shutdown` closes the store, after
        which a persisted id raises the store's ``RuntimeError``: read it
        from the file with a new :class:`RunStore`, or a restarted daemon.
        """
        with self._state_lock:
            record = self._records.get(instance_id)
            if record is not None:
                return self._payload_from_live(record)
        if self._store is not None:
            stored = self._store.get(instance_id)
            if stored is not None:
                return self._payload(stored, "store")
        return None

    def _payload_from_live(self, record: _Record) -> dict:
        stored = self._store_record(record)
        stored["source"] = encode_values(record.source) or {}
        stored["values"] = encode_values(record.values)
        return self._payload(stored, "live")

    @staticmethod
    def _payload(stored: dict, origin: str) -> dict:
        """The ``get()`` payload of a record in the store's form."""
        payload = {
            "id": stored["instance_id"],
            "status": stored["status"],
            "schema": stored["schema_name"],
            "submitted_at": stored["submitted_wall"],
            "started_at": stored.get("started_wall"),
            "completed_at": stored["completed_wall"],
            "source": stored["source"],
            "values": stored["values"],
            "metrics": stored["metrics"],
            "config_hash": stored["config_hash"],
            "origin": origin,
        }
        if stored.get("error") is not None:
            payload["error"] = stored["error"]
        if stored["completed_wall"] is not None:
            payload["latency"] = stored["completed_wall"] - stored["submitted_wall"]
        return payload

    def summary(self) -> MetricsSummary:
        """The service's cross-instance aggregate (serialized vs epochs)."""
        with self._service_lock:
            return self.service.summary()

    def server_stats(self) -> dict:
        """Daemon-level counters: queue, admission, drain, persistence."""
        now = time.monotonic()
        with self._state_lock:
            return {
                "queue_depth": len(self._queue),
                "peak_queue_depth": self._peak_queue,
                "high_water": self.high_water,
                "accepted": self._accepted,
                "rejected": self._rejected,
                "completed": self._completed,
                "stalled": self._stalled,
                "failed": self._failed,
                "persisted": self._persisted,
                "epochs": self._epochs,
                "drain_rate": self._drain_rate,
                "events_dropped": self._events_dropped,
                "heartbeat_age": now - self._heartbeat_mono,
                "drain_alive": self._thread.is_alive(),
                "uptime": now - self._mono0,
                "stopping": self._stopping.is_set(),
            }

    def health(self) -> tuple[bool, dict]:
        """Liveness verdict plus the ``GET /healthz`` payload.

        Unlike a bare "the process answered", this detects a wedged
        drain loop: the loop heartbeats every wake and between epochs,
        so a heartbeat older than ``stall_after`` means admitted work is
        sitting in the queue with nothing consuming it.  ``ok=False``
        (HTTP 503) when the loop is wedged or died without a shutdown —
        or, on a process-executor service, when any persistent shard
        worker has died (the fleet cannot recover its shard state).
        """
        stats = self.server_stats()
        alive, stopping = stats["drain_alive"], stats["stopping"]
        # Unlocked: a liveness probe must not wait out a running epoch.
        workers = self.service.worker_health()
        if not alive and not self._stopped.is_set():
            status, ok = "dead", False
        elif alive and stats["heartbeat_age"] > self._stall_after:
            status, ok = "wedged", False
        elif not workers["alive"] and not stopping:
            status, ok = "workers-dead", False
        elif stopping:
            status, ok = "stopping", True
        else:
            status, ok = "ok", True
        payload = {
            "status": status,
            "ok": ok,
            **{key: stats[key] for key in ("queue_depth", "high_water", "heartbeat_age")},
            "stall_after": self._stall_after,
            "drain_alive": alive,
            "uptime": stats["uptime"],
            "workers": workers,
        }
        return ok, payload

    def dispatch_stats(self) -> dict:
        """Pooled-dispatch totals from the underlying service."""
        with self._service_lock:
            return self.service.dispatch_stats()

    def stage_stats(self) -> dict:
        """Per-stage latency digests: admit, queue_wait, epoch, decision.

        Each stage reports ``count``, ``mean``, ``p50``, and ``p99`` in
        wall seconds, interpolated from the always-on fixed-bucket
        histograms — these power the ``/metrics`` JSON body.
        """
        with self._state_lock:
            snapshot = self._stages.snapshot()
        stages = {}
        for hist in snapshot["histograms"]:
            stage = hist["labels"].get("stage", hist["name"])
            count = hist["count"]
            stages[stage] = {
                "count": count,
                "mean": (hist["sum"] / count) if count else 0.0,
                "p50": histogram_quantile(hist["bounds"], hist["counts"], 0.5),
                "p99": histogram_quantile(hist["bounds"], hist["counts"], 0.99),
            }
        return stages

    def observability(self) -> dict:
        """The service-level registry snapshot (disabled stub when off)."""
        with self._service_lock:
            return self.service.observability()

    def metrics_payload(self) -> dict:
        """The ``GET /metrics`` body: summary + server + config identity
        (the strategy's code and every scalar config field)."""
        config = self.config
        identity = {f.name: getattr(config, f.name) for f in fields(config)}
        return {
            "summary": self.summary().to_dict(),
            "server": self.server_stats(),
            "dispatch": self.dispatch_stats(),
            "stages": self.stage_stats(),
            "observability": self.observability(),
            "config": {
                "code": config.code,
                **{k: v for k, v in identity.items() if isinstance(v, (str, int, float))},
                "hash": self.config_digest,
                "schema": self.schema.name,
            },
        }

    def prometheus_payload(self) -> str:
        """The ``GET /metrics?format=prometheus`` text exposition body.

        Summary and server counters become ``repro_summary_*`` /
        ``repro_server_*`` gauges, pooled-dispatch totals become
        ``repro_dispatch_*`` counters (the summary and dispatch ones as
        :func:`repro.api.counters.publish_folds` writes them), the always-on
        stage histograms export with cumulative ``_bucket{le=...}`` series,
        and — when the daemon runs with ``observe=True`` — the merged engine
        registry (per-shard labels intact) rides along.
        """
        registry = MetricsRegistry()
        table.publish_folds(registry, self.summary().to_dict(), self.dispatch_stats())
        for name, value in self.server_stats().items():
            if isinstance(value, (int, float)):  # bools export as 0/1
                registry.gauge(f"server_{name}").set(float(value))
        with self._state_lock:
            stage_snapshot = self._stages.snapshot()
        registry.merge_snapshot(stage_snapshot)
        service_snapshot = self.observability()
        if service_snapshot.get("enabled"):
            registry.merge_snapshot(service_snapshot)
        return registry.to_prometheus()

    def trace_payload(self) -> dict:
        """Chrome-trace JSON: the daemon lane plus every service lane.

        Loadable in ``about:tracing`` / Perfetto.  Disarmed daemons
        return a valid-but-empty document (``metadata.armed: false``).
        """
        groups = [(1000, "daemon", self._obs.tracer.events())]
        with self._service_lock:
            groups.extend(self.service.trace_groups())
        return export_chrome_trace(groups, armed=self._obs.enabled)

    # -- events ---------------------------------------------------------------

    def _on_complete(self, event: InstanceCompleteEvent) -> None:
        self._completion_walls[event.instance_id] = time.time()
        self._publish(_event_payload(event))

    def _arm_event_taps(self) -> None:
        """Attach launch/query-done taps on first demand.

        Completion events are always tapped (they drive per-instance
        latency); the chattier launch/query streams attach only once an
        ``/events`` subscriber exists, so unobserved daemons pay nothing
        for them.  A handler attached mid-life receives events from then
        on (a fleet's from its next round), so history simply starts at
        the first subscription.
        """
        if self._taps_armed:
            return
        self._taps_armed = True
        self.service.on_launch(lambda e: self._publish(_event_payload(e)))
        self.service.on_query_done(lambda e: self._publish(_event_payload(e)))

    def _publish(self, payload: dict | None) -> None:
        if payload is None:
            return
        with self._events_lock:
            self._history.append(payload)
            for subscriber in self._subscribers:
                try:
                    subscriber.put_nowait(payload)
                except Full:
                    # A slow/stuck consumer must never block the drain
                    # loop or grow daemon memory: drop, count, move on.
                    self._events_dropped += 1

    def subscribe_events(
        self, *, replay: bool = False, max_queue: int = 1024
    ) -> Queue:
        """A queue receiving every typed event payload from now on.

        ``replay=True`` pre-loads the retained history (bounded ring)
        before live delivery starts; the switch is atomic, so no event is
        lost or duplicated across the boundary.  A ``None`` item marks
        daemon shutdown.

        The queue is bounded at ``max_queue`` items (``0`` → unbounded);
        events published while a subscriber is full are dropped for that
        subscriber and counted in ``server_stats()["events_dropped"]``.
        """
        self._arm_event_taps()
        subscriber: Queue = Queue(maxsize=max_queue)
        with self._events_lock:
            if replay:
                for payload in self._history:
                    if subscriber.full():
                        self._events_dropped += 1
                        continue
                    subscriber.put_nowait(payload)
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe_events(self, subscriber: Queue) -> None:
        with self._events_lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    # -- lifecycle ------------------------------------------------------------

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    def is_idle(self) -> bool:
        """No queued arrivals and no epoch in flight."""
        return self._idle.is_set()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the arrival queue is drained (True) or timeout."""
        return self._idle.wait(timeout)

    def shutdown(self, timeout: float = 60.0) -> bool:
        """Graceful stop: close admission, drain, flush, join.

        Every already-accepted instance is executed and (when a store is
        configured) persisted before the drain loop exits; event
        subscribers receive a ``None`` sentinel.  Idempotent.  Returns
        False if the drain loop failed to finish within *timeout*.
        """
        self._stopping.set()
        self._wake.set()
        self._thread.join(timeout)
        drained = not self._thread.is_alive()
        if drained and self._store is not None:
            self._store.close()
        if drained:
            # Shut persistent shard workers down with the daemon (nothing
            # to shut down on a plain service).
            with self._service_lock:
                self.service.close()
        with self._events_lock:
            for subscriber in self._subscribers:
                try:
                    subscriber.put_nowait(None)
                except Full:
                    # The stream loop also exits on stopping+idle, so a
                    # full subscriber still terminates without the
                    # sentinel.
                    self._events_dropped += 1
        return drained

    def __repr__(self) -> str:
        stats = self.server_stats()
        return (
            f"<ServerDaemon {self.schema.name!r} {self.config.code} "
            f"queue={stats['queue_depth']}/{self.high_water} "
            f"accepted={stats['accepted']} completed={stats['completed']}>"
        )
