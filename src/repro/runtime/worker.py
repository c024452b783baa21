"""Worker-side execution of one shard's workload.

A shard workload crosses the process boundary in plain picklable form:
the schema and :class:`~repro.api.config.ExecutionConfig` travel as the
plain dicts of :mod:`repro.core.serialize`, and the submissions travel as
an ordered op list — each op either
``("submit", instance_id, source_values, at)`` or
``("closed", instance_ids, values_list, concurrency)``.  The worker
rebuilds a single-shard :class:`~repro.api.service.DecisionService` from
them, replays the ops, drives the shard's private simulation, and
returns a :class:`ShardOutcome` — per-instance value maps and metrics,
the shard's :class:`~repro.core.metrics.MetricsSummary`, database totals,
and (when requested) the shard's typed event sequence.

:func:`worker_main` is the **persistent worker loop** behind the process
executor: spawned once per shard, it keeps a live service across rounds
(:class:`_PersistentShard`, process-agnostic, so the serial test suite
drives it in-process to pin down exactly what crosses the pipe) and
serves framed commands over a ``multiprocessing`` pipe until told to
shut down:

- ``("run", ops, until, collect_events)`` — replay the new ops, drive
  the shard (to *until*, or dry), reply ``("ok", outcome)``.
  The outcome's ``records`` are *incremental*: instances already
  reported done are skipped, live ones are re-reported each round
  until they finish; ``events`` carry only this round's new events.
- ``("snapshot",)`` — reply a small liveness/population payload
  without driving anything.
- ``("shutdown",)`` — acknowledge and exit.

Any exception is shipped back as
``("error", type_name, message, traceback)`` instead of killing the
worker, so the parent can raise a useful
:class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.api.service import DecisionService
from repro.core.metrics import InstanceMetrics, MetricsSummary
from repro.core.serialize import config_from_dict, schema_from_dict
from repro.errors import ExecutionError

__all__ = [
    "ShardOutcome",
    "InstanceRecord",
    "worker_main",
]


@dataclass
class InstanceRecord:
    """The materialized result of one instance: values plus final metrics."""

    instance_id: str
    done: bool
    values: dict[str, object]
    metrics: InstanceMetrics


@dataclass
class ShardOutcome:
    """Everything a shard reports back for cross-shard aggregation."""

    shard: int
    records: list[InstanceRecord]
    summary: MetricsSummary
    total_units: int
    queries_completed: int
    queries_cancelled: int
    queries_failed: int
    mean_gmpl: float
    end_time: float
    backend_name: str
    time_unit: str | None
    events: list[object] | None
    #: pooled-dispatch counters (always shipped; zero under per-event)
    pooled_batches: int = 0
    pooled_events: int = 0
    #: repro.obs payloads (None unless config.observe armed the shard):
    #: the registry snapshot and the flight-recorder event tuples, merged
    #: by the sharded service exactly like the metrics summary.
    obs: dict | None = None
    trace: list[tuple] | None = None
    #: shard population totals — records are incremental under the
    #: persistent worker, so per-shard counts travel explicitly.
    instances: int = 0
    completed: int = 0

    @classmethod
    def idle(cls, shard: int, backend_name: str, collect_events: bool) -> "ShardOutcome":
        """The outcome of a shard that received no work."""
        return cls(
            shard=shard,
            records=[],
            summary=MetricsSummary.empty(),
            total_units=0,
            queries_completed=0,
            queries_cancelled=0,
            queries_failed=0,
            mean_gmpl=0.0,
            end_time=0.0,
            backend_name=backend_name,
            time_unit=None,
            events=[] if collect_events else None,
        )


def _replay_ops(service: DecisionService, ops: list[tuple]) -> None:
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, instance_id, source_values, at = op
            service.submit(source_values, at=at, instance_id=instance_id)
        elif kind == "closed":
            _, instance_ids, values_list, concurrency = op
            service.run_closed(
                len(instance_ids),
                concurrency=concurrency,
                values=lambda index: values_list[index],
                instance_ids=instance_ids,
                run=False,
            )
        else:  # pragma: no cover - guarded by the executor's op builders
            raise ExecutionError(f"unknown shard op {kind!r}")


def _shard_outcome(
    service: DecisionService,
    shard: int,
    records: list[InstanceRecord],
    events: list[object] | None,
) -> ShardOutcome:
    """Assemble an outcome from a live shard service."""
    database = service.database
    return ShardOutcome(
        shard=shard,
        records=records,
        summary=service.summary(),
        total_units=database.total_units,
        queries_completed=database.queries_completed,
        queries_cancelled=database.queries_cancelled,
        queries_failed=database.queries_failed,
        mean_gmpl=database.mean_gmpl(),
        end_time=service.now,
        backend_name=service.backend.name,
        time_unit=service.backend.time_unit,
        events=events,
        pooled_batches=service.engine.pooled_batches,
        pooled_events=service.engine.pooled_events,
        obs=service.observability() if service.obs.enabled else None,
        trace=service.obs.tracer.events() if service.obs.enabled else None,
        instances=len(service.handles),
        completed=sum(1 for handle in service.handles if handle.done),
    )


class _PersistentShard:
    """The live state one persistent worker keeps between rounds."""

    def __init__(self, shard: int, schema_data: dict, config_data: dict):
        schema = schema_from_dict(schema_data)
        config = config_from_dict(config_data).replace(shards=1, executor="serial")
        self.service = DecisionService(schema, config)
        self.shard = shard
        self.log = None
        self._events_sent = 0
        self._reported_done: set[str] = set()

    def round(
        self, ops: list[tuple], until: float | None, collect_events: bool
    ) -> ShardOutcome:
        if collect_events and self.log is None:
            # Late observer attach: collection starts this round; earlier
            # rounds' events are gone, matching the documented contract.
            self.log = self.service.attach_log()
        _replay_ops(self.service, ops)
        self.service.run(until)
        return self._outcome()

    def _outcome(self) -> ShardOutcome:
        service = self.service
        records = []
        for handle in service.handles:
            instance_id = handle.instance_id
            if instance_id in self._reported_done:
                continue
            done = handle.done
            records.append(
                InstanceRecord(
                    instance_id=instance_id,
                    done=done,
                    values=dict(handle.instance.value_map()),
                    metrics=handle.metrics,
                )
            )
            if done:
                self._reported_done.add(instance_id)
        events = None
        if self.log is not None:
            all_events = self.log.events
            events = list(all_events[self._events_sent:])
            self._events_sent = len(all_events)
        return _shard_outcome(service, self.shard, records, events)

    def snapshot(self) -> dict:
        service = self.service
        return {
            "shard": self.shard,
            "instances": len(service.handles),
            "completed": sum(1 for handle in service.handles if handle.done),
            "now": service.now,
        }


def worker_main(conn, shard: int, schema_data: dict, config_data: dict) -> None:
    """Entry point of one persistent shard worker process.

    Serves framed commands on *conn* until ``("shutdown",)`` arrives or
    the pipe closes (parent death: exit quietly, never hang).  The shard
    service is built lazily on the first command so construction errors
    travel back as error frames instead of a bare dead pipe.
    """
    state: _PersistentShard | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            if state is None:
                state = _PersistentShard(shard, schema_data, config_data)
            if kind == "run":
                _, ops, until, collect_events = message
                payload = state.round(ops, until, collect_events)
            elif kind == "snapshot":
                payload = state.snapshot()
            else:
                raise ExecutionError(f"unknown worker command {kind!r}")
            conn.send(("ok", payload))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(
                    ("error", type(error).__name__, str(error), traceback.format_exc())
                )
            except (BrokenPipeError, OSError):
                return
