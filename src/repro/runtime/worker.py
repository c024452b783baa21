"""Worker-side execution of one shard: the state both executors drive.

:class:`_PersistentShard` is one shard's live state: a single-shard
:class:`~repro.api.service.DecisionService` built from a live schema and
config, plus watermarks of what it has reported.  Both executors drive a
shard through it and nothing else — the serial executor calls it
in-process, the process executor through a ``multiprocessing`` pipe served
by :func:`worker_main`, which deserialises the schema and
:class:`~repro.api.config.ExecutionConfig` (the plain dicts of
:mod:`repro.core.serialize`) before building it.

Submissions travel as an ordered op list — each op either
``("submit", instance_id, source_values, at)`` or
``("closed", instance_ids, values_list, concurrency)`` — and a shard
answers framed commands:

- ``("run", ops, until, collect_events, release)`` — let go of the
  finished instances already reported (when *release* is set), replay
  the new ops, drive the shard (to *until*, or dry), reply
  ``("ok", outcome)``.  The :class:`ShardOutcome`'s ``records`` are
  *incremental*: instances already reported done are skipped, live ones
  are re-reported each round until they finish; ``events`` carry only
  this round's new events.
- ``("snapshot",)`` — reply the shard's held population and clock
  without driving anything.
- ``("shutdown",)`` — acknowledge and exit (the worker process only).

Over the pipe any exception is shipped back as
``("error", type_name, message, traceback)`` instead of killing the
worker, so the parent can raise a useful
:class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from repro.api.config import ExecutionConfig
from repro.api.service import DecisionService, service_counters
from repro.core.metrics import SERVICE_COUNTERS, InstanceMetrics
from repro.core.schema import DecisionFlowSchema
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
    """Everything a shard reports back for cross-shard aggregation.

    Nothing here is summarised: the parent folds the metrics of the
    records it receives as they finish, and a shard adds only its
    service-level integer counters (`SERVICE_COUNTERS`).
    """

    shard: int
    records: list[InstanceRecord]
    counters: dict[str, int]
    total_units: int
    queries_completed: int
    queries_cancelled: int
    queries_failed: int
    mean_gmpl: float
    end_time: float
    backend_name: str
    time_unit: str | None
    events: list[object] | None
    #: pooled-dispatch counters (always shipped)
    pooled_batches: int = 0
    pooled_events: int = 0
    #: repro.obs payloads (None unless config.observe armed the shard):
    #: the registry snapshot and the flight-recorder event tuples, merged
    #: by the sharded service exactly like the metrics summary.
    obs: dict | None = None
    trace: list[tuple] | None = None
    #: shard population totals, released instances included — records
    #: are incremental, so per-shard counts travel explicitly.
    instances: int = 0
    completed: int = 0

    @classmethod
    def idle(cls, shard: int, backend_name: str) -> "ShardOutcome":
        """The outcome of a shard that received no work."""
        return cls(
            shard=shard,
            records=[],
            counters=dict.fromkeys(SERVICE_COUNTERS, 0),
            total_units=0,
            queries_completed=0,
            queries_cancelled=0,
            queries_failed=0,
            mean_gmpl=0.0,
            end_time=0.0,
            backend_name=backend_name,
            time_unit=None,
            events=None,
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


class _PersistentShard:
    """The live state one shard keeps between rounds, on either executor."""

    def __init__(self, shard: int, schema: DecisionFlowSchema, config: ExecutionConfig):
        self.service = DecisionService(schema, config.replace(shards=1, executor="serial"))
        self.shard = shard
        self.log = None
        #: handles not yet reported done, in submission order
        self._unreported: list = []
        #: instances reported done, released ones included
        self._completed = 0

    def serve(self, message: tuple):
        """Answer one ``run`` or ``snapshot`` frame with its payload."""
        kind = message[0]
        if kind == "run":
            return self.round(*message[1:])
        if kind == "snapshot":
            return self.snapshot()
        raise ExecutionError(f"unknown worker command {kind!r}")

    def round(
        self,
        ops: list[tuple],
        until: float | None,
        collect_events: bool,
        release: bool = False,
    ) -> ShardOutcome:
        service = self.service
        if release:
            # Only instances reported done can have settled, so the
            # parent has their records already.
            service.release_completed()
        if collect_events and self.log is None:
            # Late observer attach: collection starts this round; earlier
            # rounds' events are gone, matching the documented contract.
            self.log = service.attach_log()
        held = len(service.handles)
        try:
            _replay_ops(service, ops)
            service.run(until)
        finally:
            # this round's submissions, closed-loop refills included, in
            # order — reported by this round or, if it raised, the next
            self._unreported += service.handles[held:]
        return self._outcome()

    def _outcome(self) -> ShardOutcome:
        """Report what is new: every handle not yet reported done, and
        the shard's counters.  A round costs what it ran, not what the
        shard has held."""
        service = self.service
        database = service.database
        records, running = [], []
        for handle in self._unreported:
            done = handle.done
            records.append(
                InstanceRecord(
                    instance_id=handle.instance_id,
                    done=done,
                    values=handle.value_map(),
                    metrics=handle.metrics,
                )
            )
            if not done:
                running.append(handle)
        self._completed += len(self._unreported) - len(running)
        self._unreported = running
        events = None
        if self.log is not None:
            events, self.log.events = self.log.events, []
        observed = service.obs.enabled
        return ShardOutcome(
            shard=self.shard,
            records=records,
            counters=service_counters(service.engine),
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
            obs=service.observability() if observed else None,
            trace=service.obs.tracer.events() if observed else None,
            instances=self._completed + len(running),
            completed=self._completed,
        )

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
    state is built lazily on the first command so construction errors
    travel back as error frames instead of a bare dead pipe.
    """
    state: _PersistentShard | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            if state is None:
                schema = schema_from_dict(schema_data)
                state = _PersistentShard(shard, schema, config_from_dict(config_data))
            conn.send(("ok", state.serve(message)))
        except BaseException as error:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(
                    ("error", type(error).__name__, str(error), traceback.format_exc())
                )
            except (BrokenPipeError, OSError):
                return
