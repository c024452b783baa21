"""Worker-side execution of one shard: the state both transports drive.

:class:`_PersistentShard` is one shard's live state: a single-shard
:class:`~repro.api.service.DecisionService` built from a live schema and
config, plus the handles it has not yet reported settled.  Both
transports drive a shard through it and nothing else — the serial
transport calls it in-process, the process transport through a
``multiprocessing`` pipe served by :func:`worker_main`, which
deserialises the schema and :class:`~repro.api.config.ExecutionConfig`
(the plain dicts of :mod:`repro.core.serialize`) before building it.

Submissions travel as an ordered op list — each op either
``("submit", instance_id, source_values, at)`` or
``("closed", instance_ids, values_list, concurrency)`` — and a shard
answers framed commands:

- ``("run", ops, until, collect_events)`` — replay the new ops, drive
  the shard (to *until*, or dry), reply ``("ok", outcome)``.  The
  :class:`ShardOutcome`'s ``records`` are *incremental*: an instance is
  reported every round until it is *settled* (done, with no query in
  flight — a straggler still books units on a done instance), and the
  round it settles is the last: the shard lets go of it in that round
  (its own ``release_completed()``), so the parent's record is the only
  copy.  ``events`` carry only this round's new events.
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
    "ShardStats",
    "InstanceRecord",
    "worker_main",
]

#: The integer counters a shard ships each round: the summary's service
#: counters plus the pooled-dispatch pair.
OUTCOME_COUNTERS = SERVICE_COUNTERS + ("pooled_batches", "pooled_events")


@dataclass(slots=True)
class InstanceRecord:
    """The materialized result of one instance: values plus metrics.

    *values* holds every attribute's value in ``schema.names`` order,
    :data:`~repro.core.conditions.UNRESOLVED` where it is not yet
    stable.  *settled* once done with nothing in flight: its metrics are
    final.  A fleet handle starts on a source-only record (its sources,
    everything else unresolved, no metrics) until its shard reports one.
    """

    instance_id: str
    done: bool
    settled: bool
    values: tuple
    metrics: InstanceMetrics | None


@dataclass(frozen=True)
class ShardStats:
    """One shard's aggregate state: population, work, and clock.

    *instances* and *completed* count released instances too; *held* is
    what the shard still holds: its unsettled instances, as a shard lets
    go of each in the round that reports it settled.
    """

    shard: int
    instances: int
    completed: int
    total_units: int
    queries_completed: int
    queries_cancelled: int
    queries_failed: int
    mean_gmpl: float
    end_time: float
    held: int


@dataclass
class ShardOutcome:
    """Everything a shard reports back for cross-shard aggregation.

    Nothing here is summarised: the parent folds the metrics of the
    records it receives as they settle, and a shard adds only its
    integer counters (:data:`OUTCOME_COUNTERS`) and its stats.
    """

    records: list[InstanceRecord]
    counters: dict[str, int]
    stats: ShardStats
    time_unit: str | None
    events: list[object] | None
    #: repro.obs payloads (None unless config.observe armed the shard):
    #: the registry snapshot and the flight-recorder event tuples, merged
    #: by the sharded service exactly like the metrics summary.
    obs: dict | None = None
    trace: list[tuple] | None = None

    @classmethod
    def idle(cls, shard: int) -> "ShardOutcome":
        """The outcome of a shard that received no work."""
        return cls(
            records=[],
            counters=dict.fromkeys(OUTCOME_COUNTERS, 0),
            stats=ShardStats(shard, 0, 0, 0, 0, 0, 0, 0.0, 0.0, 0),
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
        else:  # pragma: no cover - guarded by the fleet's op builders
            raise ExecutionError(f"unknown shard op {kind!r}")


class _PersistentShard:
    """The live state one shard keeps between rounds, on either transport."""

    def __init__(self, shard: int, schema: DecisionFlowSchema, config: ExecutionConfig):
        self.service = DecisionService(schema, config.replace(shards=1, executor="serial"))
        self.shard = shard
        self.log = None

    def serve(self, message: tuple) -> ShardOutcome:
        """Answer one ``run`` frame with its outcome."""
        if message[0] != "run":
            raise ExecutionError(f"unknown worker command {message[0]!r}")
        return self.round(*message[1:])

    def round(self, ops: list[tuple], until: float | None, collect_events: bool) -> ShardOutcome:
        service = self.service
        if collect_events and self.log is None:
            # Late observer attach: collection starts this round; earlier
            # rounds' events are gone, matching the documented contract.
            self.log = service.attach_log()
        # A round that raises reports nothing and releases nothing: the
        # next round reports its submissions (the handles still held).
        _replay_ops(service, ops)
        service.run(until)
        return self._outcome()

    def _outcome(self) -> ShardOutcome:
        """Report what can still change: every instance the shard holds
        (none it reported settled: it let go of them), then let go of the
        ones this report settles.  A round costs what it ran, not what
        the shard has served."""
        service = self.service
        database = service.database
        records = []
        for handle in service.handles:
            instance = handle.instance
            records.append(
                InstanceRecord(
                    handle.instance_id,
                    instance.done,
                    instance.done and not instance.inflight,
                    instance.value_tuple(),
                    instance.metrics,
                )
            )
        service.release_completed()
        held = service.handles
        released = service._released.count  # all it has reported settled
        events = None
        if self.log is not None:
            events, self.log.events = self.log.events, []
        observed = service.obs.enabled
        return ShardOutcome(
            records=records,
            counters={**service_counters(service.engine), **service.dispatch_stats()},
            stats=ShardStats(
                shard=self.shard,
                instances=released + len(held),
                completed=released + sum(handle.done for handle in held),
                total_units=database.total_units,
                queries_completed=database.queries_completed,
                queries_cancelled=database.queries_cancelled,
                queries_failed=database.queries_failed,
                mean_gmpl=database.mean_gmpl(),
                end_time=service.now,
                held=len(held),
            ),
            time_unit=service.backend.time_unit,
            events=events,
            obs=service.observability() if observed else None,
            trace=service.obs.tracer.events() if observed else None,
        )


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
