"""Shard executors: how a sharded service drives its fleet of shards.

Two implementations behind one duck-typed interface, selected by
``ExecutionConfig.executor``:

* :class:`SerialExecutor` — every shard is a live, in-process
  :class:`~repro.api.service.DecisionService` driven on the calling
  thread, one shard after another.  Deterministic, incremental (submit /
  run / submit again), and the reference the differential suite locks the
  process executor against.
* :class:`ProcessExecutor` — a fleet of **long-lived shard workers**:
  one process per shard, spawned once (lazily, at the first submission)
  and kept alive across rounds.  Submissions buffer as plain-data ops;
  every ``run()`` streams each shard's new ops down its pipe, the
  workers drive their live services concurrently, and incremental
  :class:`~repro.runtime.worker.ShardOutcome` frames come back for
  merging.  Fully incremental — submit → run → submit again matches the
  serial executor's contract — and ``run(until=...)`` is supported.

Shards share nothing: each shard's query cache and memo tiers are its
own, so cache state, counters, and traces are bit-identical across
executors.

Both present the same per-shard operations to
:class:`~repro.runtime.sharding.ShardedDecisionService`; the service owns
routing, id allocation, and cross-shard aggregation.
"""

from __future__ import annotations

import multiprocessing
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.api.config import EXECUTORS, ExecutionConfig
from repro.api.service import DecisionService, InstanceHandle
from repro.core.metrics import MetricsSummary
from repro.core.schema import DecisionFlowSchema
from repro.core.serialize import SerializationError, config_to_dict, schema_to_dict
from repro.errors import ExecutionError
from repro.runtime.worker import InstanceRecord, ShardOutcome, worker_main

__all__ = ["ShardStats", "SerialExecutor", "ProcessExecutor", "EXECUTOR_CLASSES"]


@dataclass(frozen=True)
class ShardStats:
    """One shard's aggregate state: population, work, and clock."""

    shard: int
    instances: int
    completed: int
    total_units: int
    queries_completed: int
    queries_cancelled: int
    queries_failed: int
    mean_gmpl: float
    end_time: float


def _shard_config(config: ExecutionConfig) -> ExecutionConfig:
    """The per-shard view of a sharded config: one shard, driven in-place."""
    return config.replace(shards=1, executor="serial")


class SerialExecutor:
    """All shards live in-process; ``run`` drives them one after another."""

    name = "serial"
    live = True

    def __init__(self, schema: DecisionFlowSchema, config: ExecutionConfig, shards: int):
        shard_config = _shard_config(config)
        self.services = [DecisionService(schema, shard_config) for _ in range(shards)]

    def submit(
        self,
        shard: int,
        instance_id: str,
        source_values: Mapping[str, object] | None,
        at: float | None,
    ) -> InstanceHandle:
        return self.services[shard].submit(
            source_values, at=at, instance_id=instance_id
        )

    def start_closed(
        self,
        shard: int,
        instance_ids: Sequence[str],
        values_list: Sequence[Mapping[str, object] | None],
        concurrency: int,
    ) -> list[InstanceHandle]:
        return self.services[shard].run_closed(
            len(instance_ids),
            concurrency=concurrency,
            values=lambda index: values_list[index],
            instance_ids=instance_ids,
            run=False,
        )

    def run(self, until: float | None = None, collect_events: bool = False) -> None:
        for service in self.services:
            service.run(until)

    def record_for(self, instance_id: str) -> InstanceRecord | None:
        return None  # serial handles are live; nothing to materialize

    def round_events(self) -> list[list]:
        return [[] for _ in self.services]  # live delivery; nothing to replay

    def close(self) -> None:
        return None  # nothing external to tear down

    def worker_health(self) -> dict:
        return {
            "executor": self.name,
            "spawned": False,
            "alive": True,
            "workers": [],
        }

    # -- observation ---------------------------------------------------------

    _SUBSCRIBERS = {
        "launch": "on_launch",
        "query_done": "on_query_done",
        "complete": "on_instance_complete",
    }

    def subscribe(self, kind: str, handler: Callable) -> None:
        for service in self.services:
            getattr(service, self._SUBSCRIBERS[kind])(handler)

    def attach_sink(self, sink: Callable[[int, object], None]) -> None:
        """Feed every shard's typed events into ``sink(shard, event)``."""
        for index, service in enumerate(self.services):
            recorder = self._recorder(index, sink)
            service.on_launch(recorder)
            service.on_query_done(recorder)
            service.on_instance_complete(recorder)

    @staticmethod
    def _recorder(shard: int, sink: Callable[[int, object], None]) -> Callable:
        return lambda event: sink(shard, event)

    # -- aggregation ---------------------------------------------------------

    @property
    def now(self) -> float:
        return max(service.now for service in self.services)

    def shard_summaries(self) -> list[MetricsSummary]:
        return [service.summary() for service in self.services]

    def shard_stats(self) -> list[ShardStats]:
        return [
            ShardStats(
                shard=index,
                instances=len(service.handles),
                completed=len(service.completed),
                total_units=service.database.total_units,
                queries_completed=service.database.queries_completed,
                queries_cancelled=service.database.queries_cancelled,
                queries_failed=service.database.queries_failed,
                mean_gmpl=service.database.mean_gmpl(),
                end_time=service.now,
            )
            for index, service in enumerate(self.services)
        ]

    def time_unit(self) -> str | None:
        return self.services[0].backend.time_unit if self.services else None

    def dispatch_stats(self) -> list[dict]:
        return [service.dispatch_stats() for service in self.services]

    def obs_snapshots(self) -> list[dict]:
        return [service.observability() for service in self.services]

    def trace_groups(self) -> list[list]:
        return [service.obs.tracer.events() for service in self.services]


class _WorkerLink:
    """One persistent shard worker: its process and the parent pipe end."""

    __slots__ = ("shard", "process", "conn")

    def __init__(self, shard: int, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn


class ProcessExecutor:
    """One long-lived worker process per shard, streaming ops over pipes.

    Workers spawn lazily at the first submission (after the workload
    proves serializable) and persist across rounds: each ``run()`` sends
    every worker its buffered ops, lets the fleet execute concurrently,
    then drains one incremental
    :class:`~repro.runtime.worker.ShardOutcome` per shard.  Aggregate
    reads between rounds come from the cached outcomes — workers idle
    between rounds, so the cache is exact and costs no IPC.

    A dead worker surfaces as a named :class:`ExecutionError` on the
    next send or receive (a closed pipe raises immediately — no hang).
    ``close()`` shuts the fleet down; it runs automatically on garbage
    collection and the workers are daemonic besides, so leaked fleets
    die with the parent.
    """

    name = "process"
    live = False

    def __init__(self, schema: DecisionFlowSchema, config: ExecutionConfig, shards: int):
        self.schema = schema
        self.config = config
        self.shards = shards
        self._ops: list[list[tuple]] = [[] for _ in range(shards)]
        self._outcomes: list[ShardOutcome] | None = None
        self._records: dict[str, InstanceRecord] = {}
        self._round_events: list[list] = [[] for _ in range(shards)]
        self._workers: list[_WorkerLink] | None = None
        self._closed = False
        #: completed executor rounds (each run() that reached the fleet)
        self.rounds = 0
        #: last (mapping, frozen copy) pair: sweeps submit one shared
        #: mapping thousands of times, and reusing its frozen copy keeps
        #: the buffered ops — and the pickled op list, via the pickler's
        #: memo — O(1) instead of O(n) in the mapping size.
        self._freeze_cache: tuple[object, dict | None] = (None, None)

    # -- worker lifecycle ----------------------------------------------------

    def _ensure_workers(self) -> list[_WorkerLink]:
        if self._closed:
            raise ExecutionError(
                "the process executor is closed; its shard workers have shut down"
            )
        if self._workers is not None:
            return self._workers
        try:
            schema_data = schema_to_dict(self.schema)
            config_data = config_to_dict(self.config)
        except SerializationError as error:
            raise ExecutionError(
                "the process executor ships work to its shard workers via "
                f"core.serialize and cannot encode this workload: {error}"
            ) from error
        # Fork skips re-import in the workers, but only Linux treats it as
        # safe; everywhere else (macOS made spawn the default because fork
        # is not) the platform default start method is the right one, and
        # every frame on the pipe is fully picklable either way.
        if sys.platform == "linux":
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - exercised on non-Linux CI hosts
            context = multiprocessing.get_context()
        workers = []
        for shard in range(self.shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=worker_main,
                args=(child_conn, shard, schema_data, config_data),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append(_WorkerLink(shard, process, parent_conn))
        self._workers = workers
        return workers

    def _worker_died(self, link: _WorkerLink) -> ExecutionError:
        exitcode = link.process.exitcode
        return ExecutionError(
            f"shard {link.shard} worker (pid {link.process.pid}) died"
            f"{f' with exit code {exitcode}' if exitcode is not None else ''}; "
            "the persistent process executor cannot recover its shard state — "
            "close() this service and rebuild it"
        )

    def _send(self, link: _WorkerLink, message: tuple) -> None:
        try:
            link.conn.send(message)
        except (BrokenPipeError, OSError) as error:
            raise self._worker_died(link) from error

    def _recv(self, link: _WorkerLink):
        try:
            frame = link.conn.recv()
        except (EOFError, OSError) as error:
            raise self._worker_died(link) from error
        if frame[0] == "error":
            _, type_name, message, trace = frame
            raise ExecutionError(
                f"shard {link.shard} worker failed: {type_name}: {message}\n"
                f"--- worker traceback ---\n{trace}"
            )
        return frame[1]

    def close(self) -> None:
        """Shut the worker fleet down (idempotent; runs again on gc)."""
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, None
        if not workers:
            return
        for link in workers:
            try:
                link.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for link in workers:
            try:
                if link.conn.poll(2.0):
                    link.conn.recv()
            except (EOFError, OSError):
                pass
            link.conn.close()
            link.process.join(timeout=2.0)
            if link.process.is_alive():  # pragma: no cover - stuck worker
                link.process.terminate()
                link.process.join(timeout=1.0)

    def __del__(self):  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass

    def worker_health(self) -> dict:
        """Liveness of the persistent fleet, for daemon ``/healthz``."""
        if self._workers is None:
            return {
                "executor": self.name,
                "spawned": False,
                "alive": not self._closed,
                "workers": [],
            }
        workers = [
            {
                "shard": link.shard,
                "pid": link.process.pid,
                "alive": link.process.is_alive(),
            }
            for link in self._workers
        ]
        return {
            "executor": self.name,
            "spawned": True,
            "alive": all(entry["alive"] for entry in workers),
            "workers": workers,
        }

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        shard: int,
        instance_id: str,
        source_values: Mapping[str, object] | None,
        at: float | None,
    ) -> None:
        floor = self._floor(shard)
        if at is not None and at < floor:
            # Mirror the engine's own submit-time check so the error
            # surfaces here, exactly as it does on the serial executor,
            # instead of as a worker error frame at the next run().
            raise ExecutionError(
                f"instance {instance_id!r}: cannot start at past time {at} "
                f"(simulation clock is at {floor})"
            )
        self._ensure_workers()
        self._ops[shard].append(("submit", instance_id, self._frozen(source_values), at))
        return None

    def _floor(self, shard: int) -> float:
        """One shard's earliest admissible start time: its clock position.

        Shard clocks only move during rounds; between rounds the cached
        outcomes are exact, so the last outcome's ``end_time`` *is* the
        worker's live ``sim.now``.
        """
        if self._outcomes is None:
            return 0.0
        return self._outcomes[shard].end_time

    def _frozen(self, source_values: Mapping[str, object] | None) -> dict | None:
        """A snapshot of *source_values* as buffered (mutations after
        submit must not leak into the run), shared across repeat submits
        of the same mapping object."""
        if source_values is None:
            return None
        cached_key, cached_copy = self._freeze_cache
        if source_values is cached_key and cached_copy == source_values:
            return cached_copy
        frozen = dict(source_values)
        self._freeze_cache = (source_values, frozen)
        return frozen

    def start_closed(
        self,
        shard: int,
        instance_ids: Sequence[str],
        values_list: Sequence[Mapping[str, object] | None],
        concurrency: int,
    ) -> None:
        self._ensure_workers()
        frozen = [self._frozen(v) for v in values_list]
        self._ops[shard].append(("closed", list(instance_ids), frozen, concurrency))
        return None

    # -- driving -------------------------------------------------------------

    def run(self, until: float | None = None, collect_events: bool = False) -> None:
        if self._closed:
            raise ExecutionError(
                "the process executor is closed; its shard workers have shut down"
            )
        if self._workers is None:
            # Nothing was ever submitted: an idle fleet, no spawn needed.
            if self._outcomes is None:
                self._outcomes = [
                    ShardOutcome.idle(shard, self.config.backend, collect_events)
                    for shard in range(self.shards)
                ]
            self._round_events = [[] for _ in range(self.shards)]
            return
        ops, self._ops = self._ops, [[] for _ in range(self.shards)]
        # Send every shard's round first, then drain in shard order: the
        # whole fleet executes concurrently and the parent blocks only on
        # the slowest shard.
        for link in self._workers:
            self._send(link, ("run", ops[link.shard], until, collect_events))
        outcomes: list[ShardOutcome] = [self._recv(link) for link in self._workers]
        self._outcomes = outcomes
        self._round_events = [outcome.events or [] for outcome in outcomes]
        for outcome in outcomes:
            for record in outcome.records:
                self._records[record.instance_id] = record
        self.rounds += 1

    def record_for(self, instance_id: str) -> InstanceRecord | None:
        return self._records.get(instance_id)

    def round_events(self) -> list[list]:
        """Per-shard events newly collected by the last round."""
        return self._round_events

    def snapshots(self) -> list[dict]:
        """Live worker snapshots (one pipe round-trip per shard)."""
        workers = self._ensure_workers()
        for link in workers:
            self._send(link, ("snapshot",))
        return [self._recv(link) for link in workers]

    # -- aggregation ---------------------------------------------------------

    @property
    def outcomes(self) -> list[ShardOutcome]:
        if self._outcomes is None:
            raise ExecutionError("the process executor has not run yet")
        return self._outcomes

    @property
    def now(self) -> float:
        if self._outcomes is None:
            return 0.0
        return max((o.end_time for o in self._outcomes), default=0.0)

    def shard_summaries(self) -> list[MetricsSummary]:
        if self._outcomes is None:
            return [MetricsSummary.empty() for _ in range(self.shards)]
        return [outcome.summary for outcome in self._outcomes]

    def shard_stats(self) -> list[ShardStats]:
        if self._outcomes is None:
            return [
                ShardStats(
                    shard=shard,
                    instances=self._count_ops(self._ops[shard]),
                    completed=0,
                    total_units=0,
                    queries_completed=0,
                    queries_cancelled=0,
                    queries_failed=0,
                    mean_gmpl=0.0,
                    end_time=0.0,
                )
                for shard in range(self.shards)
            ]
        return [
            ShardStats(
                shard=outcome.shard,
                instances=outcome.instances,
                completed=outcome.completed,
                total_units=outcome.total_units,
                queries_completed=outcome.queries_completed,
                queries_cancelled=outcome.queries_cancelled,
                queries_failed=outcome.queries_failed,
                mean_gmpl=outcome.mean_gmpl,
                end_time=outcome.end_time,
            )
            for outcome in self._outcomes
        ]

    @staticmethod
    def _count_ops(ops: list[tuple]) -> int:
        return sum(len(op[1]) if op[0] == "closed" else 1 for op in ops)

    def time_unit(self) -> str | None:
        if self._outcomes is None:
            return None
        for outcome in self._outcomes:
            if outcome.time_unit is not None:
                return outcome.time_unit
        return None

    def dispatch_stats(self) -> list[dict]:
        if self._outcomes is None:
            return [
                {"pooled_batches": 0, "pooled_events": 0} for _ in range(self.shards)
            ]
        return [
            {
                "pooled_batches": outcome.pooled_batches,
                "pooled_events": outcome.pooled_events,
            }
            for outcome in self._outcomes
        ]

    def obs_snapshots(self) -> list[dict]:
        if self._outcomes is None:
            return [{} for _ in range(self.shards)]
        return [outcome.obs or {} for outcome in self._outcomes]

    def trace_groups(self) -> list[list]:
        if self._outcomes is None:
            return [[] for _ in range(self.shards)]
        return [outcome.trace or [] for outcome in self._outcomes]


#: Executor implementations behind ``ExecutionConfig.executor``; kept in
#: lockstep with the validation list in :data:`repro.api.config.EXECUTORS`
#: so a config that validates always resolves here.
EXECUTOR_CLASSES = {"serial": SerialExecutor, "process": ProcessExecutor}

if set(EXECUTOR_CLASSES) != set(EXECUTORS):  # pragma: no cover
    raise AssertionError(
        f"executor registry drift: config declares {EXECUTORS}, "
        f"runtime implements {tuple(EXECUTOR_CLASSES)}"
    )
