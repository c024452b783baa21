"""Shard executors: how a sharded service drives its fleet of shards.

A shard is driven one way only, through the worker's shard state
(:class:`~repro.runtime.worker._PersistentShard`) and its frames.
``ExecutionConfig.executor`` picks the transport that carries them:

* :class:`SerialExecutor` calls every shard's state in-process, one shard
  after another, on the calling thread — deterministic, and open to
  schemas and backend options :mod:`repro.core.serialize` cannot encode.
* :class:`ProcessExecutor` keeps one **long-lived worker process** per
  shard, spawned lazily at the first submission, and streams the same
  frames down a pipe to :func:`~repro.runtime.worker.worker_main`.

Everything above the transport is :class:`ShardExecutor` and exists once:
submissions buffer as plain-data ops, every ``run()`` sends each shard
its new ops in one ``run`` frame, and the incremental
:class:`~repro.runtime.worker.ShardOutcome` replies are the fleet's state
between rounds — shards idle between rounds, so the last outcomes are
exact and reading them costs no round-trip.  Shards share nothing: each
shard's query cache and memo tiers are its own, so cache state,
counters, and traces are bit-identical across executors.
"""

from __future__ import annotations

import multiprocessing
import sys
from typing import Iterable, Mapping, Sequence

from repro.api.config import EXECUTORS, ExecutionConfig
from repro.core.metrics import MetricsSummary, summarize
from repro.core.schema import DecisionFlowSchema
from repro.core.serialize import SerializationError, config_to_dict, schema_to_dict
from repro.errors import ExecutionError
from repro.runtime.worker import InstanceRecord, ShardOutcome, _PersistentShard, worker_main

__all__ = ["ShardExecutor", "SerialExecutor", "ProcessExecutor", "EXECUTOR_CLASSES"]


class ShardExecutor:
    """The fleet above its transport: ops, outcomes, records and release.

    A transport subclass supplies ``_start()`` (build one member per
    shard) and ``_exchange(messages)`` (deliver one frame to each member
    and return each reply, or the exception it raised, in shard order).
    """

    name: str

    def __init__(self, schema: DecisionFlowSchema, config: ExecutionConfig, shards: int):
        self.schema = schema
        self.config = config
        self.shards = shards
        #: each shard's last reply; idle until the first round
        self.outcomes = [ShardOutcome.idle(shard, config.backend) for shard in range(shards)]
        #: the fleet's finished instances, released ones included: each
        #: round folds in the records that finished in it, and only those
        self.finished = MetricsSummary.empty()
        self._ops: list[list[tuple]] = [[] for _ in range(shards)]
        self._records: dict[str, InstanceRecord] = {}
        self._release = False
        self._workers: list | None = None
        self._closed = False

    def _ensure_workers(self) -> list:
        if self._closed:
            raise ExecutionError(
                f"the {self.name} executor is closed; its shard workers have shut down"
            )
        if self._workers is None:
            self._workers = self._start()
        return self._workers

    @staticmethod
    def _raise_first(replies: list) -> list:
        """Raise the first error among one exchange's replies.  Every reply
        is read first, so none is left for a later exchange to misread."""
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return replies

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        shard: int,
        instance_id: str,
        source_values: Mapping[str, object] | None,
        at: float | None,
    ) -> None:
        # The engine's own submit-time checks, made here so a refused
        # submission raises now, on either executor, and fails only itself.
        floor = self.outcomes[shard].end_time
        if at is not None and at < floor:
            raise ExecutionError(
                f"instance {instance_id!r}: cannot start at past time {at} "
                f"(simulation clock is at {floor})"
            )
        self.schema.check_sources(source_values or {})
        self._ensure_workers()
        # a snapshot, as buffered: mutations after submit must not leak into the run
        snapshot = None if source_values is None else dict(source_values)
        self._ops[shard].append(("submit", instance_id, snapshot, at))

    def start_closed(
        self,
        shard: int,
        instance_ids: Sequence[str],
        values_list: Sequence[Mapping[str, object] | None],
        concurrency: int,
    ) -> None:
        self._ensure_workers()
        frozen = [None if v is None else dict(v) for v in values_list]
        self._ops[shard].append(("closed", list(instance_ids), frozen, concurrency))

    # -- driving -------------------------------------------------------------

    def run(self, until: float | None = None, collect_events: bool = False) -> None:
        if self._workers is None and not self._closed:
            return  # nothing was ever submitted: an idle fleet, nothing to start
        self._ensure_workers()
        ops, self._ops = self._ops, [[] for _ in range(self.shards)]
        release, self._release = self._release, False
        replies = self._exchange(
            [("run", shard_ops, until, collect_events, release) for shard_ops in ops]
        )
        finished = []
        for shard, reply in enumerate(replies):
            if not isinstance(reply, BaseException):
                self.outcomes[shard] = reply
                for record in reply.records:
                    self._records[record.instance_id] = record
                    if record.done:  # reported done once, in the round it finished
                        finished.append(record.metrics)
        if finished:
            self.finished = MetricsSummary.merge(self.finished, summarize(finished))
        self._raise_first(replies)

    def record_for(self, instance_id: str) -> InstanceRecord | None:
        return self._records.get(instance_id)

    def release(self, instance_ids: Iterable[str]) -> None:
        """Forget these finished records; each shard lets go of its own
        instances at the start of the next round (no extra round-trip)."""
        for instance_id in instance_ids:
            del self._records[instance_id]
        self._release = True

    def snapshots(self) -> list[dict]:
        """Each shard's held population and clock (one frame per shard)."""
        self._ensure_workers()
        return self._raise_first(self._exchange([("snapshot",)] * self.shards))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop driving the fleet (idempotent); its last outcomes stay readable."""
        self._closed = True

    def worker_health(self) -> dict:
        """Liveness of the fleet, for daemon ``/healthz``."""
        return {
            "executor": self.name,
            "spawned": False,
            "alive": not self._closed,
            "workers": [],
        }


class SerialExecutor(ShardExecutor):
    """Every shard's state lives in-process; a round calls them in turn."""

    name = "serial"

    def _start(self) -> list[_PersistentShard]:
        return [
            _PersistentShard(shard, self.schema, self.config)
            for shard in range(self.shards)
        ]

    def _exchange(self, messages: list[tuple]) -> list:
        replies = []
        for state, message in zip(self._workers, messages):
            try:
                replies.append(state.serve(message))
            except Exception as error:  # the other shards still run their round
                replies.append(error)
        return replies


class _WorkerLink:
    """One persistent shard worker: its process and the parent pipe end."""

    __slots__ = ("shard", "process", "conn")

    def __init__(self, shard: int, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn


class ProcessExecutor(ShardExecutor):
    """One long-lived worker process per shard, streaming frames over pipes.

    Workers spawn lazily at the first submission (after the workload
    proves serializable) and persist across rounds: each ``run()`` sends
    every worker its frame, lets the fleet execute concurrently, then
    reads every reply in shard order.

    A dead worker surfaces as a named :class:`ExecutionError` on the
    next send or receive (a closed pipe raises immediately — no hang).
    ``close()`` shuts the fleet down; it runs automatically on garbage
    collection and the workers are daemonic besides, so leaked fleets
    die with the parent.
    """

    name = "process"

    def _start(self) -> list[_WorkerLink]:
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
        return workers

    def _worker_died(self, link: _WorkerLink, cause: BaseException) -> ExecutionError:
        exitcode = link.process.exitcode
        error = ExecutionError(
            f"shard {link.shard} worker (pid {link.process.pid}) died"
            f"{f' with exit code {exitcode}' if exitcode is not None else ''}; "
            "the persistent process executor cannot recover its shard state — "
            "close() this service and rebuild it"
        )
        error.__cause__ = cause
        return error

    def _exchange(self, messages: list[tuple]) -> list:
        # Send every shard its frame first, then read in shard order: the
        # whole fleet executes concurrently and the parent blocks only on
        # the slowest shard.
        replies: list = []
        for link, message in zip(self._workers, messages):
            try:
                link.conn.send(message)
                replies.append(None)
            except (BrokenPipeError, OSError) as error:
                replies.append(self._worker_died(link, error))
        return [
            self._recv(link) if reply is None else reply
            for link, reply in zip(self._workers, replies)
        ]

    def _recv(self, link: _WorkerLink):
        try:
            frame = link.conn.recv()
        except (EOFError, OSError) as error:
            return self._worker_died(link, error)
        if frame[0] == "error":
            _, type_name, message, trace = frame
            return ExecutionError(
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
        """Liveness of the persistent fleet, for daemon ``/healthz``.

        Safe to call while another thread drives or closes the fleet: it
        reads the worker list once and only asks each process if it lives.
        """
        links = self._workers
        if links is None:
            return super().worker_health()
        workers = [
            {
                "shard": link.shard,
                "pid": link.process.pid,
                "alive": link.process.is_alive(),
            }
            for link in links
        ]
        return {
            "executor": self.name,
            "spawned": True,
            "alive": all(entry["alive"] for entry in workers),
            "workers": workers,
        }


#: Executor implementations behind ``ExecutionConfig.executor``; kept in
#: lockstep with the validation list in :data:`repro.api.config.EXECUTORS`
#: so a config that validates always resolves here.
EXECUTOR_CLASSES = {"serial": SerialExecutor, "process": ProcessExecutor}

if set(EXECUTOR_CLASSES) != set(EXECUTORS):  # pragma: no cover
    raise AssertionError(
        f"executor registry drift: config declares {EXECUTORS}, "
        f"runtime implements {tuple(EXECUTOR_CLASSES)}"
    )
