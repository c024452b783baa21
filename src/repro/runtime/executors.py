"""Shard transports: how a sharded service reaches its shards.

A shard is driven one way only, through the worker's shard state
(:class:`~repro.runtime.worker._PersistentShard`) and its frames; the
fleet above it — ops, outcomes, handles, release — is
:class:`~repro.runtime.sharding.ShardedDecisionService` alone.
``ExecutionConfig.executor`` picks the transport that carries the
frames, and a transport does four things: build its members (one per
shard, at construction), ``exchange`` one frame per shard, ``close``,
and report each member's ``health``.

* :class:`SerialExecutor` calls every shard's state in-process, one shard
  after another, on the calling thread — deterministic, and open to
  schemas and backend options :mod:`repro.core.serialize` cannot encode.
* :class:`ProcessExecutor` keeps one **long-lived worker process** per
  shard and streams the same frames down a pipe to
  :func:`~repro.runtime.worker.worker_main`.

Shards share nothing: each shard's query cache and memo tiers are its
own, so cache state, counters, and traces are bit-identical across
transports.
"""

from __future__ import annotations

import multiprocessing
import sys

from repro.api.config import EXECUTORS, ExecutionConfig
from repro.core.schema import DecisionFlowSchema
from repro.core.serialize import SerializationError, config_to_dict, schema_to_dict
from repro.errors import ExecutionError
from repro.runtime.worker import _PersistentShard, worker_main

__all__ = ["SerialExecutor", "ProcessExecutor", "EXECUTOR_CLASSES"]


class SerialExecutor:
    """Every shard's state lives in-process; a frame calls them in turn."""

    def __init__(self, schema: DecisionFlowSchema, config: ExecutionConfig, shards: int):
        self._states = [_PersistentShard(shard, schema, config) for shard in range(shards)]

    def exchange(self, messages: list[tuple]) -> list:
        """Each shard's reply to its frame, or the exception it raised."""
        replies = []
        for state, message in zip(self._states, messages):
            try:
                replies.append(state.serve(message))
            except Exception as error:  # the other shards still run their round
                replies.append(error)
        return replies

    def close(self) -> None:
        """Nothing to shut down: the shard states die with the service."""

    def health(self) -> list[dict]:
        """No worker processes to report."""
        return []


class _WorkerLink:
    """One persistent shard worker: its process and the parent pipe end."""

    __slots__ = ("shard", "process", "conn")

    def __init__(self, shard: int, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn


class ProcessExecutor:
    """One long-lived worker process per shard, streaming frames over pipes.

    Workers spawn at construction (once the workload proves
    serializable) and persist across rounds: each ``exchange`` sends
    every worker its frame, lets the fleet execute concurrently, then
    reads every reply in shard order.

    A dead worker surfaces as a named :class:`ExecutionError` on the
    next send or receive (a closed pipe raises immediately — no hang).
    ``close()`` shuts the fleet down; it runs automatically on garbage
    collection and the workers are daemonic besides, so leaked fleets
    die with the parent.
    """

    def __init__(self, schema: DecisionFlowSchema, config: ExecutionConfig, shards: int):
        self._links: list[_WorkerLink] = []
        try:
            schema_data = schema_to_dict(schema)
            config_data = config_to_dict(config)
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
        for shard in range(shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=worker_main,
                args=(child_conn, shard, schema_data, config_data),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._links.append(_WorkerLink(shard, process, parent_conn))

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

    def exchange(self, messages: list[tuple]) -> list:
        """Each shard's reply to its frame, or the error it shipped."""
        # Send every shard its frame first, then read in shard order: the
        # whole fleet executes concurrently and the parent blocks only on
        # the slowest shard.
        replies: list = []
        for link, message in zip(self._links, messages):
            try:
                link.conn.send(message)
                replies.append(None)
            except (BrokenPipeError, OSError) as error:
                replies.append(self._worker_died(link, error))
        return [
            self._recv(link) if reply is None else reply
            for link, reply in zip(self._links, replies)
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
        links, self._links = self._links, []
        for link in links:
            try:
                link.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for link in links:
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

    def health(self) -> list[dict]:
        """Each worker's shard, pid and liveness.

        Safe to call while another thread drives or closes the fleet: it
        reads the worker list once and only asks each process if it lives.
        """
        return [
            {"shard": link.shard, "pid": link.process.pid, "alive": link.process.is_alive()}
            for link in self._links
        ]


#: Transport implementations behind ``ExecutionConfig.executor``; kept in
#: lockstep with the validation list in :data:`repro.api.config.EXECUTORS`
#: so a config that validates always resolves here.
EXECUTOR_CLASSES = {"serial": SerialExecutor, "process": ProcessExecutor}

if set(EXECUTOR_CLASSES) != set(EXECUTORS):  # pragma: no cover
    raise AssertionError(
        f"executor registry drift: config declares {EXECUTORS}, "
        f"runtime implements {tuple(EXECUTOR_CLASSES)}"
    )
