"""The paper's execution algorithm, one event at a time (Figure 2), kept as
the oracle the product engine (:mod:`repro.core.batch_engine`) is held to.

:class:`Engine` runs name-keyed instance graphs, one start event per
arrival and one round per event, with no instrumentation.  It shares no
execution code with the product — only the pure helpers of
:mod:`repro.core.engine` and ``core/state`` — so the differential suites
check the product's shortcuts (arrival runs, hit waves, memo tiers,
cohorts, pooled drains) against it instead of running them on both sides.

The engine orchestrates, per the paper's execution algorithm (section 3):

1. **Evaluation phase** — fold newly arrived values into the snapshot and
   propagate consequences (delegated to :class:`InstanceRuntime.drain`);
   exit the instance when every target attribute is stable.
2. **Prequalifying phase** — build the candidate pool (options P/N, S/C).
3. **Scheduling phase** — pick candidates by the heuristic (E/C) under
   the %Permitted parallelism bound and dispatch their queries to the
   database server.

The engine is multi-instance: any number of flow instances share one
database server (and its simulated clock), which is how the bounded-
resource/throughput experiments of section 5 are run.

On instance completion the engine *halts immediately* (as the paper's
semantics allows once all targets are stable): in-flight queries are
cancelled at their next unit boundary and the units already processed
count toward Work.  Pass ``halt_policy="drain"`` to let them run to
completion instead (the difference is examined by an ablation benchmark).

Two extensions beyond the paper's experiments:

* **failure tolerance** — a query the database reports as *failed* still
  stabilizes its attribute, with an :class:`~repro.nulls.ExceptionValue`;
  downstream tasks and conditions continue with incomplete information
  ("e.g., if a database is down").
* **result sharing** (``query_cache``) — concurrent instances with
  overlapping data share query results through a
  :class:`~repro.simdb.database.QueryShareCache` (the paper's §6
  future-work direction): identical queries are answered from its memo
  or coalesced onto the in-flight duplicate, and every unit the database
  runs is booked to an instance's Work.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from repro.core.engine import EngineObserver, check_start_time, claim_instance_id
from repro.core.metrics import InstanceMetrics
from repro.core.schema import DecisionFlowSchema
from repro.core.state import Enablement
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.nulls import ExceptionValue
from repro.obs import Observability
from repro.oracle.instance import InstanceRuntime
from repro.oracle.scheduler import select_for_launch
from repro.simdb.database import DatabaseServer, QueryShareCache
from repro.values import share_key

__all__ = ["Engine"]


class Engine:
    """Executes decision-flow instances against a database server.

    *obs* is accepted for the product engine's signature and refused when
    armed: the oracle is not instrumented.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        strategy: Strategy,
        database: DatabaseServer,
        halt_policy: str = "cancel",
        observer: EngineObserver | None = None,
        query_cache: QueryShareCache | bool | None = None,
        obs: Observability | None = None,
    ):
        if halt_policy not in ("cancel", "drain"):
            raise ValueError(f"halt_policy must be 'cancel' or 'drain', got {halt_policy!r}")
        if obs is not None and obs.enabled:
            raise ValueError("the reference engine is not instrumented: use engine='batched'")
        self.schema = schema
        self.strategy = strategy
        self.database = database
        self.sim = database.sim
        self.halt_policy = halt_policy
        self.observer = observer
        if query_cache is True:
            query_cache = QueryShareCache(database)
        self.query_cache: QueryShareCache | None = query_cache or None
        self.instances: list[InstanceRuntime] = []
        #: the ids of the instances held, claimed until released
        self._instance_ids: set[str] = set()
        self._id_next = 1  # the number the next generated id tries first
        self._on_complete: dict[str, Callable[[InstanceMetrics], None]] = {}

    # -- public API -----------------------------------------------------------

    def submit_instance(
        self,
        source_values: Mapping[str, object] | None = None,
        at: float | None = None,
        instance_id: str | None = None,
        on_complete: Callable[[InstanceMetrics], None] | None = None,
    ) -> InstanceRuntime:
        """Create an instance and schedule its start event (default: now).

        Nothing is claimed until the submission is accepted: a refused one
        (a past or non-finite start, sources the schema misses) leaves its
        id — explicit or the generated one it would have got — free.
        """
        sim = self.sim
        start_time = sim.now if at is None else at
        # A generated id is drawn from a copy of the counter, which moves
        # once nothing can refuse the submission any more.
        drawn = itertools.count(self._id_next) if instance_id is None else None
        instance_id = claim_instance_id(instance_id, self.schema.name, drawn, self._instance_ids)
        check_start_time(instance_id, start_time, sim.now)
        instance = InstanceRuntime(
            self.schema, self.strategy, instance_id, source_values or {}, start_time
        )
        if drawn is not None:
            self._id_next = next(drawn)
        self._instance_ids.add(instance_id)
        self.instances.append(instance)
        if on_complete is not None:
            self._on_complete[instance_id] = on_complete
        sim.schedule_at(start_time, lambda: self._start(instance))
        return instance

    def release_settled(self) -> list[InstanceRuntime]:
        """Stop listing the instances nothing can change any more.

        An instance is settled once it is done *and* has no query in
        flight (a straggler still books its units on the finished
        instance).  Settled instances leave :attr:`instances` and are
        returned; whoever still references one keeps a fully readable
        object.  Their ids leave the claimed set with them (see
        :func:`claim_instance_id`): a later submission may reuse one.
        """
        settled = [i for i in self.instances if i.done and not i.inflight]
        if settled:
            self.instances = [i for i in self.instances if not i.done or i.inflight]
            # rebuilt, not emptied: a set's table never shrinks on discard
            self._instance_ids = {i.instance_id for i in self.instances}
        return settled

    def run_single(self, source_values: Mapping[str, object] | None = None) -> InstanceMetrics:
        """Convenience: execute one instance to completion and return metrics."""
        instance = self.submit_instance(source_values)
        self.sim.run()
        if not instance.done:
            unstable = [t for t in self.schema.target_names if not instance.cells[t].stable]
            raise ExecutionError(
                f"instance {instance.instance_id} stalled; unstable targets: {unstable}"
            )
        return instance.metrics

    # -- internal event handlers -----------------------------------------------

    def _start(self, instance: InstanceRuntime) -> None:
        instance.start()
        if self.observer is not None:
            self.observer.on_instance_start(instance)
        self._advance(instance)

    def _advance(self, instance: InstanceRuntime) -> None:
        """One scheduling round: drain, finish-check, cancel, select, launch."""
        instance.drain()
        if instance.targets_stable():
            self._finish(instance)
            return
        if self.strategy.cancel_unneeded and instance.needed is not None:
            for name, handle in list(instance.inflight.items()):
                if instance.needed.is_unneeded(name) and not self._has_waiters(handle):
                    handle.cancel()
        for name in select_for_launch(instance):
            self._launch(instance, name)

    def _has_waiters(self, handle: object) -> bool:
        # Cancelling a coalesced primary would strand its followers
        # behind a full-cost reissue; keep it running instead.
        return self.query_cache is not None and self.query_cache.waiter_count(handle) > 0

    def _launch(self, instance: InstanceRuntime, name: str) -> None:
        task = self.schema[name].task
        # Inputs are stable by the READY invariant, and the paper's fixed-data
        # assumption makes the result independent of *when* the query runs —
        # this is what makes speculative execution (and the query cache) safe.
        values = instance.stable_values(task.inputs)
        speculative = instance.cells[name].enablement is Enablement.UNKNOWN
        instance.launched.add(name)
        value = task.compute(values)
        instance.metrics.queries_launched += 1
        if speculative:
            instance.speculative_launch.add(name)
            instance.metrics.speculative_launched += 1
        if self.observer is not None:
            self.observer.on_launch(instance, name, speculative=speculative)

        def done(processed: int, completed: bool) -> None:
            self._query_done(instance, name, value, processed, completed)

        # Through the query cache when configured; a query with a refused
        # input (no key) goes to the database uncached.
        base = share_key(task.name, values) if self.query_cache is not None else None
        if base is None:
            instance.inflight[name] = self.database.submit(task.cost, done)
        else:
            instance.inflight[name] = self.query_cache.submit(base + (task.cost,), task.cost, done)

    def _query_done(
        self,
        instance: InstanceRuntime,
        name: str,
        value: object,
        processed: int,
        completed: bool,
    ) -> None:
        handle = instance.inflight.pop(name, None)
        instance.metrics.work_units += processed
        if self.observer is not None:
            self.observer.on_query_done(instance, name, units=processed, completed=completed)

        if completed:
            instance.metrics.queries_completed += 1
            if handle is not None and getattr(handle, "failed", False):
                instance.metrics.queries_failed += 1
                value = ExceptionValue(f"query for {name!r} failed")
        else:
            instance.metrics.queries_cancelled += 1
            if (
                name in instance.speculative_launch
                and instance.cells[name].enablement is Enablement.DISABLED
            ):
                instance.metrics.speculative_wasted_queries += 1
                instance.metrics.speculative_wasted_units += processed

        if completed and not instance.done:
            accepted = instance.apply_query_result(name, value)
            if not accepted:
                instance.metrics.speculative_wasted_queries += 1
                instance.metrics.speculative_wasted_units += processed
        if not instance.done:
            self._advance(instance)

    def _finish(self, instance: InstanceRuntime) -> None:
        instance.done = True
        instance.metrics.finish_time = self.sim.now
        instance.finalize_metrics()
        if self.halt_policy == "cancel":
            for handle in instance.inflight.values():
                if not self._has_waiters(handle):
                    handle.cancel()
        if self.observer is not None:
            self.observer.on_instance_complete(instance)
        callback = self._on_complete.pop(instance.instance_id, None)
        if callback is not None:
            callback(instance.metrics)

    def __repr__(self) -> str:
        done = sum(1 for i in self.instances if i.done)
        return (
            f"<Engine {self.schema.name!r} strategy={self.strategy.code} "
            f"instances={done}/{len(self.instances)} done>"
        )
