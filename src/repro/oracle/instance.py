"""Runtime state of a single decision-flow instance, name-keyed: the
reference engine's (:class:`repro.oracle.Engine`).

The instance runtime owns the attribute cells (state automaton), the
data-input pending counters, and the condition-resolution machinery.  It
implements the *evaluation phase* of the paper's execution algorithm: each
time new information arrives (instance start, a query result), the runtime
propagates it to a fixpoint —

* stabilized attributes decrement their data consumers' pending counts
  (→ READY) and trigger re-evaluation of enabling conditions that read
  them;
* under option **P** conditions are evaluated eagerly (Kleene/partial),
  so a conjunction falsifies as soon as one conjunct does (forward
  propagation), while the :class:`~repro.core.propagation.NeededTracker`
  performs backward propagation of unneededness;
* under option **N** (naive) a condition is evaluated only after all of
  its inputs are stable;
* eligible synthesis tasks execute inline (zero simulated time).

Scheduling (what query to launch next) is *not* done here — see
:mod:`repro.oracle.scheduler` and :mod:`repro.oracle.engine`.  The
product engine's instances are :class:`repro.core.batch_instance.BatchedInstance`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Mapping

from repro.core.conditions import UNRESOLVED
from repro.core.metrics import InstanceMetrics
from repro.core.propagation import NeededTracker
from repro.core.schema import DecisionFlowSchema
from repro.core.state import AttributeCell, AttributeState, Enablement, Readiness
from repro.core.strategy import Strategy
from repro.core.tri import Tri
from repro.errors import ExecutionError

__all__ = ["InstanceRuntime"]


class InstanceRuntime:
    """All mutable state of one running decision-flow instance."""

    __slots__ = (
        "schema",
        "strategy",
        "instance_id",
        "done",
        "metrics",
        "cells",
        "pending_inputs",
        "needed",
        "launched",
        "inflight",
        "speculative_launch",
        "_stable_queue",
        "_started",
    )

    def __init__(
        self,
        schema: DecisionFlowSchema,
        strategy: Strategy,
        instance_id: str,
        source_values: Mapping[str, object],
        start_time: float,
    ):
        self.schema = schema
        self.strategy = strategy
        self.instance_id = instance_id
        self.done = False
        self.metrics = InstanceMetrics(instance_id=instance_id, start_time=start_time)

        schema.check_sources(source_values)

        self.cells: dict[str, AttributeCell] = {}
        for name in schema.names:
            if schema[name].is_source:
                self.cells[name] = AttributeCell.source(name, source_values[name])
            else:
                self.cells[name] = AttributeCell(name)

        graph = schema.graph
        self.pending_inputs: dict[str, int] = {}
        for name in schema.non_source_names:
            self.pending_inputs[name] = sum(
                1 for parent in graph.data_inputs[name] if not self.cells[parent].stable
            )

        self.needed: NeededTracker | None = (
            NeededTracker(schema) if strategy.propagation else None
        )

        #: query attributes dispatched to the database (never re-launched)
        self.launched: set[str] = set()
        #: in-flight query handles by attribute name
        self.inflight: dict[str, object] = {}
        #: attributes launched while their condition was still UNKNOWN
        self.speculative_launch: set[str] = set()

        self._stable_queue: deque[str] = deque()
        self._started = False

    @property
    def start_time(self) -> float:
        return self.metrics.start_time

    @property
    def booked(self) -> InstanceMetrics:
        """Its metrics record as summaries fold it: always its own here
        (a batched cohort rider's may be shared)."""
        return self.metrics

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Initial evaluation phase: sources are stable, resolve what follows."""
        if self._started:
            raise ExecutionError(f"instance {self.instance_id} already started")
        self._started = True
        for name in self.schema.non_source_names:
            if self.pending_inputs[name] == 0:
                self.cells[name].mark_ready()
        for name in self.schema.non_source_names:
            self._try_resolve_condition(name)
        self.drain()

    def targets_stable(self) -> bool:
        return all(self.cells[t].stable for t in self.schema.target_names)

    # -- resolvers ----------------------------------------------------------

    def resolve_stable(self, name: str) -> object:
        """Resolver over *stable* attribute values (⊥ for DISABLED)."""
        cell = self.cells[name]
        return cell.value if cell.stable else UNRESOLVED

    def stable_values(self, names) -> dict[str, object]:
        values: dict[str, object] = {}
        for name in names:
            cell = self.cells[name]
            if not cell.stable:
                raise ExecutionError(
                    f"{self.instance_id}: input {name!r} not stable (state {cell.state})"
                )
            values[name] = cell.value
        return values

    # -- evaluation phase ----------------------------------------------------

    def drain(self) -> None:
        """Propagate stability/condition/synthesis consequences to a fixpoint."""
        while True:
            while self._stable_queue:
                self._on_stabilized(self._stable_queue.popleft())
            if not self._run_inline_synthesis():
                break

    def _on_stabilized(self, name: str) -> None:
        if self.needed is not None:
            self.needed.on_stabilized(name)
        graph = self.schema.graph
        for consumer in graph.data_consumers[name]:
            self.pending_inputs[consumer] -= 1
            if (
                self.pending_inputs[consumer] == 0
                and self.cells[consumer].readiness is Readiness.PENDING
            ):
                self.cells[consumer].mark_ready()
        for consumer in graph.enabling_consumers[name]:
            self._try_resolve_condition(consumer)

    def _try_resolve_condition(self, name: str) -> None:
        cell = self.cells[name]
        if cell.enablement is not Enablement.UNKNOWN:
            return
        condition = self.schema[name].condition
        if self.strategy.propagation:
            result = condition.eval_tri(self.resolve_stable)
            if not result.known:
                return
            truth = result is Tri.TRUE
        else:
            if any(self.resolve_stable(ref) is UNRESOLVED for ref in condition.refs()):
                return
            truth = condition.eval_bool(self.resolve_stable)
        self._resolve_condition(name, truth)

    def _resolve_condition(self, name: str, truth: bool) -> None:
        cell = self.cells[name]
        was_computed = cell.readiness is Readiness.COMPUTED
        state = cell.mark_enabled() if truth else cell.mark_disabled()
        if not truth and was_computed and name in self.speculative_launch:
            # The speculative query already completed; its result is now
            # discarded — the full cost was wasted work.
            self.metrics.speculative_wasted_queries += 1
            self.metrics.speculative_wasted_units += self.schema[name].cost
        if self.needed is not None:
            self.needed.on_condition_resolved(name)
        if state.stable:
            # DISABLED, or COMPUTED promoted to VALUE by a true condition.
            self._stable_queue.append(name)

    def set_computed(self, name: str, value: object) -> AttributeState:
        """Record a computed task value; returns the new derived state."""
        cell = self.cells[name]
        state = cell.set_computed(value)
        if state is AttributeState.VALUE:
            self._stable_queue.append(name)
        elif state is AttributeState.COMPUTED and self.needed is not None:
            self.needed.on_computed(name)
        return state

    def _run_inline_synthesis(self) -> bool:
        """Execute every currently eligible synthesis task; True if any ran."""
        ran = False
        for name in self.schema.non_source_names:
            spec = self.schema[name]
            if spec.task is None or spec.task.is_query:
                continue
            if not self._is_executable(name):
                continue
            values = self.stable_values(spec.task.inputs)
            self.metrics.synthesis_executed += 1
            self.set_computed(name, spec.task.compute(values))
            ran = True
        return ran

    def _is_executable(self, name: str) -> bool:
        """Shared eligibility test (prequalifier rules, S/C and P options)."""
        cell = self.cells[name]
        if cell.readiness is not Readiness.READY:
            return False
        if cell.enablement is Enablement.DISABLED:
            return False
        if cell.enablement is Enablement.UNKNOWN and not self.strategy.speculative:
            return False
        if self.needed is not None and self.needed.is_unneeded(name):
            return False
        return True

    # -- query results --------------------------------------------------------

    def apply_query_result(self, name: str, value: object) -> bool:
        """Install a completed query's value.  Returns False if discarded
        (the attribute was disabled while the query was in flight)."""
        cell = self.cells[name]
        if cell.enablement is Enablement.DISABLED:
            if cell.readiness is Readiness.READY:
                cell.set_computed(value)  # retained as diagnostic only
            return False
        self.set_computed(name, value)
        return True

    # -- finalization -----------------------------------------------------------

    def finalize_metrics(self) -> None:
        """Fill end-of-instance attribute counters into the metrics record."""
        value_count = disabled_count = unstable = 0
        for name in self.schema.non_source_names:
            state = self.cells[name].state
            if state is AttributeState.VALUE:
                value_count += 1
            elif state is AttributeState.DISABLED:
                disabled_count += 1
            else:
                unstable += 1
        self.metrics.attrs_value = value_count
        self.metrics.attrs_disabled = disabled_count
        self.metrics.attrs_unstable = unstable
        if self.needed is not None:
            skipped = [
                name
                for name in self.needed.unneeded
                if not self.cells[name].stable
            ]
            self.metrics.unneeded_detected = len(skipped)
            self.metrics.unneeded_cost_avoided = sum(
                self.schema[name].cost
                for name in skipped
                if name not in self.launched
            )

    def value(self, name: str) -> object:
        """One attribute's value: ``cells[name].value``."""
        return self.cells[name].value

    def state_map(self) -> dict[str, AttributeState]:
        return {name: cell.state for name, cell in self.cells.items()}

    def value_map(self) -> dict[str, object]:
        return {
            name: cell.value for name, cell in self.cells.items() if cell.stable
        }

    def value_tuple(self) -> tuple:
        """Every attribute's value in ``schema.names`` order, UNRESOLVED
        where it is not yet stable."""
        return tuple(cell.value if cell.stable else UNRESOLVED for cell in self.cells.values())

    def __repr__(self) -> str:
        flag = " done" if self.done else ""
        return f"<InstanceRuntime {self.instance_id}{flag}>"
