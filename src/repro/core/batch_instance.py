"""The product engine's instance: flat arrays over a compiled plan.

:class:`BatchedInstance` holds what the reference
:class:`~repro.oracle.instance.InstanceRuntime` holds as name-keyed cells
in arrays indexed by a :class:`~repro.core.plan.CompiledPlan`:
readiness/enablement in ``bytearray``s, pending-input counts in an int
list, conditions as plan-compiled closures, the dead-edge analysis over
the plan's edge arrays and the candidate pool kept incrementally.  On an
eligible plan it aliases an interned :class:`~repro.core.plan.ControlState`
and a round is a lookup (:meth:`BatchedInstance._enter`); a miss runs the
kernel here.  The shell that drives it is :mod:`repro.core.batch_engine`.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterator, Mapping

from repro.core.conditions import UNRESOLVED
from repro.core.engine import counted_inflight
from repro.core.metrics import InstanceMetrics
from repro.core.plan import (
    CompiledPlan,
    E_DISABLED,
    E_ENABLED,
    E_UNKNOWN,
    EV_START,
    R_COMPUTED,
    R_PENDING,
    R_READY,
    T_TRUE,
    T_UNKNOWN,
)
from repro.core.state import AttributeState, Enablement, Readiness, derive_state
from repro.errors import ExecutionError, IllegalTransitionError
from repro.nulls import NULL

__all__ = ["BatchedInstance"]

#: What an instance reads in place of the per-run containers while it
#: owns none — before it starts for itself, and once it is settled
#: (:meth:`BatchedEngine._settle`): empty, shared, and refusing every write.
_NO_INFLIGHT: Mapping[str, object] = MappingProxyType({})
_NO_NAMES: frozenset = frozenset()
_NO_QUEUE = ()


class _BatchCell:
    """Read-only cell adapter over one attribute of a batched instance.

    Presents the :class:`~repro.core.state.AttributeCell` read surface
    (``state``/``stable``/``value``/...) that handles and observers read,
    backed by the flat arrays.
    """

    __slots__ = ("_instance", "_index", "name")

    def __init__(self, instance: "BatchedInstance", index: int):
        self._instance = instance
        self._index = index
        self.name = instance.plan.names[index]

    @property
    def readiness(self) -> Readiness:
        return Readiness(self._instance._view()[0][self._index])

    @property
    def enablement(self) -> Enablement:
        return Enablement(self._instance._view()[1][self._index])

    @property
    def state(self) -> AttributeState:
        return derive_state(self.readiness, self.enablement)

    @property
    def stable(self) -> bool:
        return self._instance._view()[3][self._index] is not UNRESOLVED

    @property
    def value(self) -> object:
        value = self._instance._view()[3][self._index]
        if value is UNRESOLVED:
            raise ValueError(f"attribute {self.name!r} is not stable (state {self.state})")
        return value

    @property
    def speculative_value(self) -> object:
        readiness, _, raw, _ = self._instance._view()
        if readiness[self._index] != R_COMPUTED:
            raise ValueError(f"attribute {self.name!r} has no computed value")
        return raw[self._index]

    def __repr__(self) -> str:
        return f"<_BatchCell {self.name} {self.state.value}>"


class _CellMap:
    """Name-keyed mapping view materializing :class:`_BatchCell` adapters."""

    __slots__ = ("_instance",)

    def __init__(self, instance: "BatchedInstance"):
        self._instance = instance

    def __getitem__(self, name: str) -> _BatchCell:
        return _BatchCell(self._instance, self._instance.plan.index[name])

    def __contains__(self, name: str) -> bool:
        return name in self._instance.plan.index

    def __iter__(self) -> Iterator[str]:
        return iter(self._instance.plan.names)

    def __len__(self) -> int:
        return self._instance.plan.n

    def items(self):
        for name in self._instance.plan.names:
            yield name, self[name]


class BatchedInstance:
    """One flow instance as flat arrays over a :class:`CompiledPlan`.

    Mirrors the :class:`InstanceRuntime` contract attribute for
    attribute; every mutator replicates the corresponding reference code
    path (same traversal order, same metric increments, same error
    types), so the engines' observable traces cannot diverge.

    Its life has three parts, and it holds only what the part reads:

    * *Submitted*: its sources, its start key and its metrics.  The
      per-run containers (``inflight``, ``speculative_launch``, the
      candidate pool, the drain queue) read as shared immutable empties,
      and writing one raises.
    * *Running for itself*: :meth:`start` installs the value lists and
      ``inflight`` / ``speculative_launch``, and aliases an interned
      state's arrays or takes copies; :meth:`_own` (the kernel's entry)
      gives it the candidate pool and the drain queue.  A lockstep member
      or a flow replay never runs for itself: it ends aliasing its
      representative's or trace's arrays and value lists.
    * *Settled* (done, nothing in flight): the engine swaps the
      containers back for the shared empties and drops the sources and
      start key (:meth:`BatchedEngine._settle`).  What is left is the
      answer: the metrics, the value lists and the arrays — its own, or
      the state it aliases.  Every reader (``value_map``, ``cells``,
      ``state_map``) reads those alone.
    """

    __slots__ = (
        "plan",
        "strategy",
        "instance_id",
        "done",
        "metrics",
        "inflight",
        "speculative_launch",
        "_readiness",
        "_enablement",
        "_raw",
        "_sv",
        "_pending",
        "_launched",
        "_alive",
        "_live_out",
        "_unneeded",
        "_external",
        "_cand",
        "_queue",
        "_start_key",
        "_sources",
        "_state",
        "_event",
        "_cohort",
        "_flow",
    )

    def __init__(
        self,
        plan: CompiledPlan,
        instance_id: str,
        source_values: Mapping[str, object],
        start_time: float,
    ):
        self.plan = plan
        self.strategy = plan.strategy
        self.instance_id = instance_id
        self.done = False
        self.metrics = InstanceMetrics(instance_id=instance_id, start_time=start_time)

        plan.schema.check_sources(source_values)
        names = plan.schema.source_names
        sources = {name: source_values[name] for name in names}
        #: Both dropped once the instance is settled (None from then on).
        self._sources: dict | None = sources
        self._start_key = plan.start_key(sources) if plan.start_cache_ok else None
        # Arrays are installed lazily: `start()` aliases or copies a
        # state's, and a lockstep member only ever takes its cohort's
        # final ones.
        self._readiness: bytearray | bytes | None = None
        self._enablement: bytearray | bytes | None = None
        self._raw: list[object] | None = None
        self._sv: list[object] | None = None
        self._pending: list[int] | tuple | None = None
        self._launched: bytearray | bytes | None = None
        self._alive: bytearray | bytes | None = None
        self._live_out: list[int] | tuple | None = None
        self._unneeded: bytearray | bytes | None = None
        self._external: bytearray | bytes | None = None
        #: The interned state whose arrays this instance aliases (the
        #: plan's root until started); None once it owns mutable copies —
        #: memo not armed, after its one miss, or rebuilt by `materialize`.
        self._state = plan.root if plan.memo else None
        #: Between the two halves of a round (a value arriving, then
        #: `_advance`): the transition taken, or on a miss what to file.
        self._event: tuple | None = None
        #: in-flight query handles keyed by attribute name (engine-facing)
        self.inflight: Mapping[str, object] = _NO_INFLIGHT
        #: attribute names launched while their condition was UNKNOWN
        self.speculative_launch: set[str] | frozenset = _NO_NAMES
        #: incrementally maintained candidate-pool members (indices)
        self._cand: set[int] | frozenset = _NO_NAMES
        self._queue: deque[int] | tuple = _NO_QUEUE
        #: Cohort membership: the _Cohort this instance represents or
        #: rides, None for ordinary instances (and for everyone a
        #: dissolved cohort leaves behind).
        self._cohort = None
        #: Flow memo: the rounds recorded so far (a list) while every
        #: launch was a query-memo hit, the :class:`_FlowTrace` of an
        #: instance replayed from one, None otherwise.
        self._flow = None

    # -- lifecycle ---------------------------------------------------------

    def _alias(self, state) -> None:
        """Share *state*'s (immutable) arrays."""
        self._state = state
        self._readiness = state.readiness
        self._enablement = state.enablement
        self._pending = state.pending
        self._launched = state.launched
        self._cand = state.cand
        self._alive = state.alive
        self._live_out = state.live_out
        self._unneeded = state.unneeded
        self._external = state.external

    def _own(self, state) -> None:
        """Leave the memo with mutable copies of *state*'s arrays, and the
        drain queue the kernel propagates through."""
        self._state = self._event = None
        self._queue = deque()
        self._readiness = bytearray(state.readiness)
        self._enablement = bytearray(state.enablement)
        self._pending = list(state.pending)
        self._launched = bytearray(state.launched)
        self._cand = set(state.cand)
        if state.alive is not None:
            self._alive = bytearray(state.alive)
            self._live_out = list(state.live_out)
            self._unneeded = bytearray(state.unneeded)
            self._external = bytearray(state.external)

    def _enter(self, slot: int, sig: object = 0) -> bool:
        """First half of a memoized round: look ``(state, event)`` up.

        The event is a result's ``(slot, signature)``, `EV_START` with
        the sources' signatures, or `EV_CANCELLED`.  A hit writes the
        values the step stabilizes, books its wasted work and aliases the
        next state; :meth:`BatchedEngine._advance` then finishes or
        launches.  A miss takes the arrays (the kernel's precondition)
        and leaves behind what `_advance` must file.
        """
        state = self._state
        plan = self.plan
        event = (slot, sig, counted_inflight(self)) if plan.throttled else (slot, sig)
        step = state.steps.get(event)
        if step is None:
            plan.memo_misses += 1
            self._own(state)
            self._event = (state, event)
            return False
        plan.memo_hits += 1
        self._event = step
        state, nulls, copies, wasted_queries, wasted_units, _ = step
        sv = self._sv
        for i in nulls:
            sv[i] = NULL
        if copies:
            raw = self._raw
            for i in copies:
                sv[i] = raw[i]
        if wasted_queries:
            self.metrics.speculative_wasted_queries += wasted_queries
            self.metrics.speculative_wasted_units += wasted_units
        self._alias(state)
        return True

    def start(self) -> None:
        """Initial evaluation phase: one memo lookup, or the kernel.  From
        here the instance runs for itself, in containers of its own."""
        if self._sv is not None:
            raise ExecutionError(f"instance {self.instance_id} already started")
        plan = self.plan
        self.inflight = {}
        self.speculative_launch = set()
        self._raw = raw = [None] * plan.n
        self._sv = sv = [UNRESOLVED] * plan.n
        index = plan.index
        for name, value in self._sources.items():
            raw[index[name]] = sv[index[name]] = value
        if self._state is None:
            self._own(plan.root)
        elif self._enter(EV_START, tuple(plan.signature(i, raw[i]) for i in plan.source_idx)):
            return
        for i in plan.non_source_idx:
            if self._pending[i] == 0:
                self._mark_ready(i)
        for i in plan.non_source_idx:
            self._try_resolve_condition(i)
        self.drain()

    def targets_stable(self) -> bool:
        sv = self._sv
        for i in self.plan.target_idx:
            if sv[i] is UNRESOLVED:
                return False
        return True

    # -- evaluation phase ----------------------------------------------------

    def drain(self) -> None:
        """Propagate stability/condition/synthesis consequences to a fixpoint."""
        queue = self._queue
        while True:
            while queue:
                self._on_stabilized(queue.popleft())
            if not self._run_inline_synthesis():
                break

    def _mark_ready(self, i: int) -> None:
        if self._readiness[i] != R_PENDING:
            raise IllegalTransitionError(
                f"{self.plan.names[i]}: mark_ready in readiness {Readiness(self._readiness[i])}"
            )
        self._readiness[i] = R_READY
        if self.plan.is_query[i] and not self._launched[i]:
            self._cand.add(i)

    def _on_stabilized(self, i: int) -> None:
        plan = self.plan
        if self._alive is not None:
            if self._external[i]:
                self._external[i] = 0
                self._decrement_live(i)
            self._kill_in_edges(i, data=True, cond=True)
        pending = self._pending
        readiness = self._readiness
        for consumer in plan.data_consumers[i]:
            pending[consumer] -= 1
            if pending[consumer] == 0 and readiness[consumer] == R_PENDING:
                self._mark_ready(consumer)
        for consumer in plan.enabling_consumers[i]:
            self._try_resolve_condition(consumer)

    def _try_resolve_condition(self, i: int) -> None:
        if self._enablement[i] != E_UNKNOWN:
            return
        plan = self.plan
        if self.strategy.propagation:
            result = plan.cond_eval[i](self._sv)
            if result == T_UNKNOWN:
                return
            truth = result == T_TRUE
        else:
            sv = self._sv
            for ref in plan.cond_refs[i]:
                if sv[ref] is UNRESOLVED:
                    return
            result = plan.cond_eval[i](sv)
            if result == T_UNKNOWN:
                # Mirrors Condition.eval_bool on an undetermined condition.
                raise ValueError(
                    f"condition of {plan.names[i]!r} is undetermined with stable inputs"
                )
            truth = result == T_TRUE
        self._resolve_condition(i, truth)

    def _resolve_condition(self, i: int, truth: bool) -> None:
        plan = self.plan
        was_computed = self._readiness[i] == R_COMPUTED
        if truth:
            self._enablement[i] = E_ENABLED
            stable = was_computed
            if stable:
                self._sv[i] = self._raw[i]
            elif (
                self._readiness[i] == R_READY
                and plan.is_query[i]
                and not self._launched[i]
            ):
                self._cand.add(i)
        else:
            self._enablement[i] = E_DISABLED
            stable = True
            self._sv[i] = NULL
            if was_computed and plan.names[i] in self.speculative_launch:
                # The speculative query already completed; its result is now
                # discarded — the full cost was wasted work.
                self.metrics.speculative_wasted_queries += 1
                self.metrics.speculative_wasted_units += plan.cost[i]
        if self._alive is not None:
            self._kill_in_edges(i, data=False, cond=True)
        if stable:
            self._queue.append(i)

    def _set_computed(self, i: int, value: object) -> None:
        if self._readiness[i] != R_READY:
            raise IllegalTransitionError(
                f"{self.plan.names[i]}: set_computed in readiness {Readiness(self._readiness[i])}"
            )
        self._readiness[i] = R_COMPUTED
        self._raw[i] = value
        enablement = self._enablement[i]
        if enablement == E_ENABLED:
            self._sv[i] = value
            self._queue.append(i)
        elif enablement == E_UNKNOWN and self._alive is not None:
            self._kill_in_edges(i, data=True, cond=False)

    def _run_inline_synthesis(self) -> bool:
        """Execute every currently eligible synthesis task; True if any ran."""
        ran = False
        plan = self.plan
        for i in plan.synth_idx:
            if not self._is_executable(i):
                continue
            values = self._input_values(i)
            self.metrics.synthesis_executed += 1
            self._set_computed(i, plan.tasks[i].compute(values))
            ran = True
        return ran

    def _is_executable(self, i: int) -> bool:
        if self._readiness[i] != R_READY:
            return False
        enablement = self._enablement[i]
        if enablement == E_DISABLED:
            return False
        if enablement == E_UNKNOWN and not self.strategy.speculative:
            return False
        if self._unneeded is not None and self._unneeded[i]:
            return False
        return True

    def _input_values(self, i: int) -> dict[str, object]:
        """Stable input values of attribute *i*'s task (READY invariant)."""
        sv = self._sv
        values: dict[str, object] = {}
        for name, j in self.plan.task_inputs[i]:
            value = sv[j]
            if value is UNRESOLVED:
                raise ExecutionError(f"{self.instance_id}: input {name!r} not stable")
            values[name] = value
        return values

    # -- backward propagation (dead-edge analysis over plan arrays) ---------
    #
    # Index-based twin of NeededTracker._kill_in_edges/_decrement/
    # _mark_unneeded (propagation.py) — change them together.  The
    # differential suite compares unneeded detection between the engines
    # on every scenario.

    def _kill_in_edges(self, child: int, data: bool, cond: bool) -> None:
        table = self.plan.edges
        alive = self._alive
        if data:
            for edge_id, parent in table.data_in[child]:
                if alive[edge_id]:
                    alive[edge_id] = 0
                    self._decrement_live(parent)
        if cond:
            for edge_id, parent in table.cond_in[child]:
                if alive[edge_id]:
                    alive[edge_id] = 0
                    self._decrement_live(parent)

    def _decrement_live(self, i: int) -> None:
        self._live_out[i] -= 1
        if self._live_out[i] == 0 and not self._unneeded[i]:
            self._unneeded[i] = 1
            self._kill_in_edges(i, data=True, cond=True)

    # -- query results --------------------------------------------------------

    def apply_query_result(self, name: str, value: object, sig: int | None = None) -> bool:
        """Install a completed query's value (*sig*: ``plan.signature`` of it,
        where the caller has it).  Returns False if discarded (the attribute
        was disabled while the query was in flight)."""
        i = self.plan.index[name]
        if self._state is not None:
            # Memoized: the value is all that is written here; the state
            # moves in `_enter` (a disabled slot's signature is dead).
            self._raw[i] = value
            accepted = self._enablement[i] != E_DISABLED
            if accepted and sig is None:
                sig = self.plan.signature(i, value)
            if self._enter(i, sig if accepted else 0):
                return accepted
        if self._enablement[i] == E_DISABLED:
            if self._readiness[i] == R_READY:
                # retained as diagnostic only
                self._readiness[i] = R_COMPUTED
                self._raw[i] = value
            return False
        self._set_computed(i, value)
        return True

    # -- off the record: lockstep members and flow replays ---------------------

    def materialize(self, made, delivered) -> None:
        """Take the arrays this instance would hold had it run for real,
        having run on a record of its trace — a cohort member, a flow
        replay: the start state, the ``(name, speculative)`` launches
        *made*, the ``(name, value)`` results *delivered*."""
        self.start()
        if self._state is not None:
            self._own(self._state)  # the replay writes them directly
        self._event = None
        index = self.plan.index
        for name, speculative in made:
            i = index[name]
            self._launched[i] = 1
            self._cand.discard(i)
            if speculative:
                self.speculative_launch.add(name)
        # The results are applied on a scratch metrics object: whatever
        # they book was booked, or recorded, when they arrived.
        real_metrics = self.metrics
        self.metrics = InstanceMetrics(
            instance_id=self.instance_id, start_time=real_metrics.start_time
        )
        try:
            for name, value in delivered:
                self.apply_query_result(name, value)
                self.drain()
        finally:
            self.metrics = real_metrics

    def end_state(self):
        """The state the members (or replays) of this done instance alias.

        The interned one when the memo served it to the end; otherwise
        its own arrays, frozen once (uninterned — it has no way on).  A
        representative that finished at its start may be settled by the
        time members join: it freezes with empty launch sets, which no
        done state reads.
        """
        if self._state is None:
            self._alias(self.plan.freeze(self))
        return self._state

    # -- finalization -----------------------------------------------------------

    def finalize_metrics(self) -> None:
        """Fill end-of-instance attribute counters into the metrics record.

        They are a function of the discrete arrays alone, so an interned
        state computes them once for every instance that ends there.
        """
        state = self._state
        derived = state.final if state is not None else None
        if derived is None:
            plan = self.plan
            value_count = disabled_count = unstable = detected = avoided = 0
            readiness = self._readiness
            enablement = self._enablement
            for i in plan.non_source_idx:
                e = enablement[i]
                if e == E_DISABLED:
                    disabled_count += 1
                elif e == E_ENABLED and readiness[i] == R_COMPUTED:
                    value_count += 1
                else:
                    unstable += 1
            if self._unneeded is not None:
                sv = self._sv
                launched = self._launched
                for i in range(plan.n):
                    if self._unneeded[i] and sv[i] is UNRESOLVED:
                        detected += 1
                        if not launched[i]:
                            avoided += plan.cost[i]
            derived = (value_count, disabled_count, unstable, detected, avoided)
            if state is not None:
                state.final = derived
        metrics = self.metrics
        (
            metrics.attrs_value,
            metrics.attrs_disabled,
            metrics.attrs_unstable,
            metrics.unneeded_detected,
            metrics.unneeded_cost_avoided,
        ) = derived

    # -- inspection -------------------------------------------------------------

    @property
    def schema(self):
        # Not a slot: nothing hot reads it.
        return self.plan.schema

    @property
    def cells(self) -> _CellMap:
        """Name-keyed cell view (adapter parity with InstanceRuntime)."""
        return _CellMap(self)

    def _view(self) -> tuple:
        """``(readiness, enablement, raw, stable values)`` as readers see them.

        Until :meth:`start` an instance has no arrays: it reads the plan's
        pre-start root with its sources stable, as a reference instance
        does, and a lockstep member reads its representative's.
        """
        if self._sv is not None:
            return self._readiness, self._enablement, self._raw, self._sv
        cohort = self._cohort
        if cohort is not None and cohort.rep is not self:
            return cohort.rep._view()
        plan = self.plan
        sv = [UNRESOLVED] * plan.n
        for name, value in self._sources.items():
            sv[plan.index[name]] = value
        return plan.root.readiness, plan.root.enablement, sv, sv

    def state_map(self) -> dict[str, AttributeState]:
        readiness, enablement, _, _ = self._view()
        return {
            name: derive_state(Readiness(readiness[i]), Enablement(enablement[i]))
            for i, name in enumerate(self.plan.names)
        }

    def value_map(self) -> dict[str, object]:
        sv = self._view()[3]
        return {
            name: sv[i]
            for i, name in enumerate(self.plan.names)
            if sv[i] is not UNRESOLVED
        }

    def value_tuple(self) -> tuple:
        """Every attribute's value in ``schema.names`` order (the plan's),
        UNRESOLVED where it is not yet stable."""
        return tuple(self._view()[3])

    def __repr__(self) -> str:
        flag = " done" if self.done else ""
        return f"<BatchedInstance {self.instance_id}{flag}>"
