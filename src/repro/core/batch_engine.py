"""The batched multi-instance engine: compiled plans over flat array state.

:class:`BatchedEngine` executes the same algorithm as the reference
:class:`~repro.core.engine.Engine` — identical launches, identical
metrics, identical observer events — but stores per-instance attribute
state in flat per-flow arrays indexed by a
:class:`~repro.core.plan.CompiledPlan` instead of dict-keyed
:class:`~repro.core.instance.InstanceRuntime` graphs:

* readiness/enablement live in ``bytearray``s, pending-input counts in a
  plain int list, and the evaluation phase walks int-encoded consumer
  lists — no per-attribute cell objects, no string hashing in the hot
  propagation loop;
* enabling conditions run as plan-compiled closures over the stable-value
  list, and the backward-propagation dead-edge analysis operates on the
  plan's pre-cascaded edge arrays;
* the prequalifier pool is maintained *incrementally* (an attribute
  enters candidacy when it becomes READY or its condition enables) and
  the scheduling phase sorts precomputed scalar ranks, instead of
  re-scanning and re-keying the whole schema between DES events;
* on an eligible plan (no user code, no attribute-to-attribute
  comparison, no engine-level share table) an instance *aliases* the
  arrays of an interned :class:`~repro.core.plan.ControlState` and owns
  only its value lists, and a scheduling round is a lookup of
  ``(state, event)``: a hit applies the recorded stable-value writes,
  wasted-work deltas and launch list and swaps the alias — no
  propagation runs; a miss copies the arrays, runs the kernel below
  unchanged and files the transition.  An instance that missed keeps
  its own arrays for the rest of its life (a population where every
  instance takes its own path would otherwise pay an interning per
  round), so each records at most one step;
* with a query cache, whole instances are shared on top of that: a
  valuation seen before replays a recorded trace (the flow memo), and
  same-instant copies of a new one ride the first in lockstep as a
  *cohort* — no queries, events or arrays of their own — dissolving
  into ordinary instances where they can ride no further.

The engine-level event handling (query completion, sharing, halting) is
*inherited* from the reference engine, so the two can only diverge in
the instance layer — which the differential harness in
``tests/test_engine_differential.py`` pins down property-by-property.
"""

from __future__ import annotations

from collections import deque
from copy import deepcopy
from time import perf_counter
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from repro.core.engine import Engine
from repro.core.metrics import InstanceMetrics
from repro.core.conditions import UNRESOLVED
from repro.core.plan import (
    CompiledPlan,
    E_DISABLED,
    E_ENABLED,
    E_UNKNOWN,
    EV_CANCELLED,
    EV_START,
    R_COMPUTED,
    R_PENDING,
    R_READY,
    T_TRUE,
    T_UNKNOWN,
)
from repro.core.scheduler import counted_inflight, permitted_slots
from repro.core.state import AttributeState, Enablement, Readiness, derive_state
from repro.errors import ExecutionError, IllegalTransitionError
from repro.nulls import NULL, ExceptionValue

__all__ = ["BatchedEngine", "BatchedInstance"]

_UNSET = object()

#: What an instance that has not started for itself reads in place of the
#: containers :meth:`BatchedInstance.start` installs: empty, shared, and
#: refusing every write.
_NO_INFLIGHT: Mapping[str, object] = MappingProxyType({})
_NO_NAMES: frozenset = frozenset()
_NO_QUEUE = ()


class _LaunchRecord:
    """One launch decision of a cohort representative.

    What stands in for the launch each member would have made: the
    index and speculative flag that materialize a member's arrays, and —
    computed lazily, once for the whole cohort — the task value a
    delivery to a dissolved member carries.
    """

    __slots__ = ("name", "index", "task", "values", "speculative", "_value")

    def __init__(self, name, index, task, values, speculative):
        self.name = name
        self.index = index
        self.task = task
        self.values = values
        self.speculative = speculative
        self._value = _UNSET

    def value(self):
        """The task's computed value (deterministic in its stable inputs)."""
        if self._value is _UNSET:
            self._value = self.task.compute(self.values)
        return self._value

    def value_for(self, failed: bool):
        """The value a completion delivers: the computed value, or the
        failure sentinel the reference engine substitutes."""
        if failed:
            return ExceptionValue(f"query for {self.name!r} failed")
        return self.value()


class _StageRecord:
    """One resolution step of a cohort representative.

    ``name`` is the attribute whose query resolved (None for the start
    stage).  The outcome triple (``completed``/``failed``/``accepted``)
    is the one every member inherits: each would have been a follower
    of the representative's primary.  ``cancel_wasted`` mirrors the
    reference engine's cancelled-speculative check, ``drain_wasted_*``
    the state-derived wasted-work deltas booked during the
    representative's advance.  ``cancels`` are the unneeded-cancel
    decisions the members share, ``launches`` the follow-on launches
    they ride.
    """

    __slots__ = (
        "name",
        "completed",
        "failed",
        "accepted",
        "cancel_wasted",
        "drain_wasted_queries",
        "drain_wasted_units",
        "done_after",
        "cancels",
        "launches",
    )

    def __init__(self, name):
        self.name = name
        self.completed = True
        self.failed = False
        self.accepted = True
        self.cancel_wasted = False
        self.drain_wasted_queries = 0
        self.drain_wasted_units = 0
        self.done_after = False
        self.cancels: tuple[str, ...] = ()
        self.launches: list[_LaunchRecord] = []


class _Cohort:
    """A representative instance plus the members riding it in lockstep.

    Formed at one ``(typed start valuation, start instant)`` point and
    open — on the engine's table — while the representative is still at
    its start stage, the only window in which a joining member has
    missed nothing.  A member's every launch would coalesce behind the
    representative's own primary for the same key, so members are
    tracked *virtually*: one weighted attachment per primary
    (:meth:`QueryShareCache.attach_virtual`), one shared metrics
    ``template`` (members are bit-identical until they finish), and
    per-member work only for observer events and finishing.  ``log`` is
    what the representative has done, stage by stage: what
    :meth:`BatchedEngine._dissolve` rebuilds the members from when they
    can ride no further.
    """

    __slots__ = (
        "rep",
        "start_time",
        "log",
        "launch_by_name",
        "members",
        "template",
        "virtual",
        "cancelled",
        "epoch",
    )

    def __init__(self, rep, start_time: float):
        self.rep = rep
        self.start_time = start_time
        self.log: list[_StageRecord] = []
        self.launch_by_name: dict[str, _LaunchRecord] = {}
        #: members in join order (retained after finishing for post-halt
        #: straggler bookkeeping)
        self.members: list = []
        #: the members' shared metrics record, built at the first join
        self.template: InstanceMetrics | None = None
        #: attribute name -> launch record, for virtual attachments whose
        #: members still wait on the result / have cancelled the wait
        self.virtual: dict[str, _LaunchRecord] = {}
        self.cancelled: dict[str, _LaunchRecord] = {}
        #: cache follower_epoch at the last verification that no real
        #: follower sits behind a representative primary — joins skip
        #: the per-key re-check while the epoch is unchanged
        self.epoch = -1

    def absorb(self, rec: _StageRecord) -> None:
        self.log.append(rec)
        for launch in rec.launches:
            self.launch_by_name[launch.name] = launch


#: Bound on filed flow traces per engine, with the transition memo's
#: policy: once full nothing more is recorded, and hits keep serving.
FLOW_LIMIT = 1024

#: The counters an instance served from the query memo alone can move.
_FLOW_COUNTERS = (
    "queries_launched", "speculative_launched", "queries_completed",
    "queries_cancelled", "speculative_wasted_queries", "speculative_wasted_units",
)  # fmt: skip


class _FlowWave:
    """One event of a replay: rounds ``[lo, hi)`` of the trace, run whole.

    ``keys`` are the cache keys of their launches (all still memoized, or
    the replay ends here), ``counters`` the instance's `_FLOW_COUNTERS`
    after them, ``rounds`` how many of them scheduled (stragglers do
    not), ``next`` the events of the wave those launches feed.
    """

    __slots__ = ("lo", "stages", "keys", "counters", "rounds", "finishes", "next")

    def __init__(self, stages: tuple, rec: list, lo: int, hi: int, finish: int):
        self.lo = lo
        self.stages = stages[lo:hi]
        self.keys = tuple(key for _, _, fed in self.stages for _, _, key in fed)
        self.counters = rec[hi - 1][3]
        self.rounds = max(0, min(hi, finish + 1) - lo)
        self.finishes = hi == finish + 1
        self.next: tuple[_FlowWave, ...] = ()


class _FlowTrace:
    """What an instance did whose every launch the query memo answered.

    Such an instance touches no data: each delivery is a zero-delay
    band-2 event at its start instant, in launch order, so the trace is
    a function of the typed start valuation.  ``stages`` has one
    ``(name, completed, launches)`` per round — the query delivered
    (None: the start) and the ``(name, speculative, cache key)``
    launches made.  The deliveries of one wave's launches are the next
    wave and sit contiguously in the calendar (they are scheduled inside
    the instance's own callbacks), so a repeat runs one :class:`_FlowWave`
    per wave, scheduled where the wave's first delivery sat; a wave the
    instance finishes in is cut there in two, so that a start its
    completion callback schedules preempts the stragglers as it would.
    Holds no instance: its end state and two value lists, which replayed
    instances alias.
    """

    __slots__ = ("stages", "head", "state", "raw", "sv")

    def __init__(self, rec: list, instance: "BatchedInstance", state):
        self.state, self.raw, self.sv = state, instance._raw, instance._sv
        self.stages = stages = tuple(stage[:3] for stage in rec)
        finish = next(j for j, stage in enumerate(rec) if stage[4])
        self.head = feeder = _FlowWave(stages, rec, 0, 1, finish)  # the start: a wave of one
        lo, hi = 1, 1 + len(feeder.keys)
        while lo < hi:
            cut = finish + 1 if lo <= finish < hi else hi
            feeder.next = waves = tuple(
                _FlowWave(stages, rec, a, b, finish) for a, b in ((lo, cut), (cut, hi)) if a < b
            )
            feeder = waves[0]  # stragglers launch nothing
            lo, hi = hi, hi + sum(len(wave.keys) for wave in waves)


class _HitWave:
    """A run of one instance's query-memo hits, delivered by one event.

    ``hits`` are ``(name, follower, launch-memo entry)`` in launch order.
    ``event`` sits where the first hit's own zero-delay delivery would,
    and the wave takes further hits only while ``sim.scheduled`` stays at
    ``marker``: exactly while the events it stands for would have had
    consecutive seqs.
    """

    __slots__ = ("instance", "hits", "event", "marker")

    def __init__(self, instance: "BatchedInstance", hit: tuple):
        self.instance, self.hits = instance, [hit]


class _BatchCell:
    """Read-only cell adapter over one attribute of a batched instance.

    Presents the :class:`~repro.core.state.AttributeCell` surface
    (``state``/``stable``/``value``/...) that handles, observers, and the
    inherited engine paths read, backed by the flat arrays.
    """

    __slots__ = ("_instance", "_index", "name")

    def __init__(self, instance: "BatchedInstance", index: int):
        self._instance = instance
        self._index = index
        self.name = instance.plan.names[index]

    @property
    def readiness(self) -> Readiness:
        return Readiness(self._instance._readiness[self._index])

    @property
    def enablement(self) -> Enablement:
        return Enablement(self._instance._enablement[self._index])

    @property
    def state(self) -> AttributeState:
        return derive_state(self.readiness, self.enablement)

    @property
    def stable(self) -> bool:
        return self._instance._sv[self._index] is not UNRESOLVED

    @property
    def value(self) -> object:
        value = self._instance._sv[self._index]
        if value is UNRESOLVED:
            raise ValueError(f"attribute {self.name!r} is not stable (state {self.state})")
        return value

    @property
    def speculative_value(self) -> object:
        if self._instance._readiness[self._index] != R_COMPUTED:
            raise ValueError(f"attribute {self.name!r} has no computed value")
        return self._instance._raw[self._index]

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

    An instance owns nothing but its sources, its start key and its
    metrics until it starts for itself: :meth:`start` installs the
    arrays and the mutable containers (``inflight``,
    ``speculative_launch``, the candidate pool, the drain queue).  Until
    then — for a lockstep member or a flow replay, for good: they end
    aliasing their representative's or trace's arrays — the containers
    read as shared immutable empties, and writing one raises.
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

        names = plan.schema.source_names
        for name in names:
            if name not in source_values:
                missing = set(names) - set(source_values)
                raise ExecutionError(f"missing source values: {sorted(missing)}")
        self._sources = sources = {name: source_values[name] for name in names}
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
        #: memo not armed, after its one miss, or rebuilt by `_materialize`.
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
        self._cohort: _Cohort | None = None
        #: Flow memo: the rounds recorded so far (a list) while every
        #: launch was a query-memo hit, the :class:`_FlowTrace` of an
        #: instance replayed from one, None otherwise.
        self._flow: list | _FlowTrace | None = None

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
        """Leave the memo with mutable copies of *state*'s arrays."""
        self._state = self._event = None
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
        self._queue = deque()
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

    def stable_values(self, names: Sequence[str]) -> dict[str, object]:
        values: dict[str, object] = {}
        for name in names:
            value = self._sv[self.plan.index[name]]
            if value is UNRESOLVED:
                raise ExecutionError(f"{self.instance_id}: input {name!r} not stable")
            values[name] = value
        return values

    def state_map(self) -> dict[str, AttributeState]:
        return {
            name: derive_state(
                Readiness(self._readiness[i]), Enablement(self._enablement[i])
            )
            for i, name in enumerate(self.plan.names)
        }

    def value_map(self) -> dict[str, object]:
        sv = self._sv
        return {
            name: sv[i]
            for i, name in enumerate(self.plan.names)
            if sv[i] is not UNRESOLVED
        }

    def __repr__(self) -> str:
        flag = " done" if self.done else ""
        return f"<BatchedInstance {self.instance_id}{flag}>"


class BatchedEngine(Engine):
    """Executes decision-flow instances via a compiled plan and flat state.

    A drop-in substitute for the reference :class:`Engine` (same
    constructor, same submit/run surface, same observer hooks, same
    error behavior) selected through
    ``ExecutionConfig(engine="batched")``.  The submit path, query
    completion, sharing, halting, and pooled-dispatch (``drain_pooled``)
    logic are inherited; only instance construction, the evaluation
    phase, and launch selection are replaced by their array-based
    equivalents — and those run only where the plan's transition memo
    has no recorded step to replay (:meth:`_advance`).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self._obs_on:
            t0 = perf_counter()
            self.plan = CompiledPlan(self.schema, self.strategy)
            self.obs.tracer.record(
                "plan.compile",
                t0,
                perf_counter(),
                args={"schema": self.schema.name, "nodes": len(self.plan.names)},
            )
            registry = self.obs.registry
            self._obs_cohort_forms = registry.counter("cohort_forms")
            self._obs_cohort_joins = registry.counter("cohort_joins")
            self._obs_cohort_splits = registry.counter("cohort_splits")
        else:
            self.plan = CompiledPlan(self.schema, self.strategy)
        if self.share is not None:
            # `_shared_done` edits `speculative_launch` between rounds,
            # behind the memo's back.
            self.plan.memo = False
        #: Cohort execution needs a deterministic trace per typed start
        #: key (`start_cache_ok`: no synthesis and no user-coded
        #: conditions run) and the query cache, whose primaries members
        #: ride; it is mutually exclusive with the engine-level share
        #: table, whose hit/join rewiring happens inside _launch.  And
        #: %Permitted must be 100: a member's launches stand for
        #: followers of the representative's primaries, and follower
        #: handles do not count toward the parallelism budget
        #: (simdb.database._CacheFollower.counts_for_parallelism is False), so a
        #: throttled strategy would legitimately schedule members
        #: differently from their representative — permitted_slots grants
        #: the whole pool unconditionally only at 100%.  Anywhere else
        #: the flag is accepted and inert.
        self._cohorts_on = (
            self.cohorts
            and self.plan.start_cache_ok
            and self.share is None
            and self.query_cache is not None
            and self.strategy.permitted >= 100
        )
        #: start_key → the open cohort formed for that valuation at
        #: ``_cohort_instant``, the instant of the latest start: one is
        #: taken off when its representative moves on (`_close`), and
        #: since a cohort can only be joined at its own start instant the
        #: table is emptied whenever a start finds the clock has moved on
        #: — it never holds more than one instant's valuations.
        self._open_cohorts: dict[object, _Cohort] = {}
        self._cohort_instant: float | None = None
        #: cohorts dissolved, by what made them (kept for tests)
        self.cohort_exits = {"join": 0, "answered": 0, "cancelled": 0}
        #: joins that took more than one arrival of a run, and their members
        self.bulk_joins = self.bulk_join_members = 0
        #: stage record being captured while the representative advances
        self._recording: _StageRecord | None = None
        #: The flow memo, start_key → :class:`_FlowTrace` (see "flow memo"
        #: below).  Armed where the transition memo is — no user code, so
        #: a valuation has one trace — and there is a query memo to be
        #: served from.
        self._flow_traces: dict[object, _FlowTrace] | None = (
            {} if self.plan.memo and self.query_cache is not None else None
        )
        self.flow_replays = 0
        self.flow_fallbacks = 0
        if self.query_cache is None or self.share is not None:
            # The launch memo (:meth:`_launch`) files cache keys, and a share
            # table rewires launches before any is asked for: no task is on it.
            self.plan.launch_slots = [None] * self.plan.n
        #: the hit wave still taking deliveries, if any
        self._wave: _HitWave | None = None
        #: waves fired, their deliveries, and the waves that gave way mid-run
        self.hit_waves = self.hit_wave_deliveries = self.hit_wave_splits = 0

    def _make_instance(
        self,
        source_values: Mapping[str, object],
        instance_id: str,
        start_time: float,
    ) -> BatchedInstance:
        return BatchedInstance(self.plan, instance_id, source_values, start_time)

    def _tracks_unneeded(self, instance: BatchedInstance) -> bool:
        return instance._unneeded is not None

    def _is_unneeded(self, instance: BatchedInstance, name: str) -> bool:
        return bool(instance._unneeded[self.plan.index[name]])

    def _advance(self, instance: BatchedInstance) -> None:
        """Second half of a memoized round, or the kernel's whole round."""
        if instance._state is not None and (
            instance._event is not None or instance._enter(EV_CANCELLED)
        ):
            launches = instance._event[5]
            instance._event = None
            state = instance._state
            if state.done:
                self._finish(instance)
                return
            if state.scan:
                self._cancel_unneeded(instance)
            for name in launches:
                self._launch(instance, name)
            return
        missed, instance._event = instance._event, None
        if missed is None:
            return super()._advance(instance)
        metrics = instance.metrics
        queries = metrics.speculative_wasted_queries
        units = metrics.speculative_wasted_units
        super()._advance(instance)
        self.plan.record(
            *missed,
            instance,
            metrics.speculative_wasted_queries - queries,
            metrics.speculative_wasted_units - units,
        )

    def _select(self, instance: BatchedInstance) -> Sequence[str]:
        names = self.plan.names
        return [names[i] for i in self._select_for_launch(instance)]

    def _select_for_launch(self, instance: BatchedInstance) -> Sequence[int]:
        """The scheduling phase over the incrementally maintained pool."""
        cand = instance._cand
        if not cand:
            return ()
        readiness = instance._readiness
        enablement = instance._enablement
        launched = instance._launched
        unneeded = instance._unneeded
        speculative_ok = self.strategy.speculative
        pool: list[int] = []
        dead: list[int] = []
        for i in cand:
            if (
                launched[i]
                or readiness[i] != R_READY
                or enablement[i] == E_DISABLED
                or (unneeded is not None and unneeded[i])
            ):
                dead.append(i)
                continue
            if enablement[i] == E_UNKNOWN and not speculative_ok:
                continue  # stays a candidate: may enable later
            pool.append(i)
        for i in dead:
            cand.discard(i)
        if not pool:
            return ()
        slots = permitted_slots(len(pool), counted_inflight(instance), self.strategy.permitted)
        if slots <= 0:
            return ()
        pool.sort(key=self.plan.rank.__getitem__)
        return pool[:slots]

    def _stage_launch(self, instance: BatchedInstance, name: str):
        """Array-backed half of a launch; the inherited sharing/dispatch
        protocol in :meth:`Engine._launch` runs unchanged on top.  Serves
        only the launches :meth:`_launch` has no launch-memo entry for."""
        plan = self.plan
        i = plan.index[name]
        values = instance._input_values(i)
        speculative = instance._enablement[i] == E_UNKNOWN
        if instance._state is None:  # else the state it entered has this launch
            instance._launched[i] = 1
            instance._cand.discard(i)
        rec = self._recording
        if rec is not None:
            rec.launches.append(
                _LaunchRecord(name, i, plan.tasks[i], values, speculative)
            )
        return plan.tasks[i], values, speculative

    # -- the launch path: the data plane under the three memo tiers ----------

    def _launch(self, instance: BatchedInstance, name: str) -> None:
        """:meth:`Engine._launch` with a launch-memo entry for what that
        derives (inputs, value, cache key); a key the query memo holds is
        delivered with the rest of its run, by one event."""
        plan = self.plan
        i = plan.index[name]
        entry = plan.launch_entry(i, instance._sv) if self._recording is None else None
        if entry is None:
            return super()._launch(instance, name)
        key, value, _ = entry
        speculative = instance._enablement[i] == E_UNKNOWN
        if instance._state is None:  # else the state it entered has this launch
            instance._launched[i] = 1
            instance._cand.discard(i)
        metrics = instance.metrics
        metrics.queries_launched += 1
        if self._obs_on:
            self._obs_launches.inc()
            self._obs_query_start[(instance.instance_id, name)] = perf_counter()
        if speculative:
            instance.speculative_launch.add(name)
            metrics.speculative_launched += 1
        if self.observer is not None:
            self.observer.on_launch(instance, name, speculative=speculative, shared=None)
        cache, cost = self.query_cache, plan.cost[i]
        follower = cache.hit(key, cost)
        if follower is None:

            def done(processed: int, completed: bool) -> None:
                self._query_done(instance, name, value, None, processed, completed)

            instance.inflight[name] = cache.submit(key, cost, done)
            return
        instance.inflight[name] = follower
        sim, wave = self.sim, self._wave
        if wave is not None and wave.instance is instance and wave.marker == sim.scheduled:
            wave.hits.append((name, follower, entry))
            return
        self._wave = wave = _HitWave(instance, (name, follower, entry))
        wave.event = sim.schedule_at(sim.now, lambda: self._fire_wave(wave, 0), (2, 0))
        wave.marker = sim.scheduled

    def _fire_wave(self, wave: _HitWave, k: int) -> None:
        """Deliver ``wave.hits[k:]``, each as its own event would have.

        A delivery is `_query_done` for a completed zero-unit hit written
        out, with the entry's signature; anything else — a wait cancelled
        meanwhile, an instance done, in a cohort or off the transition
        memo, an armed run — is `_query_done` itself.  After one that
        scheduled what the rest would have waited for (a closed loop's next
        start, a cancellation landing now) the rest goes back at the wave's seq.
        """
        if self._wave is wave:
            self._wave = None  # what its deliveries launch is a later run
        instance, hits, sim = wave.instance, wave.hits, self.sim
        n = len(hits)
        if k == 0:
            self.hit_waves += 1
            self.hit_wave_deliveries += n
        while k < n:
            name, follower, (_, value, sig) = hits[k]
            k += 1
            marker = sim.scheduled
            follower.finished = True
            if (
                follower.cancel_requested
                or instance.done
                or instance._state is None
                or instance._cohort is not None
                or self._obs_on
            ):
                self._query_done(instance, name, value, None, 0, not follower.cancel_requested)
            else:
                instance.inflight.pop(name, None)
                if self.observer is not None:
                    self.observer.on_query_done(instance, name, units=0, completed=True)
                metrics = instance.metrics
                metrics.queries_completed += 1
                if not instance.apply_query_result(name, value, sig):
                    metrics.speculative_wasted_queries += 1
                self._advance(instance)
                if instance._flow is not None:
                    self._flow_delivered(instance, name, True)
            if k < n and sim.scheduled != marker and sim.preempted(wave.event):
                self.hit_wave_splits += 1
                return sim.resume(wave.event, lambda: self._fire_wave(wave, k))
        wave.event = None  # its callback holds the wave: leave no cycle behind

    # -- cohort execution ---------------------------------------------------
    #
    # Whole-instance dedup over the typed start key.  The first instance
    # of a (start valuation, start instant) point becomes the cohort
    # *representative*; one arriving at the same point while the
    # representative is still at its start stage *rides* it iff every
    # query the representative waits on is a cache primary of its own
    # with no real follower behind it (:meth:`_rides`).  Each launch of
    # the arrival would then coalesce behind that primary, deliver zero
    # units and inherit its outcome, so the members of a cohort are
    # *bit-identical* until they finish and ride in lockstep: they never
    # submit a query (one weighted virtual attachment per primary keeps
    # cache counters and cancel-pinning exact), hold no arrays until they
    # finish, and share one metrics template that each copies on
    # finishing.  Per-member work remains only where identity genuinely
    # diverges: observer events (skipped when nobody listens) and
    # finishing.  An arrival that cannot ride starts as the ordinary
    # instance it is — its launches coalesce or hit like anyone's — and
    # the cohort leaves the table.
    #
    # There is one way out of lockstep, :meth:`_dissolve`: every member
    # becomes the ordinary instance it would be at that point, with a
    # real follower of its own behind each primary, so database totals,
    # cache counters, event sequences and cancel-pinning are unchanged by
    # construction.  It is taken when an arrival cannot ride a cohort
    # that has members (a real follower has coalesced since the last
    # join, and would sit between them and the arrival), when the cache
    # answers one of the representative's later launches (a memo hit, or
    # a coalesce into some other issuer's primary: members need
    # deliveries of their own from there), and when members cancelled a
    # wait whose query went on to complete for the representative.

    def _start(self, instance: BatchedInstance) -> None:
        if self._cohorts_on and self.sim.now != self._cohort_instant:
            self._open_cohorts.clear()
            self._cohort_instant = self.sim.now
        traces = self._flow_traces
        if traces is not None:
            trace = traces.get(instance._start_key)
            if trace is None:
                if len(traces) < FLOW_LIMIT:
                    instance._flow = []
            elif self.query_cache.touch(trace.head.keys):
                instance._flow = trace
                self.flow_replays += 1
                if self.observer is not None:
                    self.observer.on_instance_start(instance)
                return self._flow_wave(instance, trace, trace.head)
        self._start_unreplayed(instance)
        if instance._flow is not None:
            self._flow_delivered(instance, None, True)

    def _start_unreplayed(self, instance: BatchedInstance) -> None:
        if not self._cohorts_on:
            return super()._start(instance)
        key = instance._start_key
        cohort = self._open_cohorts.get(key)
        if cohort is None:
            instance._cohort = cohort = _Cohort(instance, self.sim.now)
            super()._start(instance)
            self._open_cohorts[key] = cohort
            if self._obs_on:
                self._obs_cohort_forms.inc()
                self.obs.tracer.instant("cohort.form", args={"rep": instance.instance_id})
        elif self._rides(cohort):
            instance._flow = None  # a member rides; its representative records
            self._join_lockstep(cohort, self._riders(instance))
        else:
            del self._open_cohorts[key]
            self._dissolve(cohort, cohort.log, "join")
            super()._start(instance)

    def _rides(self, cohort: _Cohort) -> bool:
        """Whether an arrival at open *cohort* can ride in lockstep now:
        virtual attachments fan ahead of a primary's real followers, so
        every wait of the representative must be a primary nobody has
        really coalesced behind."""
        cache = self.query_cache
        if cache.follower_epoch != cohort.epoch:
            for handle in cohort.rep.inflight.values():
                if not cache.is_primary(handle) or cache.follower_count(handle):
                    return False
            cohort.epoch = cache.follower_epoch
        return True

    def _close(self, cohort: _Cohort) -> None:
        """Take *cohort* off the table: its representative has moved on."""
        key = cohort.rep._start_key
        if self._open_cohorts.get(key) is cohort:
            del self._open_cohorts[key]

    def _record_start(self, cohort: _Cohort) -> None:
        """The start stage's record and the members' shared metrics,
        built when the first member joins: an open cohort's
        representative has had nothing delivered, so its in-flight
        queries are its start launches, in order."""
        rep, plan = cohort.rep, self.plan
        rec = _StageRecord(None)
        rec.done_after = rep.done
        # Cohort-eligible schemas run no synthesis (start_cache_ok), so
        # the shared record starts from zero counters plus the start
        # stage's launch bookkeeping.
        cohort.template = template = InstanceMetrics(
            instance_id=f"cohort:{rep.instance_id}", start_time=cohort.start_time
        )
        for name in rep.inflight:
            i, speculative = plan.index[name], name in rep.speculative_launch
            values = rep._input_values(i)
            launch = _LaunchRecord(name, i, plan.tasks[i], values, speculative)
            rec.launches.append(launch)
            cohort.virtual[name] = launch
            template.queries_launched += 1
            if speculative:
                template.speculative_launched += 1
        cohort.absorb(rec)

    def _query_done(self, instance, name, value, key, processed, completed) -> None:
        cohort = getattr(instance, "_cohort", None)
        if cohort is None:
            super()._query_done(instance, name, value, key, processed, completed)
        elif cohort.members:
            self._lockstep_rep_done(cohort, instance, name, value, key, processed, completed)
        else:
            # Nobody rode, and from its first delivery on nobody can.
            self._close(cohort)
            instance._cohort = None
            super()._query_done(instance, name, value, key, processed, completed)
        if instance._flow is not None:
            self._flow_delivered(instance, name, completed)

    def _record_stage(
        self, cohort: _Cohort, instance, name, value, key, processed, completed
    ) -> _StageRecord:
        """Run the representative's advance and append its stage record."""
        plan = self.plan
        i = plan.index[name]
        handle = instance.inflight.get(name)
        rec = _StageRecord(name)
        rec.completed = completed
        rec.failed = (
            completed and handle is not None and getattr(handle, "failed", False)
        )
        # Both checks read state the advance can only move *toward*
        # DISABLED, so they are captured before it runs — exactly where
        # the reference path evaluates them.
        rec.accepted = completed and instance._enablement[i] != E_DISABLED
        rec.cancel_wasted = (
            not completed
            and name in instance.speculative_launch
            and instance._enablement[i] == E_DISABLED
        )
        pre_inflight = [n for n in instance.inflight if n != name]
        before_queries = instance.metrics.speculative_wasted_queries
        before_units = instance.metrics.speculative_wasted_units
        self._recording = rec
        try:
            super()._query_done(instance, name, value, key, processed, completed)
        finally:
            self._recording = None
        # The representative's wasted-work delta has a query-unit-based
        # part (members hold zero-unit followers) and a drain-derived
        # remainder (plan-cost-based, identical for every member).
        query_queries = query_units = 0
        if (completed and not rec.accepted) or rec.cancel_wasted:
            query_queries, query_units = 1, processed
        rec.drain_wasted_queries = (
            instance.metrics.speculative_wasted_queries - before_queries - query_queries
        )
        rec.drain_wasted_units = (
            instance.metrics.speculative_wasted_units - before_units - query_units
        )
        rec.done_after = instance.done
        if not instance.done and self.strategy.cancel_unneeded and instance._unneeded is not None:
            unneeded = instance._unneeded
            index = plan.index
            rec.cancels = tuple(n for n in pre_inflight if unneeded[index[n]])
        cohort.absorb(rec)
        return rec

    def _listening(self):
        """The observer, or None when event emission would be unobservable."""
        obs = self.observer
        if obs is None or not getattr(obs, "has_listeners", True):
            return None
        return obs

    def _riders(self, instance: BatchedInstance) -> list[BatchedInstance]:
        """*instance*, about to ride an open cohort, and the arrivals right
        behind it in the run being fired whose start would make the very
        same decision: the same typed start key — so the same cohort,
        still open and still ridable, since joining changes neither — with
        no flow trace on file for it, and no ``on_complete`` callback
        pending among them (one may schedule what the next start would
        have waited for).  The run moves past those taken.
        """
        riders, run = [instance], self._firing
        key, pending, traces = instance._start_key, self._on_complete, self._flow_traces
        if (
            run is None
            or instance.instance_id in pending
            or (traces is not None and key in traces)
        ):
            return riders
        arrivals, k = run.arrivals, run.next
        n = len(arrivals)
        while k < n and arrivals[k]._start_key == key and arrivals[k].instance_id not in pending:
            k += 1
        riders += arrivals[run.next : k]
        run.next = k
        return riders

    def _join_lockstep(self, cohort: _Cohort, members: list[BatchedInstance]) -> None:
        """*members* (consecutive arrivals: :meth:`_riders`) ride *cohort*
        from its start stage, in one step: one extension of its member
        list, one weighted virtual attachment per primary the
        representative waits on.  Per-member work is left only where
        identity diverges — observer calls, member-major as one start
        event each would have made them and skipped when nobody listens,
        and finishing when the representative finished at its start.  A
        member whose observer schedules anything (or raises) is the last
        to join: the rest are handed back to the run, which decides as it
        does after any start whether they still go next.
        """
        if not cohort.log:
            self._record_start(cohort)
        rec, sim = cohort.log[0], self.sim
        obs = self._listening()
        joined = len(members)
        try:
            if obs is not None or rec.done_after:
                joined, marker = 0, sim.scheduled
                for member in members:
                    joined += 1
                    if obs is not None:
                        obs.on_instance_start(member)
                    if rec.done_after:
                        self._finish_lockstep_member(cohort, member)
                    elif obs is not None:
                        for launch in rec.launches:
                            obs.on_launch(
                                member, launch.name, speculative=launch.speculative, shared=None
                            )
                    if sim.scheduled != marker:
                        break
        finally:
            if joined < len(members):
                self._firing.next -= len(members) - joined
                del members[joined:]
            for member in members:
                member._cohort = cohort
            cohort.members.extend(members)
            self.cohort_hits += joined
            if joined > 1:
                self.bulk_joins += 1
                self.bulk_join_members += joined
            if self._obs_on:
                self._obs_cohort_joins.inc(joined)
                args = {"member": members[0].instance_id, "members": joined}
                self.obs.tracer.instant("cohort.join", args=args)
            if not rec.done_after:
                cache, inflight = self.query_cache, cohort.rep.inflight
                for launch in rec.launches:
                    cache.attach_virtual(inflight[launch.name], joined)

    def _lockstep_rep_done(
        self, cohort: _Cohort, rep, name, value, key, processed, completed
    ) -> None:
        launch = cohort.virtual.pop(name, None)
        live_virtual = launch is not None
        if not live_virtual:
            launch = cohort.cancelled.pop(name)
        handle = rep.inflight.get(name)
        failed = completed and handle is not None and getattr(handle, "failed", False)
        if rep.done:
            # Post-halt straggler: the representative books its own
            # event, then each (finished) member resolves its wait.
            super()._query_done(rep, name, value, key, processed, completed)
            self._lockstep_straggle(cohort, launch, name, completed, live_virtual, failed)
            return
        self._close(cohort)
        rec = self._record_stage(cohort, rep, name, value, key, processed, completed)
        cache = self.query_cache
        if completed and not live_virtual:
            trigger = "cancelled"  # a wait the members had cancelled: they part here
        elif not all(cache.is_primary(rep.inflight.get(made.name)) for made in rec.launches):
            trigger = "answered"  # a launch the cache answered: no primary to ride
        else:
            return self._lockstep_fan(cohort, rep, rec, live_virtual)
        # Dissolved as of the stage before, each member takes this
        # delivery as its own follower's.
        cost, cancelled = launch.task.cost, not live_virtual
        for member in self._dissolve(cohort, cohort.log[:-1], trigger):
            wait = self._own_wait(member, name, value)
            member.inflight[name] = follower = cache.follower(None, cost, wait, cancelled)
            follower.failed = failed
            cache.deliver(follower)

    def _lockstep_fan(
        self, cohort: _Cohort, rep, rec: _StageRecord, live_virtual: bool
    ) -> None:
        template = cohort.template
        if live_virtual:
            # Members inherit the primary's outcome with zero units.
            template.queries_completed += 1
            if rec.failed:
                template.queries_failed += 1
            if not rec.accepted:
                template.speculative_wasted_queries += 1
        else:
            template.queries_cancelled += 1
            if rec.cancel_wasted:
                template.speculative_wasted_queries += 1
        template.speculative_wasted_queries += rec.drain_wasted_queries
        template.speculative_wasted_units += rec.drain_wasted_units
        cache = self.query_cache
        count = len(cohort.members)
        for cancel_name in rec.cancels:
            moved = cohort.virtual.pop(cancel_name, None)
            if moved is None:
                continue  # members already cancelled this wait earlier
            cohort.cancelled[cancel_name] = moved
            cache.release_virtual(rep.inflight[cancel_name], count)
        name = rec.name
        member_completed = live_virtual
        if rec.done_after:
            obs = self._listening()
            for member in cohort.members:
                if obs is not None:
                    obs.on_query_done(member, name, units=0, completed=member_completed)
                self._finish_lockstep_member(cohort, member)
            if self.halt_policy == "cancel":
                for vname in list(cohort.virtual):
                    cohort.cancelled[vname] = cohort.virtual.pop(vname)
                    cache.release_virtual(rep.inflight[vname], count)
            return
        launches = rec.launches
        template.queries_launched += len(launches)
        for new_launch in launches:
            if new_launch.speculative:
                template.speculative_launched += 1
            cache.attach_virtual(rep.inflight[new_launch.name], count)
            cohort.virtual[new_launch.name] = new_launch
        obs = self._listening()
        if obs is not None:
            for member in cohort.members:
                obs.on_query_done(member, name, units=0, completed=member_completed)
                for new_launch in launches:
                    obs.on_launch(
                        member,
                        new_launch.name,
                        speculative=new_launch.speculative,
                        shared=None,
                    )

    def _lockstep_straggle(
        self,
        cohort: _Cohort,
        launch: _LaunchRecord,
        name: str,
        completed: bool,
        live_virtual: bool,
        failed: bool,
    ) -> None:
        member_completed = live_virtual and completed
        obs = self._listening()
        for member in cohort.members:
            if obs is not None:
                obs.on_query_done(member, name, units=0, completed=member_completed)
            metrics = member.metrics
            if member_completed:
                metrics.queries_completed += 1
                if failed:
                    metrics.queries_failed += 1
            else:
                metrics.queries_cancelled += 1
                if (
                    launch.speculative
                    and member._enablement[launch.index] == E_DISABLED
                ):
                    metrics.speculative_wasted_queries += 1

    def _own_wait(self, instance: BatchedInstance, name: str, value):
        """The completion callback of a follower handed to an instance
        that ran on someone's record (a dissolved member, a flow replay
        falling back): from here on its deliveries are its own."""
        return lambda processed, completed: self._query_done(
            instance, name, value, None, processed, completed
        )

    def _dissolve(self, cohort: _Cohort, recs: Sequence[_StageRecord], trigger: str) -> list:
        """The one way out of lockstep: every member of *cohort* becomes
        the ordinary instance it would be after the stages *recs*.

        Its arrays are the ones :meth:`_materialize` rebuilds, its
        counters the template's, and behind each primary the cohort was
        virtually attached to it gets a real follower — already cancelled
        where the members had cancelled the wait — ahead of any that
        coalesced later.  Returns the members, in join order.
        """
        members, cohort.members = cohort.members, []
        cohort.rep._cohort = None
        if not members:
            return members
        self.cohort_splits += len(members)
        self.cohort_exits[trigger] += 1
        if self._obs_on:
            self._obs_cohort_splits.inc(len(members))
            args = {"rep": cohort.rep.instance_id, "members": len(members), "trigger": trigger}
            self.obs.tracer.instant("cohort.split", args=args)
        made = [(launch.name, launch.speculative) for rec in recs for launch in rec.launches]
        launched = cohort.launch_by_name
        delivered = [
            (rec.name, launched[rec.name].value_for(rec.failed))
            for rec in recs[1:] if rec.completed
        ]  # fmt: skip
        for member in members:
            member._cohort = None
            self._materialize(member, made, delivered)
            self._copy_counters(cohort.template, member.metrics)
        cache, inflight = self.query_cache, cohort.rep.inflight
        for waits, cancelled in ((cohort.virtual, False), (cohort.cancelled, True)):
            for name, launch in waits.items():
                cost, value = launch.task.cost, launch.value()
                specs = [
                    (cost, self._own_wait(member, name, value), cancelled) for member in members
                ]
                followers = cache.materialize_virtual(inflight[name], specs)
                for member, follower in zip(members, followers):
                    member.inflight[name] = follower
        return members

    def _materialize(self, instance: BatchedInstance, made, delivered) -> None:
        """Give an instance that has run on a record of its trace — a
        cohort member, a flow replay — the arrays it would hold had it
        run for real: the start state, the ``(name, speculative)``
        launches *made*, the ``(name, value)`` results *delivered*."""
        instance.start()
        if instance._state is not None:
            instance._own(instance._state)  # the replay writes them directly
        instance._event = None
        index = self.plan.index
        for name, speculative in made:
            i = index[name]
            instance._launched[i] = 1
            instance._cand.discard(i)
            if speculative:
                instance.speculative_launch.add(name)
        # The results are applied on a scratch metrics object: whatever
        # they book was booked, or recorded, when they arrived.
        real_metrics = instance.metrics
        instance.metrics = InstanceMetrics(
            instance_id=instance.instance_id, start_time=real_metrics.start_time
        )
        try:
            for name, value in delivered:
                instance.apply_query_result(name, value)
                instance.drain()
        finally:
            instance.metrics = real_metrics

    def _end_state(self, rep: BatchedInstance):
        """The state the members (or replays) of a done instance alias.

        The interned one when the memo served it to the end; otherwise
        its own arrays, frozen once (uninterned — it has no way on).
        """
        if rep._state is None:
            rep._alias(self.plan.freeze(rep))
        return rep._state

    @staticmethod
    def _copy_counters(src: InstanceMetrics, dst: InstanceMetrics) -> None:
        dst.work_units = src.work_units
        dst.queries_launched = src.queries_launched
        dst.queries_completed = src.queries_completed
        dst.queries_cancelled = src.queries_cancelled
        dst.queries_failed = src.queries_failed
        dst.shared_hits = src.shared_hits
        dst.shared_joins = src.shared_joins
        dst.speculative_launched = src.speculative_launched
        dst.speculative_wasted_queries = src.speculative_wasted_queries
        dst.speculative_wasted_units = src.speculative_wasted_units
        dst.synthesis_executed = src.synthesis_executed

    def _finish_lockstep_member(self, cohort: _Cohort, member: BatchedInstance) -> None:
        """Materialize a lockstep member from the shared cohort state.

        All members of a cohort end bit-identical (same start valuation,
        same inherited outcomes), so they alias the representative's end
        state — which carries the attribute counters
        :meth:`finalize_metrics` derives — and its value lists: done
        instances never write their arrays again.
        """
        rep = cohort.rep
        member.done = True
        self._copy_counters(cohort.template, member.metrics)
        member.metrics.finish_time = self.sim.now
        member._alias(self._end_state(rep))
        member._raw = rep._raw
        member._sv = rep._sv
        member.finalize_metrics()
        if self.observer is not None:
            self.observer.on_instance_complete(member)
        callback = self._on_complete.pop(member.instance_id, None)
        if callback is not None:
            callback(member.metrics)

    # -- flow memo ------------------------------------------------------------
    #
    # The third memo tier: the query memo answers a query, the transition
    # memo a scheduling round, this one an instance (:class:`_FlowTrace`).
    # A replay shows the cache every key it would have been asked for —
    # counted and refreshed in launch order, inside the event that made
    # the launch — and observers every call; nothing else runs.

    @property
    def flow_traces(self) -> int:
        """Traces on file (0 where the flow memo is not armed)."""
        return len(self._flow_traces or ())

    def _flow_delivered(self, instance: BatchedInstance, name, completed: bool) -> None:
        """Record the round a delivery (the start: no *name*) just ran.

        Its launches are the newest entries in flight.  One that waits on
        data — a miss or a coalesce — ends the recording;
        an instance done with nothing in flight is filed, unless its key
        is by identity: a copy of the sources must key the same, or the
        key says nothing once the caller changes the object.
        """
        rec = instance._flow
        inflight = instance.inflight
        metrics = instance.metrics
        made = metrics.queries_launched - (rec[-1][3]["queries_launched"] if rec else 0)
        launches = []
        for launch in list(inflight)[-made:] if made else ():
            handle = inflight[launch]
            if not getattr(handle, "memo", False):
                instance._flow = None
                return
            launches.append((launch, launch in instance.speculative_launch, handle.key))
        counters = {field: getattr(metrics, field) for field in _FLOW_COUNTERS}
        # a stage, plus the counters and the done flag after it
        rec.append((name, completed, tuple(launches), counters, instance.done))
        if instance.done and not inflight:
            instance._flow = None
            traces, key = self._flow_traces, instance._start_key
            if key not in traces and len(traces) < FLOW_LIMIT:
                try:
                    copied = deepcopy(instance._sources)
                except Exception:  # whatever user code raises: as good as by identity
                    return
                if self.plan.start_key(copied) == key:
                    traces[key] = _FlowTrace(rec, instance, self._end_state(instance))

    def _flow_event(self, instance: BatchedInstance, wave: _FlowWave) -> None:
        """A scheduled wave fires: replay it, or discover an eviction."""
        trace = instance._flow
        if trace is None:
            # Fell back in the first half of this wave; these are the
            # stragglers of the finish that half ran for real.
            for name, _, _ in wave.stages:
                self.query_cache.deliver(instance.inflight[name])
        elif self.query_cache.touch(wave.keys):
            self._flow_wave(instance, trace, wave)
        else:
            self._flow_fall_back(instance, trace, wave)

    def _flow_wave(self, instance: BatchedInstance, trace: _FlowTrace, wave: _FlowWave) -> None:
        """Replay one wave whose launches the cache has just been shown."""
        if self._obs_on:
            t0 = perf_counter()
        obs = self._listening()
        if obs is not None:
            for name, completed, launches in wave.stages:
                if name is not None:
                    obs.on_query_done(instance, name, units=0, completed=completed)
                for launch, speculative, _ in launches:
                    obs.on_launch(instance, launch, speculative=speculative, shared=None)
        vars(instance.metrics).update(wave.counters)
        now = self.sim.now
        for fed in wave.next:
            self.sim.schedule_at(now, lambda fed=fed: self._flow_event(instance, fed), (2, 0))
        if self._obs_on:
            self._obs_launches.inc(len(wave.keys))
            self._obs_rounds.inc(wave.rounds)
            args = {"instance": instance.instance_id, "rounds": wave.rounds}
            self.obs.tracer.record("engine.replay", t0, perf_counter(), args=args)
        if wave.finishes:
            # One valuation, one end: alias the recorded instance's, as a
            # lockstep member does its representative's.
            instance._alias(trace.state)
            instance._raw, instance._sv = trace.raw, trace.sv
            self._finish(instance)

    def _flow_fall_back(self, instance, trace: _FlowTrace, wave: _FlowWave) -> None:
        """Leave the table at a wave boundary: a key *wave* launches was
        evicted, so the instance is no longer all-hit.

        Nothing of the wave has run.  The instance takes real arrays the
        way a dissolved cohort member does (:meth:`_materialize`) and
        real followers for the pending deliveries, then runs this
        event's share of them for real.
        """
        self.flow_fallbacks += 1
        instance._flow = None
        plan, raw, stages, lo = self.plan, trace.raw, trace.stages, wave.lo
        index = plan.index
        made = [launch for stage in stages[:lo] for launch in stage[2]]
        delivered = [(name, raw[index[name]]) for name, ok, _ in stages[1:lo] if ok]
        self._materialize(instance, [launch[:2] for launch in made], delivered)
        for (name, _, key), (_, completed, _) in zip(made[lo - 1 :], stages[lo:]):
            i = index[name]
            instance.inflight[name] = self.query_cache.follower(
                key, plan.cost[i], self._own_wait(instance, name, raw[i]), cancelled=not completed
            )
        self._flow_event(instance, wave)

    def __repr__(self) -> str:
        done = sum(1 for i in self.instances if i.done)
        shared = " shared" if self.share is not None else ""
        return (
            f"<BatchedEngine {self.schema.name!r} strategy={self.strategy.code}{shared} "
            f"instances={done}/{len(self.instances)} done>"
        )
