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
  comparison) an instance *aliases* the arrays of an interned
  :class:`~repro.core.plan.ControlState` and owns only its value
  lists, and a scheduling round is a lookup of
  ``(state, event)``: a hit applies the recorded stable-value writes,
  wasted-work deltas and launch list and swaps the alias — no
  propagation runs; a miss copies the arrays, runs the kernel below
  unchanged and files the transition.  An instance that missed keeps
  its own arrays for the rest of its life (a population where every
  instance takes its own path would otherwise pay an interning per
  round), so each records at most one step;
* a run of query-memo hits is delivered by one event (a *hit wave*), and
  the longest run of its deliveries whose steps before the last launch,
  finish and cancel nothing is one *wave step*: looked up once under the
  run's ``(slot, signature)`` pairs, and filed there — in the same
  transition memo, under the same bound — once every step of it is on
  file.  A cancelled wait, a cohort member, an instance still recording a
  flow trace, a throttled plan (%Permitted < 100) and an armed run keep
  one round per delivery;
* with a query cache, whole instances are shared on top of that: a
  valuation seen before replays a recorded trace (the flow memo), and
  same-instant copies of a new one ride the first in lockstep as a
  *cohort* — no queries, events or arrays of their own — dissolving
  into ordinary instances where they can ride no further.

The engine owns its whole shell — submission with arrival runs, the
start, query completion, halting — and shares only pure helpers with the
reference engine, so a fault in either shell shows in the differential
suites (``tests/_support``'s harness), which hold every trace here to the
reference engine's, drained one event at a time.
"""

from __future__ import annotations

import itertools
from collections import deque
from copy import deepcopy
from time import perf_counter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.engine import EngineObserver, check_start_time, claim_instance_id
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
from repro.core.schema import DecisionFlowSchema
from repro.core.state import AttributeState, Enablement, Readiness, derive_state
from repro.core.strategy import Strategy
from repro.errors import ExecutionError, IllegalTransitionError
from repro.nulls import NULL, ExceptionValue
from repro.obs import NULL_OBS, Observability
from repro.simdb.database import DatabaseServer, QueryShareCache
from repro.values import share_key

__all__ = ["BatchedEngine", "BatchedInstance"]

_UNSET = object()

#: What an instance reads in place of the per-run containers while it
#: owns none — before it starts for itself, and once it is settled
#: (:meth:`BatchedEngine._settle`): empty, shared, and refusing every write.
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

    The representative and every member link back (``_cohort``), which
    with ``rep`` and ``members`` makes the cohort a reference cycle.  A
    dissolve unlinks them all; in lockstep an instance keeps its link,
    through any post-halt straggler, until it is settled (done with
    nothing in flight) and the engine releases it
    (:meth:`BatchedEngine.release_settled`).  Once the last is
    released, reference counting frees the cohort and its records.
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


class _ArrivalRun:
    """Arrivals for one instant that one calendar event starts, in order.

    The event is the *first* arrival's start event and the run itself its
    callback; ``arrivals`` (None while ``first`` is alone: a lone arrival
    pays for no list) are the starts it stands in for, ``next`` indexes the
    one to start next, and the run takes another arrival only while
    ``sim.scheduled`` still reads ``marker`` — while that arrival's own
    start event would have had the next consecutive seq.
    """

    __slots__ = ("engine", "first", "arrivals", "next", "event", "marker")

    def __init__(self, engine: "BatchedEngine", first: "BatchedInstance"):
        self.engine, self.first = engine, first
        self.arrivals: list[BatchedInstance] | None = None
        self.next = 0

    def __call__(self) -> None:
        self.engine._fire_run(self)


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

    def __repr__(self) -> str:
        flag = " done" if self.done else ""
        return f"<BatchedInstance {self.instance_id}{flag}>"


class BatchedEngine:
    """Executes decision-flow instances via a compiled plan and flat state.

    The product engine (``ExecutionConfig(engine="batched")``, the
    default): the reference engine's constructor, submit surface, observer
    hooks and errors, over a shell of its own, index-based — a round runs
    the propagation kernel only where the plan's transition memo has no
    step to replay (:meth:`_advance`).  ``cohorts=False`` is a test seam.
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
        cohorts: bool = True,
    ):
        if halt_policy not in ("cancel", "drain"):
            raise ValueError(f"halt_policy must be 'cancel' or 'drain', got {halt_policy!r}")
        self.schema = schema
        self.strategy = strategy
        self.database = database
        self.sim = database.sim
        self.halt_policy = halt_policy
        self.observer = observer
        if query_cache is True:
            query_cache = QueryShareCache(database)
        self.query_cache: QueryShareCache | None = query_cache or None
        self.instances: list[BatchedInstance] = []
        self._instance_ids: set[str] = set()
        self._id_next = 1  # the number the next generated id tries first
        self._on_complete: dict[str, Callable[[InstanceMetrics], None]] = {}
        #: the arrival run still taking arrivals, if any, and the one of
        #: several being fired; runs opened and the arrivals they took
        self._run: _ArrivalRun | None = None
        self._firing: _ArrivalRun | None = None
        self.arrival_runs = self.arrival_run_arrivals = 0
        self.cohort_hits = self.cohort_splits = 0
        #: Observability (repro.obs): disarmed contexts share NULL_OBS and
        #: pay one boolean test per hook; armed ones get pre-bound
        #: instruments so hot paths never do registry lookups.
        self.obs = obs if obs is not None else NULL_OBS
        self._obs_on = self.obs.enabled
        t0 = perf_counter()
        self.plan = CompiledPlan(schema, strategy)
        if self._obs_on:
            args = {"schema": schema.name, "nodes": len(self.plan.names)}
            self.obs.tracer.record("plan.compile", t0, perf_counter(), args=args)
            registry = self.obs.registry
            self._obs_rounds = registry.counter("engine_scheduling_rounds")
            self._obs_launches = registry.counter("engine_queries_launched")
            self._obs_query_wall = registry.histogram("query_wall_seconds")
            self._obs_completions = registry.counter("engine_instances_completed")
            self._obs_cohort_forms = registry.counter("cohort_forms")
            self._obs_cohort_joins = registry.counter("cohort_joins")
            self._obs_cohort_splits = registry.counter("cohort_splits")
            #: perf_counter at dispatch, keyed (instance_id, attribute) —
            #: closed in _take_result into a query-lifecycle span.
            self._obs_query_start: dict[tuple[str, str], float] = {}
        #: Cohort execution needs a deterministic trace per typed start
        #: key (`start_cache_ok`: no synthesis and no user-coded
        #: conditions run) and the query cache, whose primaries members
        #: ride.  And %Permitted must be 100: a member's launches stand for
        #: followers of the representative's primaries, and follower
        #: handles do not count toward the parallelism budget
        #: (simdb.database._CacheFollower.counts_for_parallelism is False), so a
        #: throttled strategy would legitimately schedule members
        #: differently from their representative — permitted_slots grants
        #: the whole pool unconditionally only at 100%.  Anywhere else,
        #: or built with ``cohorts=False``, every instance runs for itself.
        self._cohorts_on = (
            cohorts
            and self.plan.start_cache_ok
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
        if self.query_cache is None:
            # The launch memo (:meth:`_launch`) files cache keys, so without
            # a cache no task is on it.
            self.plan.launch_slots = [None] * self.plan.n
        #: the hit wave still taking deliveries, if any
        self._wave: _HitWave | None = None
        #: waves fired, their deliveries, and the waves that gave way mid-run
        self.hit_waves = self.hit_wave_deliveries = self.hit_wave_splits = 0
        #: Wave steps (:meth:`_compose`) need the memo's unthrottled event
        #: keys, and an armed run counts every delivery as a round of its own.
        self._composing = self.plan.memo and not self.plan.throttled and not self._obs_on
        #: wave steps taken off the memo, filed, and refused by reason (kept for tests)
        self.wave_steps = {"taken": 0, "filed": 0, "unfiled": 0, "full": 0}

    # -- public API -----------------------------------------------------------

    def submit_instance(
        self,
        source_values: Mapping[str, object] | None = None,
        at: float | None = None,
        instance_id: str | None = None,
        on_complete: Callable[[InstanceMetrics], None] | None = None,
    ) -> BatchedInstance:
        """:meth:`Engine.submit_instance <repro.core.engine.Engine.submit_instance>`
        in *arrival runs*: an arrival joins the open run when it starts at
        the run's instant and nothing has been scheduled since the run's
        last arrival — exactly when its own start event would have sorted
        directly behind that arrival's — and opens a new run otherwise.
        One event starts a run's arrivals in order (:meth:`_fire_run`), so
        traces are those of one start event each, while
        :attr:`Simulation.pending` and ``events_executed`` count a run once.
        """
        sim = self.sim
        start_time = sim.now if at is None else at
        # A generated id is drawn from a copy of the counter, which moves
        # once nothing can refuse the submission any more.
        drawn = itertools.count(self._id_next) if instance_id is None else None
        instance_id = claim_instance_id(instance_id, self.schema.name, drawn, self._instance_ids)
        check_start_time(instance_id, start_time, sim.now)
        instance = BatchedInstance(self.plan, instance_id, source_values or {}, start_time)
        if drawn is not None:
            self._id_next = next(drawn)
        self._instance_ids.add(instance_id)
        self.instances.append(instance)
        if on_complete is not None:
            self._on_complete[instance_id] = on_complete
        run = self._run
        if run is not None and run.marker == sim.scheduled and run.event.time == start_time:
            if run.arrivals is None:
                run.arrivals = [run.first]
            run.arrivals.append(instance)
            sim.stand_in(run.event)
        else:
            self._run = run = _ArrivalRun(self, instance)
            run.event = sim.schedule_at(start_time, run)
            self.arrival_runs += 1
        self.arrival_run_arrivals += 1
        run.marker = sim.scheduled
        return instance

    def release_settled(self) -> list[BatchedInstance]:
        """:meth:`Engine.release_settled <repro.core.engine.Engine.release_settled>`,
        each released instance unlinked from its cohort: settled, it is
        past every straggler, so nothing reaches the cohort through it any
        more (see :class:`_Cohort`)."""
        settled = [i for i in self.instances if i.done and not i.inflight]
        if settled:
            self.instances = [i for i in self.instances if not i.done or i.inflight]
        for instance in settled:
            instance._cohort = None
        return settled

    # -- the shell: starts, rounds, completions, halting ----------------------

    def _fire_run(self, run: _ArrivalRun) -> None:
        """Start *run*'s arrivals from ``run.next`` on, each as its own
        start event would have.  After a start that scheduled something
        the rest would have waited for (a lower sub-priority at this
        instant: nothing of the engine's own) the rest goes back at the
        run's seq, as a hit wave's does; so it does — as an instant pool's
        unfired members do — when a start raises.  ``next`` moves as a
        start *begins*: the one that raised is not started again."""
        if self._run is run:
            self._run = None  # an arrival from here on is a later event
        arrivals = run.arrivals
        if arrivals is None:  # a lone arrival: nothing to order it against
            run.event = self._firing = None
            return self._start(run.first)
        sim, event, n = self.sim, run.event, len(arrivals)
        self._firing = run
        t0 = perf_counter() if self._obs_on else 0.0
        try:
            while run.next < n:
                instance = arrivals[run.next]
                run.next += 1
                marker = sim.scheduled
                self._start(instance)
                if run.next < n and sim.scheduled != marker and sim.preempted(event):
                    return sim.resume(event, run)
        except BaseException:
            if run.next < n:
                sim.resume(event, run)
            raise
        finally:
            if self._obs_on:
                args = {"time": event.time, "arrivals": n, "started": run.next}
                self.obs.tracer.record("engine.arrival_run", t0, perf_counter(), args=args)
        self._firing = run.event = None  # its callback is the run: leave no cycle behind

    def _start_own(self, instance: BatchedInstance) -> None:
        """Start *instance* for itself: its start state, then a round."""
        t0 = perf_counter() if self._obs_on else 0.0
        instance.start()
        if self._obs_on:
            args = {"instance": instance.instance_id}
            self.obs.tracer.record("engine.start_state", t0, perf_counter(), args=args)
        if self.observer is not None:
            self.observer.on_instance_start(instance)
        self._after_event(instance)

    def _after_event(self, instance: BatchedInstance) -> None:
        if not self._obs_on:
            return self._advance(instance)
        t0 = perf_counter()
        self._advance(instance)
        args = {"instance": instance.instance_id}
        self.obs.tracer.record("engine.round", t0, perf_counter(), args=args)
        self._obs_rounds.inc()

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
            return self._round(instance)
        metrics = instance.metrics
        queries = metrics.speculative_wasted_queries
        units = metrics.speculative_wasted_units
        self._round(instance)
        self.plan.record(
            *missed,
            instance,
            metrics.speculative_wasted_queries - queries,
            metrics.speculative_wasted_units - units,
        )

    def _round(self, instance: BatchedInstance) -> None:
        """The kernel's round: drain, finish-check, cancel, select, launch."""
        instance.drain()
        if instance.targets_stable():
            self._finish(instance)
            return
        self._cancel_unneeded(instance)
        names = self.plan.names
        for i in self._select_for_launch(instance):
            self._launch(instance, names[i])

    def _cancel_unneeded(self, instance: BatchedInstance) -> None:
        unneeded = instance._unneeded
        if self.strategy.cancel_unneeded and unneeded is not None:
            index = self.plan.index
            for name, handle in list(instance.inflight.items()):
                if unneeded[index[name]] and not self._has_waiters(handle):
                    handle.cancel()

    def _has_waiters(self, handle: object) -> bool:
        # Cancelling a coalesced primary would strand its followers
        # behind a full-cost reissue; keep it running instead.
        return self.query_cache is not None and self.query_cache.waiter_count(handle) > 0

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

    def _take_result(self, instance, name, value, processed, completed) -> None:
        """A query of *instance*'s finished: book it, install a completed
        value, and run the round it starts unless the instance is done."""
        if self._obs_on:
            started = self._obs_query_start.pop((instance.instance_id, name), None)
            if started is not None:
                now = perf_counter()
                args = {"instance": instance.instance_id, "attribute": name}
                args.update(units=processed, completed=completed)
                self.obs.tracer.record("query", started, now, args=args)
                self._obs_query_wall.observe(now - started)
        handle = instance.inflight.pop(name, None)
        metrics = instance.metrics
        metrics.work_units += processed
        if self.observer is not None:
            self.observer.on_query_done(instance, name, units=processed, completed=completed)
        if completed:
            metrics.queries_completed += 1
            if handle is not None and getattr(handle, "failed", False):
                metrics.queries_failed += 1
                value = ExceptionValue(f"query for {name!r} failed")
        else:
            metrics.queries_cancelled += 1
            if (
                name in instance.speculative_launch
                and instance._enablement[self.plan.index[name]] == E_DISABLED
            ):
                metrics.speculative_wasted_queries += 1
                metrics.speculative_wasted_units += processed
        if completed and not instance.done:
            if not instance.apply_query_result(name, value):
                metrics.speculative_wasted_queries += 1
                metrics.speculative_wasted_units += processed
        if not instance.done:
            self._after_event(instance)

    def _finish(self, instance: BatchedInstance) -> None:
        instance.done = True
        instance.metrics.finish_time = self.sim.now
        instance.finalize_metrics()
        if self._obs_on:
            self._obs_completions.inc()
            self.obs.tracer.instant("instance.complete", args={"instance": instance.instance_id})
        if self.halt_policy == "cancel":
            for handle in instance.inflight.values():
                if not self._has_waiters(handle):
                    handle.cancel()
        if self.observer is not None:
            self.observer.on_instance_complete(instance)
        callback = self._on_complete.pop(instance.instance_id, None)
        if callback is not None:
            callback(instance.metrics)

    # -- the launch path: the data plane under the three memo tiers ----------

    def _launch(self, instance: BatchedInstance, name: str) -> None:
        """Launch *name*'s query.  With a launch-memo entry for what a
        launch derives (inputs, value, cache key), a key the query memo
        holds is delivered with the rest of its run, by one event."""
        plan, rec, cache = self.plan, self._recording, self.query_cache
        i = plan.index[name]
        entry = plan.launch_entry(i, instance._sv) if rec is None else None
        if entry is None:
            task, values = plan.tasks[i], instance._input_values(i)
        speculative = instance._enablement[i] == E_UNKNOWN
        if instance._state is None:  # else the state it entered has this launch
            instance._launched[i] = 1
            instance._cand.discard(i)
        if entry is None:
            if rec is not None:
                rec.launches.append(_LaunchRecord(name, i, task, values, speculative))
            value = task.compute(values)
            # A query with a refused input (no key) goes to the database uncached.
            key = share_key(task.name, values) if cache is not None else None
            if key is not None:
                key += (task.cost,)
        else:
            key, value, _ = entry
        metrics = instance.metrics
        metrics.queries_launched += 1
        if self._obs_on:
            self._obs_launches.inc()
            self._obs_query_start[(instance.instance_id, name)] = perf_counter()
        if speculative:
            instance.speculative_launch.add(name)
            metrics.speculative_launched += 1
        if self.observer is not None:
            self.observer.on_launch(instance, name, speculative=speculative)
        cost = plan.cost[i]
        follower = cache.hit(key, cost) if entry is not None else None
        if follower is None:

            def done(processed: int, completed: bool) -> None:
                self._query_done(instance, name, value, processed, completed)

            if key is None:
                instance.inflight[name] = self.database.submit(cost, done)
            else:
                instance.inflight[name] = cache.submit(key, cost, done)
            return
        instance.inflight[name] = follower
        sim, wave = self.sim, self._wave
        if wave is not None and wave.instance is instance and wave.marker == sim.scheduled:
            wave.hits.append((name, follower, entry, i))
            return
        self._wave = wave = _HitWave(instance, (name, follower, entry, i))
        wave.event = sim.schedule_at(sim.now, lambda: self._fire_wave(wave, 0), (2, 0))
        wave.marker = sim.scheduled

    def _fire_wave(self, wave: _HitWave, k: int) -> None:
        """Deliver ``wave.hits[k:]``, each as its own event would have.

        Where it can, a run of deliveries is one wave step
        (:meth:`_compose`).  Otherwise a delivery is `_query_done` for a
        completed zero-unit hit written out, with the entry's signature;
        anything else — a wait cancelled meanwhile, an instance done, in a
        cohort or off the transition memo, an armed run — is `_query_done`
        itself.  After one that scheduled what the rest would have waited
        for (a closed loop's next start, a cancellation landing now) the
        rest goes back at the wave's seq.
        """
        if self._wave is wave:
            self._wave = None  # what its deliveries launch is a later run
        instance, hits, sim = wave.instance, wave.hits, self.sim
        n = len(hits)
        if k == 0:
            self.hit_waves += 1
            self.hit_wave_deliveries += n
        while k < n:
            marker = sim.scheduled
            composed = (
                self._compose(instance, hits, k)
                if self._composing
                and k + 1 < n
                and instance._state is not None
                and instance._flow is None
                and not instance.done
                else 0
            )
            if composed:
                k += composed
            else:
                name, follower, (_, value, sig), _ = hits[k]
                k += 1
                follower.finished = True
                if (
                    follower.cancel_requested
                    or instance.done
                    or instance._state is None
                    or instance._cohort is not None
                    or self._obs_on
                ):
                    self._query_done(instance, name, value, 0, not follower.cancel_requested)
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
                    if instance.done:
                        self._settle(instance)
            if k < n and sim.scheduled != marker and sim.preempted(wave.event):
                self.hit_wave_splits += 1
                return sim.resume(wave.event, lambda: self._fire_wave(wave, k))
        wave.event = None  # its callback holds the wave: leave no cycle behind

    def _compose(self, instance: BatchedInstance, hits: list, k: int) -> int:
        """Deliver the longest run of ``hits[k:]`` that is one wave step.

        The run's ``(slot, signature)`` pairs — up to the first cancelled
        wait — are looked up once in the instance's state; on a miss the
        plan walks the steps on file (:meth:`CompiledPlan.compose`) and
        files the composite when it can.  The step is then taken as each
        delivery's own would have been, in order: raw values written,
        waits finished, ``on_query_done`` per delivery to a listener, and
        the final state's finish, cancel scan and launches as
        :meth:`_advance` takes a memoized round's.  A listener that
        schedules something or cancels a wait of the run ends the run at
        its delivery.  Returns how many deliveries were made (0: none; the
        caller delivers the next one by itself).
        """
        cohort = instance._cohort
        if cohort is not None:
            if cohort.members:
                return 0
            # Nobody rode, and from its first delivery on nobody can.
            self._close(cohort)
            instance._cohort = None
        key = []
        for _, follower, entry, i in hits[k:] if k else hits:
            if follower.cancel_requested:
                break
            key.append(i)
            key.append(entry[2])
        if len(key) < 4:
            return 0
        key = tuple(key)
        plan, state = self.plan, instance._state
        step = state.steps.get(key)
        if step is not None:
            self.wave_steps["taken"] += 1
        else:
            step, outcome = plan.compose(state, key)
            self.wave_steps[outcome] += 1
            if step is None:
                return 0
        m = step[6]
        raw, inflight = instance._raw, instance.inflight
        obs = self._listening()
        if obs is None:
            for name, follower, entry, i in hits[k : k + m]:
                follower.finished = True
                inflight.pop(name, None)
                raw[i] = entry[1]
        else:
            sim = self.sim
            marker = sim.scheduled
            for j, (name, follower, entry, i) in enumerate(hits[k : k + m], 1):
                follower.finished = True
                inflight.pop(name, None)
                raw[i] = entry[1]
                obs.on_query_done(instance, name, units=0, completed=True)
                if j < m and (
                    sim.scheduled != marker
                    or any(hit[1].cancel_requested for hit in hits[k + j : k + m])
                ):
                    step = plan.compose(state, key[: 2 * j], file=False)[0]
                    m = j
                    break
        plan.memo_hits += m
        metrics = instance.metrics
        metrics.queries_completed += m
        final, nulls, copies, wasted_queries, wasted_units, launches, _ = step
        sv = instance._sv
        for i in nulls:
            sv[i] = NULL
        for i in copies:
            sv[i] = raw[i]
        if wasted_queries:
            metrics.speculative_wasted_queries += wasted_queries
            metrics.speculative_wasted_units += wasted_units
        instance._alias(final)
        if final.done:
            self._finish(instance)
            self._settle(instance)
            return m
        if final.scan:
            self._cancel_unneeded(instance)
        for name in launches:
            self._launch(instance, name)
        return m

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

    def _settle(self, instance: BatchedInstance) -> None:
        """Keep only the answer of done *instance* once nothing is in
        flight (it is settled): its per-run containers become the shared
        read-only empties, and its sources and start key go.

        Called where an instance can become settled — after the round it
        finished in, or after a straggler's delivery — and last there:
        after :meth:`_flow_delivered` has filed its trace,
        :meth:`CompiledPlan.record` its final step, and a cohort's members
        have aliased its end state.  A no-op while a straggler is in
        flight, and on an instance already settled.
        """
        if not instance.inflight:
            instance.inflight = _NO_INFLIGHT
            instance.speculative_launch = instance._cand = _NO_NAMES
            instance._queue = _NO_QUEUE
            instance._sources = instance._start_key = None

    def _start(self, instance: BatchedInstance) -> None:
        if self._cohorts_on and self.sim.now != self._cohort_instant:
            self._open_cohorts.clear()
            self._cohort_instant = self.sim.now
        traces = self._flow_traces
        if traces is not None and instance._start_key is not None:
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
        if instance.done:
            self._settle(instance)

    def _start_unreplayed(self, instance: BatchedInstance) -> None:
        key = instance._start_key
        if not self._cohorts_on or key is None:
            return self._start_own(instance)
        cohort = self._open_cohorts.get(key)
        if cohort is None:
            instance._cohort = cohort = _Cohort(instance, self.sim.now)
            self._start_own(instance)
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
            self._start_own(instance)

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

    def _query_done(self, instance, name, value, processed, completed) -> None:
        cohort = instance._cohort
        if cohort is None:
            self._take_result(instance, name, value, processed, completed)
        elif cohort.members:
            self._lockstep_rep_done(cohort, instance, name, value, processed, completed)
        else:
            # Nobody rode, and from its first delivery on nobody can.
            self._close(cohort)
            instance._cohort = None
            self._take_result(instance, name, value, processed, completed)
        if instance._flow is not None:
            self._flow_delivered(instance, name, completed)
        if instance.done:
            self._settle(instance)

    def _record_stage(
        self, cohort: _Cohort, instance, name, value, processed, completed
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
            self._take_result(instance, name, value, processed, completed)
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
                            obs.on_launch(member, launch.name, speculative=launch.speculative)
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
        self, cohort: _Cohort, rep, name, value, processed, completed
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
            self._take_result(rep, name, value, processed, completed)
            self._lockstep_straggle(cohort, launch, name, completed, live_virtual, failed)
            return
        self._close(cohort)
        rec = self._record_stage(cohort, rep, name, value, processed, completed)
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
                    obs.on_launch(member, new_launch.name, speculative=new_launch.speculative)

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
            instance, name, value, processed, completed
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
        its own arrays, frozen once (uninterned — it has no way on).  A
        representative that finished at its start may be settled by the
        time members join: it freezes with empty launch sets, which no
        done state reads.
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
        self._settle(member)

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
                    obs.on_launch(instance, launch, speculative=speculative)
        metrics = instance.metrics
        for field, value in wave.counters.items():
            setattr(metrics, field, value)
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
            self._settle(instance)

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
        return (
            f"<BatchedEngine {self.schema.name!r} strategy={self.strategy.code} "
            f"instances={done}/{len(self.instances)} done>"
        )
