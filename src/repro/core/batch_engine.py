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
  round), so each records at most one step.

The engine-level event handling (query completion, sharing, halting) is
*inherited* from the reference engine, so the two can only diverge in
the instance layer — which the differential harness in
``tests/test_engine_differential.py`` pins down property-by-property.
"""

from __future__ import annotations

from collections import deque
from copy import deepcopy
from time import perf_counter
from typing import Iterator, Mapping, Sequence

from repro.core.engine import Engine
from repro.core.metrics import InstanceMetrics
from repro.core.conditions import UNRESOLVED
from repro.core.sharing import share_key
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


class _LaunchRecord:
    """One launch decision of a cohort representative, replayable per member.

    Carries everything a member needs to issue the *same* query without
    re-running selection or input freezing: the task, the frozen input
    mapping (shared read-only), the speculative flag, and — computed
    lazily, once for the whole cohort — the task value and the query-
    cache share key.
    """

    __slots__ = ("name", "index", "task", "values", "speculative", "_value", "_key")

    def __init__(self, name, index, task, values, speculative):
        self.name = name
        self.index = index
        self.task = task
        self.values = values
        self.speculative = speculative
        self._value = _UNSET
        self._key = _UNSET

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

    def key(self, query_cache) -> tuple | None:
        """The share-key hint for ``_submit_query`` (None without a cache)."""
        if query_cache is None:
            return None
        if self._key is _UNSET:
            self._key = share_key(self.task.name, self.values)
        return self._key


class _StageRecord:
    """One resolution step of a cohort representative.

    ``name`` is the attribute whose query resolved (None for the start
    stage).  The outcome triple (``completed``/``failed``/``accepted``)
    is what members match their own outcome against — any difference
    splits the member off.  ``cancel_wasted`` mirrors the reference
    engine's cancelled-speculative check, ``drain_wasted_*`` the
    state-derived wasted-work deltas booked during the representative's
    advance (identical for every member, unlike the query-unit-based
    parts which members book with their own units).  ``cancels`` are the
    unneeded-cancel decisions members re-apply to their own handles,
    ``launches`` the follow-on launches they replay.
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
    """A representative instance plus the members mirroring its trace.

    Formed at one ``(typed start valuation, start instant)`` point;
    ``open`` while the representative is still at its start stage (the
    only window in which a joining member has missed nothing).  The
    ``log`` is append-only: members consume it by their own stage
    cursor, so a member lagging the representative (bounded/profiled
    backends) mirrors from history, and one running *ahead* of the log
    — or differing in any outcome — is split off.

    ``mode`` is decided at the first join:

    * ``"live"`` — members submit their own queries and mirror the log
      through their own completion callbacks (the only sound mode
      without a query cache, and the fallback whenever a
      representative's launch is answered by the cache rather than
      dispatched as a primary);
    * ``"lockstep"`` — with a query cache, members whose every launch
      would coalesce behind the representative's own primaries are
      tracked *virtually*: one weighted attachment per primary
      (:meth:`QueryShareCache.attach_virtual`), one shared metrics
      ``template`` (members are bit-identical until they finish), and
      per-member work only for observer events, finishing, and the two
      demotion paths back to ``"live"``/ordinary execution.
    """

    __slots__ = (
        "rep",
        "start_time",
        "log",
        "open",
        "live_members",
        "launch_by_name",
        "mode",
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
        self.open = True
        self.live_members = 0
        self.launch_by_name: dict[str, _LaunchRecord] = {}
        #: None until the first member joins, then "live" or "lockstep"
        self.mode: str | None = None
        #: lockstep members in join order (retained after finishing for
        #: post-halt straggler bookkeeping)
        self.members: list = []
        #: the shared per-member metrics record of a lockstep cohort
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
        "_cohort_stage",
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

        missing = set(plan.schema.source_names) - set(source_values)
        if missing:
            raise ExecutionError(f"missing source values: {sorted(missing)}")

        sources = {name: source_values[name] for name in plan.schema.source_names}
        self._sources = sources
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
        #: memo not armed, after its one miss, or a live cohort member.
        self._state = plan.root if plan.memo else None
        #: Between the two halves of a round (a value arriving, then
        #: `_advance`): the transition taken, or on a miss what to file.
        self._event: tuple | None = None
        #: in-flight query handles keyed by attribute name (engine-facing)
        self.inflight: dict[str, object] = {}
        #: attribute names launched while their condition was UNKNOWN
        self.speculative_launch: set[str] = set()
        #: incrementally maintained candidate-pool members (indices)
        self._cand: set[int] | frozenset = set()
        self._queue: deque[int] = deque()
        #: Cohort membership: the _Cohort this instance represents or
        #: mirrors, None for ordinary instances (and for members after a
        #: split detaches them).  ``_cohort_stage`` is a member's cursor
        #: into the cohort log — the next stage record it must mirror.
        self._cohort: _Cohort | None = None
        self._cohort_stage = 0
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
        """Initial evaluation phase: one memo lookup, or the kernel."""
        if self._sv is not None:
            raise ExecutionError(f"instance {self.instance_id} already started")
        plan = self.plan
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

    def start_mirroring(self) -> None:
        """Start as a live cohort member: mirroring and any later split
        write the arrays directly, so the member owns them from here."""
        self.start()
        if self._state is not None:
            self._own(self._state)
        self._event = None

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
        # Not a slot: nothing hot reads it, and a 27th slot would round
        # every instance up 16 bytes.
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

    A drop-in replacement for the reference :class:`Engine` (same
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
        #: conditions run) and is mutually exclusive with the engine-level
        #: share table, whose hit/join rewiring happens inside _launch —
        #: below the seam members mirror.  The query cache composes with
        #: cohorts only at %Permitted == 100: member launches become
        #: followers of the representative's primaries, and follower
        #: handles do not count toward the parallelism budget
        #: (simdb.database._CacheFollower.counts_for_parallelism is False), so a
        #: throttled strategy would legitimately schedule members
        #: differently from their representative — permitted_slots grants
        #: the whole pool unconditionally only at 100%.
        self._cohorts_on = (
            self.cohorts
            and self.plan.start_cache_ok
            and self.share is None
            and (self.strategy.permitted >= 100 or self.query_cache is None)
        )
        #: start_key → the cohort formed for that valuation at
        #: ``_cohort_instant``, the instant of the latest start.  A cohort
        #: can only be joined at its own start instant, so the table is
        #: emptied whenever a start finds the clock has moved on — it never
        #: holds more than one instant's valuations.
        self._open_cohorts: dict[object, _Cohort] = {}
        self._cohort_instant: float | None = None
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
    # Whole-instance dedup over the typed start key: the first
    # instance of a (start valuation, start instant) point becomes the
    # cohort *representative* and records every resolution stage it runs
    # (outcome, cancel decisions, launches, state-derived metric deltas);
    # instances arriving at the same point while the representative is
    # still at its start stage *join* and mirror the log instead of
    # running propagation/selection themselves.  Members still submit
    # their own queries — with a cache they coalesce into the
    # representative's primaries as followers, without one they pay the
    # database exactly as independent instances would — so database
    # totals, cache counters, event sequences, and cancel-pinning are
    # unchanged by construction.  Any outcome divergence (a bounded
    # backend completing out of order, an independent failure draw, a
    # cancel racing a completion) splits the member off: its start-state
    # arrays replay the matched prefix of the log and it continues as an
    # ordinary instance.

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
        if cohort is not None and cohort.open:
            instance._flow = None  # a member mirrors; its representative records
            if cohort.mode is None:
                self._record_start(cohort)
                cohort.mode = self._decide_cohort_mode(cohort)
                if self._obs_on:
                    self.obs.tracer.instant(
                        "cohort.mode",
                        args={"rep": cohort.rep.instance_id, "mode": cohort.mode},
                    )
            if cohort.mode == "lockstep":
                self._join_lockstep(cohort, instance)
            else:
                self._join_cohort(cohort, instance)
            return
        cohort = _Cohort(instance, self.sim.now)
        instance._cohort = cohort
        super()._start(instance)
        self._open_cohorts[key] = cohort
        if self._obs_on:
            self._obs_cohort_forms.inc()
            self.obs.tracer.instant(
                "cohort.form", args={"rep": instance.instance_id}
            )

    def _record_start(self, cohort: _Cohort) -> None:
        """The start stage's record, built when the first member joins:
        an open cohort's representative has had nothing delivered, so
        its in-flight queries are its start launches, in order."""
        rep, plan = cohort.rep, self.plan
        rec = _StageRecord(None)
        rec.done_after = rep.done
        for name in rep.inflight:
            i, speculative = plan.index[name], name in rep.speculative_launch
            values = rep._input_values(i)
            rec.launches.append(_LaunchRecord(name, i, plan.tasks[i], values, speculative))
        cohort.absorb(rec)

    def _query_done(self, instance, name, value, key, processed, completed) -> None:
        cohort = getattr(instance, "_cohort", None)
        if cohort is None or cohort.rep is not instance:
            super()._query_done(instance, name, value, key, processed, completed)
        else:
            self._rep_query_done(cohort, instance, name, value, key, processed, completed)
        if instance._flow is not None:
            self._flow_delivered(instance, name, completed)

    def _rep_query_done(self, cohort, instance, name, value, key, processed, completed) -> None:
        if cohort.mode == "lockstep":
            return self._lockstep_rep_done(
                cohort, instance, name, value, key, processed, completed
            )
        if instance.done:
            return super()._query_done(instance, name, value, key, processed, completed)
        cohort.open = False
        if cohort.live_members == 0:
            # No members joined (or every one finished or split); drop
            # back to the plain path.
            instance._cohort = None
            return super()._query_done(instance, name, value, key, processed, completed)
        self._record_stage(cohort, instance, name, value, key, processed, completed)

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
        # Split the representative's wasted-work delta into the
        # query-unit-based part (members re-book it with their own units)
        # and the drain-derived remainder (plan-cost-based, identical for
        # every member).
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

    # -- lockstep cohorts (cohort-weighted cache attachment) -----------------
    #
    # With a query cache, every member launch would coalesce behind the
    # representative's own primary for the same key, deliver zero units,
    # and inherit the primary's outcome — so members of a same-instant
    # cohort are *bit-identical* until they finish.  Lockstep mode
    # exploits that: members never submit queries (one weighted virtual
    # attachment per primary keeps cache counters and cancel-pinning
    # exact), never replay their arrays until they must, and share one
    # metrics template that each member copies on finishing.  Per-member
    # work remains only where identity genuinely diverges: observer
    # events (skipped when nobody listens), finishing, and the two exits
    # — demotion to live mirroring when a representative launch is
    # answered by the cache instead of dispatched (members must then
    # submit real queries to preserve per-member delivery events), and
    # the all-member split when members cancelled a wait the
    # representative's query went on to complete.

    def _listening(self):
        """The observer, or None when event emission would be unobservable."""
        obs = self.observer
        if obs is None or not getattr(obs, "has_listeners", True):
            return None
        return obs

    def _decide_cohort_mode(self, cohort: _Cohort) -> str:
        cache = self.query_cache
        if cache is None:
            return "live"
        rep = cohort.rep
        for launch in cohort.log[0].launches:
            handle = rep.inflight.get(launch.name)
            if handle is None or not cache.is_primary(handle):
                return "live"
            if cache.follower_count(handle):
                # Another instance already coalesced a real follower, so
                # virtual attachments could no longer fan ahead of it in
                # join order.
                return "live"
        cohort.epoch = cache.follower_epoch
        return "lockstep"

    def _join_lockstep(self, cohort: _Cohort, member: BatchedInstance) -> None:
        if cohort.virtual:
            cache = self.query_cache
            if cache.follower_epoch != cohort.epoch:
                rep = cohort.rep
                if any(
                    cache.follower_count(rep.inflight[vname])
                    for vname in cohort.virtual
                ):
                    # A real follower coalesced behind a representative
                    # primary since the last join; attaching this member
                    # virtually would fan it ahead of that earlier
                    # waiter.  Materialize the members attached so far
                    # (they *do* precede it) and continue the cohort in
                    # live mode.
                    self._demote_lockstep_at_join(cohort)
                    self._join_cohort(cohort, member)
                    return
                cohort.epoch = cache.follower_epoch
        member._cohort = cohort
        cohort.members.append(member)
        cohort.live_members += 1
        self.cohort_hits += 1
        if self._obs_on:
            self._obs_cohort_joins.inc()
            self.obs.tracer.instant(
                "cohort.join",
                args={"member": member.instance_id, "mode": "lockstep"},
            )
        if self.observer is not None:
            self.observer.on_instance_start(member)
        rec = cohort.log[0]
        if cohort.template is None:
            # Cohort-eligible schemas run no synthesis (start_cache_ok),
            # so the shared record starts from zero counters plus the
            # start stage's launch bookkeeping.
            template = InstanceMetrics(
                instance_id=f"cohort:{cohort.rep.instance_id}",
                start_time=cohort.start_time,
            )
            template.queries_launched = len(rec.launches)
            template.speculative_launched = sum(
                1 for launch in rec.launches if launch.speculative
            )
            cohort.template = template
            for launch in rec.launches:
                cohort.virtual[launch.name] = launch
        if rec.done_after:
            self._finish_lockstep_member(cohort, member)
            return
        cache = self.query_cache
        rep = cohort.rep
        for launch in rec.launches:
            cache.attach_virtual(rep.inflight[launch.name], 1)
        obs = self._listening()
        if obs is not None:
            for launch in rec.launches:
                obs.on_launch(
                    member, launch.name, speculative=launch.speculative, shared=None
                )

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
        cohort.open = False
        rec = self._record_stage(cohort, rep, name, value, key, processed, completed)
        if not live_virtual and rec.completed:
            # Members cancelled this wait but the representative's query
            # completed and was applied: their traces genuinely diverge
            # here (exactly where live mirroring would split each one).
            self._lockstep_split_all(cohort, rep, launch, name)
            return
        self._lockstep_fan(cohort, rep, rec, launch, live_virtual)

    def _lockstep_fan(
        self, cohort: _Cohort, rep, rec: _StageRecord, launch: _LaunchRecord, live_virtual: bool
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
        count = cohort.live_members
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
        if launches:
            for new_launch in launches:
                new_handle = rep.inflight.get(new_launch.name)
                if new_handle is None or not cache.is_primary(new_handle):
                    # The cache answered this launch (memo hit, or a
                    # coalesce into some other issuer's primary): members
                    # need their own per-delivery events from here on.
                    self._demote_cohort(cohort, rep, rec, name, member_completed)
                    return
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

    def _materialize_lockstep(self, cohort: _Cohort, rep) -> None:
        """Turn every virtual attachment into real per-member followers."""
        cache = self.query_cache
        members = cohort.members

        def callback(member, vlaunch):
            return lambda processed, completed, c=cohort, m=member, l=vlaunch: (
                self._member_query_done(c, m, l, processed, completed)
            )

        for registry, cancelled in ((cohort.virtual, False), (cohort.cancelled, True)):
            for vname, vlaunch in registry.items():
                followers = cache.materialize_virtual(
                    rep.inflight[vname],
                    [
                        (vlaunch.task.cost, callback(member, vlaunch), cancelled)
                        for member in members
                    ],
                )
                for member, follower in zip(members, followers):
                    member.inflight[vname] = follower
        cohort.virtual.clear()
        cohort.cancelled.clear()

    def _demote_lockstep_at_join(self, cohort: _Cohort) -> None:
        """Exit lockstep between stages (triggered by a late coalescer).

        Unlike the stage demotion there is no record to fan: members
        have consumed every record in the log, so they hydrate against
        the full log and resume as live mirrors with their materialized
        followers in flight.
        """
        self._materialize_lockstep(cohort, cohort.rep)
        for member in cohort.members:
            self._hydrate_lockstep_member(cohort, member, cohort.log)
            member._cohort_stage = len(cohort.log)
        cohort.mode = "live"
        cohort.template = None
        cohort.members = []

    def _hydrate_lockstep_member(
        self, cohort: _Cohort, member: BatchedInstance, recs
    ) -> None:
        """Replay the state a live-mirrored member would hold here."""
        member.start_mirroring()
        self._copy_counters(cohort.template, member.metrics)
        for rec in recs:
            for launch in rec.launches:
                member._launched[launch.index] = 1
                member._cand.discard(launch.index)
                if launch.speculative:
                    member.speculative_launch.add(launch.name)

    def _demote_cohort(
        self, cohort: _Cohort, rep, rec: _StageRecord, name: str, member_completed: bool
    ) -> None:
        """Exit lockstep into live mirroring (members submit real queries)."""
        self._materialize_lockstep(cohort, rep)
        obs = self._listening()
        for member in cohort.members:
            if obs is not None:
                obs.on_query_done(member, name, units=0, completed=member_completed)
            self._hydrate_lockstep_member(cohort, member, cohort.log[:-1])
            member._cohort_stage = len(cohort.log)
            self._mirror_stage(cohort, member, rec)
        cohort.mode = "live"
        cohort.template = None
        cohort.members = []

    def _lockstep_split_all(
        self, cohort: _Cohort, rep, launch: _LaunchRecord, name: str
    ) -> None:
        self._materialize_lockstep(cohort, rep)
        obs = self._listening()
        for member in list(cohort.members):
            if obs is not None:
                obs.on_query_done(member, name, units=0, completed=False)
            self._hydrate_lockstep_member(cohort, member, cohort.log[:-1])
            member._cohort_stage = len(cohort.log) - 1
            member.metrics.queries_cancelled += 1
            self._split_member(cohort, member, launch, 0, False, False)
        cohort.template = None
        cohort.members = []
        rep._cohort = None

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
        same mirrored outcomes), so they alias the representative's end
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
        cohort.live_members -= 1
        if self.observer is not None:
            self.observer.on_instance_complete(member)
        callback = self._on_complete.pop(member.instance_id, None)
        if callback is not None:
            callback(member.metrics)

    # -- live mirroring ------------------------------------------------------

    def _join_cohort(self, cohort: _Cohort, member: BatchedInstance) -> None:
        member._cohort = cohort
        member._cohort_stage = 1
        cohort.live_members += 1
        self.cohort_hits += 1
        if self._obs_on:
            self._obs_cohort_joins.inc()
            self.obs.tracer.instant(
                "cohort.join",
                args={"member": member.instance_id, "mode": "live"},
            )
        # The start is one memo lookup and leaves the member's arrays in
        # the state a split must replay from.
        member.start_mirroring()
        if self.observer is not None:
            self.observer.on_instance_start(member)
        self._mirror_stage(cohort, member, cohort.log[0])

    def _mirror_stage(self, cohort: _Cohort, member: BatchedInstance, rec: _StageRecord) -> None:
        if rec.done_after:
            self._finish_member(cohort, member)
            return
        for cancel_name in rec.cancels:
            handle = member.inflight.get(cancel_name)
            if handle is not None and not self._has_waiters(handle):
                handle.cancel()
        for launch in rec.launches:
            self._fan_launch(cohort, member, launch)

    def _fan_launch(self, cohort: _Cohort, member: BatchedInstance, launch: _LaunchRecord) -> None:
        member.metrics.queries_launched += 1
        if launch.speculative:
            member.speculative_launch.add(launch.name)
            member.metrics.speculative_launched += 1
        if self.observer is not None:
            self.observer.on_launch(
                member, launch.name, speculative=launch.speculative, shared=None
            )
        member._launched[launch.index] = 1
        member._cand.discard(launch.index)
        handle = self._submit_query(
            launch.task,
            launch.values,
            lambda processed, completed, c=cohort, m=member, l=launch: (
                self._member_query_done(c, m, l, processed, completed)
            ),
            share_key_hint=launch.key(self.query_cache),
        )
        member.inflight[launch.name] = handle

    def _member_query_done(
        self,
        cohort: _Cohort,
        member: BatchedInstance,
        launch: _LaunchRecord,
        processed: int,
        completed: bool,
    ) -> None:
        name = launch.name
        handle = member.inflight.pop(name, None)
        member.metrics.work_units += processed
        if self.observer is not None:
            self.observer.on_query_done(
                member, name, units=processed, completed=completed
            )
        failed = (
            completed and handle is not None and getattr(handle, "failed", False)
        )
        if completed:
            member.metrics.queries_completed += 1
            if failed:
                member.metrics.queries_failed += 1
        else:
            member.metrics.queries_cancelled += 1
        if member._cohort is None:
            # Split off earlier: an ordinary instance from here on (its
            # arrays are real), finish this event on the reference tail.
            self._tail_query_done(member, name, launch.value_for(failed), processed, completed)
            return
        if member.done:
            # Post-halt straggler: bookkeeping only, plus the cancelled-
            # speculative check against the materialized final arrays.
            if (
                not completed
                and name in member.speculative_launch
                and member._enablement[launch.index] == E_DISABLED
            ):
                member.metrics.speculative_wasted_queries += 1
                member.metrics.speculative_wasted_units += processed
            return
        stage = member._cohort_stage
        log = cohort.log
        rec = log[stage] if stage < len(log) else None
        if (
            rec is None
            or rec.name != name
            or rec.completed != completed
            or rec.failed != failed
        ):
            self._split_member(cohort, member, launch, processed, completed, failed)
            return
        member._cohort_stage = stage + 1
        if completed:
            if not rec.accepted:
                member.metrics.speculative_wasted_queries += 1
                member.metrics.speculative_wasted_units += processed
        elif rec.cancel_wasted:
            member.metrics.speculative_wasted_queries += 1
            member.metrics.speculative_wasted_units += processed
        if rec.drain_wasted_queries:
            member.metrics.speculative_wasted_queries += rec.drain_wasted_queries
        if rec.drain_wasted_units:
            member.metrics.speculative_wasted_units += rec.drain_wasted_units
        self._mirror_stage(cohort, member, rec)

    def _split_member(
        self,
        cohort: _Cohort,
        member: BatchedInstance,
        launch: _LaunchRecord,
        processed: int,
        completed: bool,
        failed: bool,
    ) -> None:
        """Copy-on-diverge: replay the matched log prefix, then detach.

        The member's arrays still hold its start state (mirroring never
        touched them); applying each matched stage's outcome re-derives
        the exact state an ordinary instance would hold here.  Launch
        flags were already set at fan time, and every mirrored metric
        was booked for real — the replay runs on a scratch metrics
        object so nothing double-counts.
        """
        self.cohort_splits += 1
        if self._obs_on:
            self._obs_cohort_splits.inc()
            self.obs.tracer.instant(
                "cohort.split",
                args={"member": member.instance_id, "attribute": launch.name},
            )
        member._cohort = None
        cohort.live_members -= 1
        launched = cohort.launch_by_name
        self._replay_prefix(member, [
            (rec.name, launched[rec.name].value_for(rec.failed))
            for rec in cohort.log[1 : member._cohort_stage] if rec.completed
        ])  # fmt: skip
        self._tail_query_done(
            member, launch.name, launch.value_for(failed), processed, completed
        )

    @staticmethod
    def _replay_prefix(member: BatchedInstance, results) -> None:
        """Apply the ``(name, value)`` *results* already delivered to
        *member* to its start-state arrays, on a scratch metrics object
        (whatever they book was booked, or recorded, when they arrived)."""
        real_metrics = member.metrics
        member.metrics = InstanceMetrics(
            instance_id=member.instance_id, start_time=real_metrics.start_time
        )
        try:
            for name, value in results:
                member.apply_query_result(name, value)
                member.drain()
        finally:
            member.metrics = real_metrics

    def _tail_query_done(
        self, member: BatchedInstance, name: str, value, processed: int, completed: bool
    ) -> None:
        """The reference `_query_done` tail (post-bookkeeping half)."""
        if not completed:
            i = self.plan.index[name]
            if (
                name in member.speculative_launch
                and member._enablement[i] == E_DISABLED
            ):
                member.metrics.speculative_wasted_queries += 1
                member.metrics.speculative_wasted_units += processed
        if completed and not member.done:
            accepted = member.apply_query_result(name, value)
            if not accepted:
                member.metrics.speculative_wasted_queries += 1
                member.metrics.speculative_wasted_units += processed
        if not member.done:
            self._after_event(member)

    def _finish_member(self, cohort: _Cohort, member: BatchedInstance) -> None:
        """Mirror of :meth:`Engine._finish` fed from the representative.

        The representative is done by the time any member consumes a
        ``done_after`` record, so its arrays are final; aliasing its end
        state and copying its values (the member's own source objects
        overlaid) materializes the member's state for value/state maps,
        handles, and post-halt straggler checks.
        """
        rep = cohort.rep
        member.done = True
        member.metrics.finish_time = self.sim.now
        member._alias(self._end_state(rep))
        member._raw = list(rep._raw)
        member._sv = list(rep._sv)
        index = self.plan.index
        for source_name, source_value in member._sources.items():
            i = index[source_name]
            member._raw[i] = member._sv[i] = source_value
        member.finalize_metrics()
        if self.halt_policy == "cancel":
            for handle in member.inflight.values():
                if not self._has_waiters(handle):
                    handle.cancel()
        cohort.live_members -= 1
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
        data — a miss, a coalesce, an L2 promotion — ends the recording;
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
        way a split cohort member does — start state, launch flags, the
        delivered prefix re-applied — and real followers for the pending
        deliveries, then runs this event's share of them for real.
        """
        self.flow_fallbacks += 1
        instance._flow = None
        plan, raw, stages, lo = self.plan, trace.raw, trace.stages, wave.lo
        index = plan.index
        made = [launch for stage in stages[:lo] for launch in stage[2]]
        instance.start_mirroring()
        for name, speculative, _ in made:
            instance._launched[index[name]] = 1
            instance._cand.discard(index[name])
            if speculative:
                instance.speculative_launch.add(name)
        delivered = [(name, raw[index[name]]) for name, ok, _ in stages[1:lo] if ok]
        self._replay_prefix(instance, delivered)
        for (name, _, key), (_, completed, _) in zip(made[lo - 1 :], stages[lo:]):
            i = index[name]
            instance.inflight[name] = self.query_cache.follower(
                key,
                plan.cost[i],
                lambda processed, done, name=name, value=raw[i]: self._query_done(
                    instance, name, value, None, processed, done
                ),
                cancelled=not completed,
            )
        self._flow_event(instance, wave)

    def __repr__(self) -> str:
        done = sum(1 for i in self.instances if i.done)
        shared = " shared" if self.share is not None else ""
        return (
            f"<BatchedEngine {self.schema.name!r} strategy={self.strategy.code}{shared} "
            f"instances={done}/{len(self.instances)} done>"
        )
