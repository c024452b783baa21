"""Compiled flow plans: schema + strategy lowered to index-based arrays.

Data-centric workflow optimizers compile a flow graph once and reuse the
plan across executions; the reference engine instead re-walks name-keyed
dicts (`AttributeCell` maps, string-tuple edge dictionaries, condition
ASTs) for every instance and every event.  A :class:`CompiledPlan` is the
one-time lowering that the :class:`~repro.core.batch_engine.BatchedEngine`
executes against:

* attributes become dense indices in schema declaration order; all edge
  lists (data inputs/consumers, enabling consumers, condition refs) are
  int-encoded tuples;
* every enabling condition is compiled to a closure over the instance's
  flat stable-value list, returning a Kleene truth as a small int
  (``0`` FALSE / ``1`` UNKNOWN / ``2`` TRUE, matching :class:`Tri`
  values) — no AST walking, no enum allocation per evaluation;
* the scheduling heuristic is precomputed into one scalar rank per
  attribute (primary key × topo tie-break), so launch selection sorts
  plain ints;
* the backward-propagation dead-edge analysis is pre-cascaded: the plan
  stores the post-construction alive/live-out/unneeded template every
  instance starts from;
* every slot gets a *value signature* — the outcomes of the condition
  leaves that read it — and the plan interns *control states*: immutable
  copies of every discrete per-instance array plus the signatures of the
  values known so far.  A scheduling round is then a transition
  ``(state, event) -> state`` that the first instance to take it records
  (by running the propagation kernel) and every later one replays,
  whatever its values (see :class:`ControlState`).

The plan never changes observable semantics: each compiled piece mirrors
one reference code path exactly, and the engine differential harness
asserts the equivalence end to end.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.conditions import And, Condition, Literal, Not, Or, UNRESOLVED
from repro.core.predicates import (
    AttrRef,
    Comparison,
    IsException,
    IsNull,
    UserPredicate,
)
from repro.core.propagation import NeededTracker, edge_table
from repro.core.schema import DecisionFlowSchema
from repro.core.state import Enablement, Readiness
from repro.core.strategy import Strategy
from repro.nulls import NULL, ExceptionValue
from repro.values import SCALARS, key, keys, share_key

__all__ = ["CompiledPlan", "ControlState", "compile_condition", "MEMO_LIMIT", "LAUNCH_LIMIT"]

#: Event slots of the two transitions no query result causes: the start
#: (its "signature" is the tuple of the sources' signatures) and a
#: cancelled query (no value arrived; only the in-flight set changed).
EV_START, EV_CANCELLED = -1, -2

#: Bound on recorded transitions per plan (each interns at most one
#: state).  Once reached nothing more is recorded — instances off the
#: recorded paths run the kernel on their own arrays — and hits keep
#: serving.
MEMO_LIMIT = 4096

#: Bound on launch-memo entries per plan, with the same policy.
LAUNCH_LIMIT = 1024

#: Readiness / enablement dimension codes used in the flat state arrays.
#: They equal the corresponding enum ``.value``s so conversions are direct.
R_PENDING, R_READY, R_COMPUTED = (
    Readiness.PENDING.value,
    Readiness.READY.value,
    Readiness.COMPUTED.value,
)
E_UNKNOWN, E_ENABLED, E_DISABLED = (
    Enablement.UNKNOWN.value,
    Enablement.ENABLED.value,
    Enablement.DISABLED.value,
)

#: Compiled Kleene truth values (== ``Tri.FALSE/UNKNOWN/TRUE .value``).
T_FALSE, T_UNKNOWN, T_TRUE = 0, 1, 2

#: A compiled condition: stable-value list -> T_FALSE | T_UNKNOWN | T_TRUE.
CondFn = Callable[[List[object]], int]


def _leaves(condition: Condition):
    """The value-reading leaves of *condition*: all but literals and connectives."""
    if isinstance(condition, (And, Or)):
        for child in condition.children:
            yield from _leaves(child)
    elif isinstance(condition, Not):
        yield from _leaves(condition.child)
    elif not isinstance(condition, Literal):
        yield condition


def _stable(state: "ControlState", i: int) -> bool:
    e = state.enablement[i]
    return e == E_DISABLED or (e == E_ENABLED and state.readiness[i] == R_COMPUTED)


class ControlState:
    """One interned snapshot of everything discrete about an instance.

    The fields are immutable (``bytes`` / ``tuple`` / ``frozenset``), so
    any number of instances alias them and a write that did not first
    take its own copy raises.  ``sigs`` holds the value signature of
    every computed slot: with the arrays it determines what the kernel
    does on any event, so ``steps`` maps an event — ``(slot, signature)``
    of an applied result, `EV_START` with the sources' signatures, or
    `EV_CANCELLED`; plus the counted in-flight number when %Permitted
    < 100 — to ``(next state, slots stable at ⊥, slots stable at their
    raw value, wasted queries, wasted units, names to launch)``.  No
    instance value is held anywhere.
    """

    __slots__ = (
        "readiness", "enablement", "pending", "launched", "speculative", "cand",
        "alive", "live_out", "unneeded", "external", "sigs",
        "done", "scan", "final", "steps",
    )  # fmt: skip

    def __init__(self, key: tuple, done: bool = False, scan: bool = False):
        (
            self.readiness, self.enablement, self.pending, self.launched,
            self.speculative, self.cand, self.alive, self.live_out,
            self.unneeded, self.external, self.sigs,
        ) = key  # fmt: skip
        #: every target stable: the instance finishes on entering
        self.done = done
        #: some launched, unanswered query is unneeded (and the strategy cancels)
        self.scan = scan
        #: the attribute counters `finalize_metrics` derives, filled on first use
        self.final: tuple | None = None
        self.steps: dict[object, tuple] = {}


# -- condition compilation -----------------------------------------------------


def compile_condition(condition: Condition, index: dict[str, int]) -> CondFn:
    """Compile a condition AST to a closure over the stable-value list.

    The closure replicates :meth:`Condition.eval_tri` exactly — including
    evaluation order, SQL-style ⊥ semantics, and exception-value
    handling — over ``sv`` where ``sv[i]`` is :data:`UNRESOLVED` until
    attribute *i* is stable and its observable value afterwards.
    Unknown condition subclasses fall back to the interpreted
    ``eval_tri`` through an index-based resolver.
    """
    if isinstance(condition, Literal):
        result = T_TRUE if condition.value else T_FALSE
        return lambda sv: result
    if isinstance(condition, Comparison):
        return _compile_comparison(condition, index)
    if isinstance(condition, IsNull):
        i = index[condition.name]

        def is_null(sv):
            value = sv[i]
            if value is UNRESOLVED:
                return T_UNKNOWN
            return T_TRUE if value is NULL else T_FALSE

        return is_null
    if isinstance(condition, IsException):
        i = index[condition.name]

        def is_exception(sv):
            value = sv[i]
            if value is UNRESOLVED:
                return T_UNKNOWN
            return T_TRUE if isinstance(value, ExceptionValue) else T_FALSE

        return is_exception
    if isinstance(condition, And):
        kids = tuple(compile_condition(child, index) for child in condition.children)

        def conj(sv):
            unknown = False
            for kid in kids:
                result = kid(sv)
                if result == T_FALSE:
                    return T_FALSE
                if result == T_UNKNOWN:
                    unknown = True
            return T_UNKNOWN if unknown else T_TRUE

        return conj
    if isinstance(condition, Or):
        kids = tuple(compile_condition(child, index) for child in condition.children)

        def disj(sv):
            unknown = False
            for kid in kids:
                result = kid(sv)
                if result == T_TRUE:
                    return T_TRUE
                if result == T_UNKNOWN:
                    unknown = True
            return T_UNKNOWN if unknown else T_FALSE

        return disj
    if isinstance(condition, Not):
        kid = compile_condition(condition.child, index)
        return lambda sv: 2 - kid(sv)
    if isinstance(condition, UserPredicate):
        refs = tuple((name, index[name]) for name in condition._refs)
        fn = condition.fn

        def user(sv):
            values: dict[str, object] = {}
            for name, i in refs:
                value = sv[i]
                if value is UNRESOLVED:
                    return T_UNKNOWN
                values[name] = value
            return T_TRUE if bool(fn(values)) else T_FALSE

        return user
    # Third-party Condition subclass: interpret via eval_tri.
    return lambda sv: condition.eval_tri(lambda name: sv[index[name]]).value


def _compile_comparison(node: Comparison, index: dict[str, int]) -> CondFn:
    left_i = index[node.left]
    op_fn = node.op.fn
    if isinstance(node.right, AttrRef):
        right_i = index[node.right.name]

        def compare_attrs(sv):
            left = sv[left_i]
            if left is UNRESOLVED:
                return T_UNKNOWN
            right = sv[right_i]
            if right is UNRESOLVED:
                return T_UNKNOWN
            if left is NULL or right is NULL:
                return T_FALSE
            if isinstance(left, ExceptionValue) or isinstance(right, ExceptionValue):
                return T_FALSE
            return T_TRUE if op_fn(left, right) else T_FALSE

        return compare_attrs

    right_const = node.right
    right_degenerate = right_const is NULL or isinstance(right_const, ExceptionValue)

    def compare_const(sv):
        left = sv[left_i]
        if left is UNRESOLVED:
            return T_UNKNOWN
        if left is NULL or right_degenerate:
            return T_FALSE
        if isinstance(left, ExceptionValue):
            return T_FALSE
        return T_TRUE if op_fn(left, right_const) else T_FALSE

    return compare_const


# -- the plan ------------------------------------------------------------------


class CompiledPlan:
    """One (schema, strategy) pair lowered to arrays, built once per engine."""

    __slots__ = (
        "schema",
        "strategy",
        "n",
        "names",
        "index",
        "is_source",
        "is_query",
        "source_idx",
        "non_source_idx",
        "target_idx",
        "synth_idx",
        "tasks",
        "cost",
        "task_inputs",
        "data_consumers",
        "enabling_consumers",
        "cond_refs",
        "cond_eval",
        "rank",
        "edges",
        "readiness0",
        "enablement0",
        "pending0",
        "alive0",
        "live_out0",
        "unneeded0",
        "external0",
        "start_cache_ok",
        "memo",
        "leaves",
        "root",
        "states",
        "throttled",
        "memo_steps",
        "memo_hits",
        "memo_misses",
        "launch_slots",
        "launches",
        "launch_entries",
        "launch_hits",
    )

    def __init__(self, schema: DecisionFlowSchema, strategy: Strategy):
        self.schema = schema
        self.strategy = strategy
        graph = schema.graph
        names = graph.names
        self.names = names
        self.n = len(names)
        index = {name: i for i, name in enumerate(names)}
        self.index = index

        self.is_source = bytearray(self.n)
        self.is_query = bytearray(self.n)
        self.tasks = []
        self.cost = []
        self.task_inputs = []
        self.cond_refs = []
        self.cond_eval = []
        synth: list[int] = []
        for i, name in enumerate(names):
            spec = schema[name]
            task = spec.task
            self.tasks.append(task)
            self.cost.append(spec.cost)
            self.is_source[i] = 1 if spec.is_source else 0
            if task is not None:
                self.task_inputs.append(
                    tuple((input_name, index[input_name]) for input_name in task.inputs)
                )
                if task.is_query:
                    self.is_query[i] = 1
                elif not spec.is_source:
                    synth.append(i)
            else:
                self.task_inputs.append(())
            self.cond_refs.append(tuple(index[ref] for ref in sorted(spec.condition.refs())))
            self.cond_eval.append(compile_condition(spec.condition, index))

        self.source_idx = tuple(i for i in range(self.n) if self.is_source[i])
        self.non_source_idx = tuple(i for i in range(self.n) if not self.is_source[i])
        self.target_idx = tuple(index[name] for name in schema.target_names)
        self.synth_idx = tuple(synth)

        self.data_consumers = tuple(
            tuple(index[consumer] for consumer in graph.data_consumers[name])
            for name in names
        )
        self.enabling_consumers = tuple(
            tuple(index[consumer] for consumer in graph.enabling_consumers[name])
            for name in names
        )

        # One scalar per attribute implementing rank_key: the heuristic's
        # primary key with the (unique) topological index as tie-break.
        if strategy.heuristic == "earliest":
            primary = [graph.depth[name] for name in names]
        else:
            primary = [schema[name].cost for name in names]
        topo = graph.topo_index
        self.rank = [primary[i] * (self.n + 1) + topo[name] for i, name in enumerate(names)]

        # -- pre-start state template ------------------------------------
        table = edge_table(schema)
        self.readiness0 = bytearray(self.n)
        self.enablement0 = bytearray(self.n)
        for i in self.source_idx:
            self.readiness0[i] = R_COMPUTED
            self.enablement0[i] = E_ENABLED
        self.pending0 = [0] * self.n
        for i in self.non_source_idx:
            self.pending0[i] = sum(
                1
                for _, parent_idx in table.data_in[i]
                if not self.is_source[parent_idx]
            )

        # Backward-propagation template with the initial cascade applied
        # (attributes with no live path to a target are dead on arrival).
        self.edges = table
        # Run the reference NeededTracker once and snapshot its arrays,
        # so the *initial* cascade is never reimplemented here.  (The
        # runtime cascade is intentionally duplicated in
        # BatchedInstance._kill_in_edges/_decrement_live for speed —
        # keep it in lockstep with NeededTracker; the engine
        # differential suite compares the two on every scenario.)
        tracker = NeededTracker(schema)
        self.alive0 = bytearray(tracker._alive)
        self.live_out0 = list(tracker._live_out)
        self.unneeded0 = bytearray(self.n)
        for name in tracker.unneeded:
            self.unneeded0[index[name]] = 1
        self.external0 = bytearray(self.n)
        for target in tracker._external:
            self.external0[target] = 1

        #: Identical source valuations have identical traces (what cohorts
        #: rest on) only when no user code runs: synthesis tasks and
        #: user-coded conditions must execute per instance (they may be
        #: impure or return mutable objects each instance must own).
        leaves = [leaf for name in names for leaf in _leaves(schema[name].condition)]
        self.start_cache_ok = not synth and all(
            isinstance(leaf, (Comparison, IsNull, IsException)) for leaf in leaves
        )
        #: Whether instances run on the transition memo.  A leaf comparing
        #: two attributes has no per-slot outcome, so such plans (like
        #: those running user code) execute on the kernel alone.
        self.memo = self.start_cache_ok and not any(
            isinstance(getattr(leaf, "right", None), AttrRef) for leaf in leaves
        )
        #: per slot, the distinct leaves reading it, each compiled over a
        #: one-slot stable-value list (see :meth:`signature`)
        self.leaves: list[tuple[CondFn, ...]] = [() for _ in names]
        if self.memo:
            for leaf in dict.fromkeys(leaves):
                slot = leaf.left if isinstance(leaf, Comparison) else leaf.name
                self.leaves[index[slot]] += (compile_condition(leaf, {slot: 0}),)
        tracked = strategy.propagation
        #: the pre-start template every instance begins in, as a state
        self.root = ControlState((
            bytes(self.readiness0), bytes(self.enablement0), tuple(self.pending0),
            bytes(self.n), frozenset(), frozenset(),
            bytes(self.alive0) if tracked else None,
            tuple(self.live_out0) if tracked else None,
            bytes(self.unneeded0) if tracked else None,
            bytes(self.external0) if tracked else None,
            (0,) * self.n,
        ))  # fmt: skip
        #: interned states by content (the root, a template, is not one)
        self.states: dict[tuple, ControlState] = {}
        #: selection reads the in-flight count only below %Permitted 100
        self.throttled = strategy.permitted < 100
        self.memo_steps = self.memo_hits = self.memo_misses = 0
        #: per query task its input slots, in input order; None once its `fn`
        #: raised or returned no scalar, and where the engine files no keys
        self.launch_slots: list[tuple[int, ...] | None] = [
            tuple(j for _, j in inputs) if self.is_query[i] else None
            for i, inputs in enumerate(self.task_inputs)
        ]
        #: the launch memo, per task: typed inputs -> entry (:meth:`launch_entry`)
        self.launches: list[dict[tuple, tuple]] = [{} for _ in names]
        self.launch_entries = self.launch_hits = 0

    def start_key(self, source_values: dict[str, object]) -> tuple | None:
        """The cohort and flow-memo key of a valuation of the plan's sources
        in ``schema.source_names`` order (as :class:`BatchedInstance` builds
        it), or None when a value is refused (:func:`repro.values.keys`)."""
        return keys(source_values.values())

    def signature(self, i: int, value: object) -> int:
        """Outcomes of every condition leaf reading slot *i*, on *value*.

        Base-4 digits: the leaf's Kleene truth, or 3 when evaluating it
        raises.  Signatures are taken eagerly while conditions short-
        circuit, so a raising leaf is an outcome like any other: if the
        kernel ever evaluates it, it raises for real on the miss path and
        nothing is recorded past it.
        """
        leaves = self.leaves[i]
        if not leaves:
            return 0
        sig = 0
        box = [value]
        for leaf in leaves:
            try:
                sig = sig * 4 + leaf(box)
            except Exception:  # whatever it raises, the kernel re-raises it
                sig = sig * 4 + 3
        return sig

    def launch_entry(self, i: int, sv: list) -> tuple | None:
        """What launching query *i* on the stable values *sv* comes to:
        ``(cache key, value, signature)`` — the very tuple the engine asks
        the query cache for (``share_key(...) + (cost,)``), the task's
        result and :meth:`signature` of it.  Looked up by the inputs'
        :func:`repro.values.key` (``1`` / ``True`` / ``1.0`` are three
        entries, ``0.0`` / ``-0.0`` two) and filed on first sight
        while there is room.  None where there is nothing to reuse: an
        input (an unstable one included) or the result is no scalar, `fn`
        raised, or the memo is full and has no entry for these inputs.
        """
        slots = self.launch_slots[i]
        if slots is None:
            return None
        probe = ()
        for j in slots:
            value = sv[j]
            cls = value.__class__
            # `key`, inlined: (class, value) for every class the memo files, but an
            # exact float zero keys with its sign (a subclass is never filed or found)
            probe += key(value) if cls is float and value == 0.0 else (cls, value)
        try:
            entry = self.launches[i].get(probe)
        except TypeError:  # an unhashable input
            return None
        if entry is not None:
            self.launch_hits += 1
            return entry
        inputs = [sv[j] for j in slots]
        if self.launch_entries >= LAUNCH_LIMIT or not SCALARS.issuperset(
            value.__class__ for value in inputs
        ):
            return None
        task = self.tasks[i]
        values = dict(zip(task.inputs, inputs))
        try:
            value = task.compute(values)
            scalar = value.__class__ in SCALARS
        except Exception:  # whatever it raises, `Engine._launch` raises it again
            scalar = False
        if not scalar:
            self.launch_slots[i] = None  # one extra call of `fn`, once
            return None
        entry = (share_key(task.name, values) + (task.cost,), value, self.signature(i, value))
        self.launches[i][probe] = entry
        self.launch_entries += 1
        return entry

    def freeze(self, instance, sigs: list | None = None) -> ControlState:
        """*instance*'s arrays as a state; interned when *sigs* are given."""
        enablement = instance._enablement
        readiness = instance._readiness
        launched = instance._launched
        unneeded = instance._unneeded
        tracked = unneeded is not None
        if sigs is not None:
            # a disabled slot is ⊥ whatever arrived: its signature is dead
            sigs = tuple(0 if e == E_DISABLED else sig for e, sig in zip(enablement, sigs))
        key = (
            bytes(readiness), bytes(enablement), tuple(instance._pending),
            bytes(launched), frozenset(instance.speculative_launch),
            frozenset(instance._cand),
            bytes(instance._alive) if tracked else None,
            tuple(instance._live_out) if tracked else None,
            bytes(unneeded) if tracked else None,
            bytes(instance._external) if tracked else None,
            sigs,
        )  # fmt: skip
        state = None if sigs is None else self.states.get(key)
        if state is None:
            state = ControlState(
                key,
                done=instance.targets_stable(),
                scan=tracked and self.strategy.cancel_unneeded and any(
                    unneeded[i] and launched[i] and readiness[i] == R_READY
                    for i in range(self.n)
                ),
            )  # fmt: skip
            if sigs is not None:
                self.states[key] = state
        return state

    def record(
        self, prev: ControlState, event: tuple, instance, wasted_queries: int, wasted_units: int
    ) -> None:
        """File the step *instance* just ran on the kernel, while there is room."""
        if self.memo_steps >= MEMO_LIMIT:
            return
        self.memo_steps += 1
        slot, sig = event[:2]
        sigs = list(prev.sigs)
        if slot >= 0:
            sigs[slot] = sig
        elif slot == EV_START:
            for i, source_sig in zip(self.source_idx, sig):
                sigs[i] = source_sig
        state = self.freeze(instance, sigs)
        nulls, copies = [], []
        for i in range(self.n):
            if _stable(state, i) and not _stable(prev, i):
                (nulls if state.enablement[i] == E_DISABLED else copies).append(i)
        launches = [i for i in range(self.n) if state.launched[i] and not prev.launched[i]]
        launches.sort(key=self.rank.__getitem__)
        prev.steps[event] = (
            state, tuple(nulls), tuple(copies), wasted_queries, wasted_units,
            tuple(self.names[i] for i in launches),
        )  # fmt: skip

    def __repr__(self) -> str:
        return (
            f"<CompiledPlan {self.schema.name!r} {self.strategy.code} "
            f"|A|={self.n} edges={self.edges.edge_count}>"
        )
