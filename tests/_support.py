"""Shared builders for the test suite, its one differential harness, its
cycle census (``cyclic_garbage``, for ``test_no_cycles`` and CI) and its
retention census (``retained_bytes``, for ``test_arrival_path`` and CI).

The harness (``run``, ``trace_of``, ``assert_same``,
``assert_matches_reference``) serves the eight trace-identity suites:
``test_engine_differential``, ``test_simdb_differential``,
``test_launch_path``, ``test_flow_memo``, ``test_cohort_exits``,
``test_transition_memo``, ``test_arrival_path`` and ``test_wave_steps``.
Helpers two test modules need live here: no test module imports another.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from functools import partial
from types import SimpleNamespace
from typing import Mapping, Sequence

import pytest

from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DbParams,
    DecisionFlowSchema,
    Engine,
    IdealDatabase,
    InstanceMetrics,
    NULL,
    Op,
    PatternParams,
    QueryShareCache,
    QueryTask,
    Simulation,
    SimulatedDatabase,
    Strategy,
    SynthesisTask,
    create_service,
    generate_pattern,
    summarize,
)
from repro.api import DecisionService
from repro.api.backends import Backend
from repro.api import counters as table
from repro.core.batch_instance import _NO_INFLIGHT, _NO_NAMES, _NO_QUEUE
from repro.core.engine import EngineObserver
from repro.core.rows import Row
from repro.core.tasks import constant
from repro.obs import Observability
from repro.simdb.database import DatabaseServer, ProfiledDatabase
from repro.oracle.per_unit import PerUnitIdealDatabase, PerUnitProfiledDatabase
from repro.simdb.profiler import DbFunction
from repro.workload.generator import GeneratedPattern


def q(name: str, inputs: Sequence[str] = (), value: object = None, cost: int = 1, fn=None) -> QueryTask:
    """Shorthand query-task builder."""
    return QueryTask(f"q_{name}", inputs, fn or constant(value), cost)


def syn(name: str, inputs: Sequence[str], fn) -> SynthesisTask:
    return SynthesisTask(f"s_{name}", inputs, fn)


def add_inputs(values: Mapping[str, object]) -> object:
    """Sum numeric inputs, treating ⊥ as 0 (tasks must cope with ⊥)."""
    return sum(v for v in values.values() if v is not NULL and isinstance(v, (int, float)))


def diamond_schema() -> tuple[DecisionFlowSchema, dict[str, object]]:
    """source s → a (always), b (only if s > 10) → target t = a + b.

    With s = 5 the b branch is disabled and t sees ⊥ for it.
    """
    attributes = [
        Attribute("s"),
        Attribute("a", task=q("a", inputs=("s",), value=1, cost=2)),
        Attribute(
            "b",
            task=q("b", inputs=("s",), value=10, cost=3),
            condition=Comparison("s", Op.GT, 10),
        ),
        Attribute(
            "t",
            task=SynthesisTask("t_sum", ("a", "b"), add_inputs),
            is_target=True,
        ),
    ]
    return DecisionFlowSchema(attributes, name="diamond"), {"s": 5}


def chain_schema(length: int = 4, cost: int = 1) -> tuple[DecisionFlowSchema, dict[str, object]]:
    """source → c1 → c2 → ... → c<length> (target), all query tasks."""
    attributes = [Attribute("s")]
    previous = "s"
    for index in range(1, length + 1):
        name = f"c{index}"
        attributes.append(
            Attribute(
                name,
                task=q(name, inputs=(previous,), value=index, cost=cost),
                is_target=(index == length),
            )
        )
        previous = name
    return DecisionFlowSchema(attributes, name=f"chain{length}"), {"s": 0}


def run_engine(
    schema: DecisionFlowSchema,
    code: str,
    source_values: Mapping[str, object],
    halt_policy: str = "cancel",
):
    """Run one instance on a fresh ideal database; returns (metrics, instance)."""
    simulation = Simulation()
    engine = Engine(schema, Strategy.parse(code), IdealDatabase(simulation), halt_policy)
    instance = engine.submit_instance(source_values)
    simulation.run()
    return instance.metrics, instance


def per_event(engine_cls, schema, strategy, database, **kwargs):
    """*engine_cls* on a simulation with no pool consumer: it drains its
    calendar one event at a time.  A service registers its pool drain
    before it builds its engine, so building through this unregisters it."""
    database.sim.set_batch_consumer(None)
    return engine_cls(schema, strategy, database, **kwargs)


@contextmanager
def engine_arms(*, pooled: bool = True, cohorts: bool = True):
    """Build the services made inside draining event by event
    (``pooled=False``) and/or with cohorts off (``cohorts=False``).

    Neither axis is a config field: every ``DecisionService`` pools, and
    the batched engine arms cohorts with the query cache.  Both are
    swapped in through the service's engine registry (:func:`per_event`;
    ``BatchedEngine(cohorts=False)``), for services built in this process
    and for shard workers forked while it is active.
    """
    from repro.api import service

    classes = dict(service._ENGINE_CLASSES)
    if not cohorts:
        service._ENGINE_CLASSES["batched"] = partial(BatchedEngine, cohorts=False)
    if not pooled:
        for kind, build in list(service._ENGINE_CLASSES.items()):
            service._ENGINE_CLASSES[kind] = partial(per_event, build)
    try:
        yield
    finally:
        service._ENGINE_CLASSES.update(classes)


# -- the cycle census -----------------------------------------------------------
#
# A finished query, instance, cohort or drain epoch is freed by reference
# counting: nothing it allocated waits for the cyclic collector.
# `cyclic_garbage` measures what a run leaves behind with the collector
# off; tests/test_no_cycles.py holds the execution matrix at zero.


@contextmanager
def collector_off():
    """Run the block with the cyclic collector disabled, after a collection
    that clears whatever came before it; its enabled state is restored."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage(run) -> Counter:
    """What ``run()`` leaves for the cyclic collector, by type name.

    The collector is off while *run* runs.  Everything alive before it is
    frozen out of the count (``gc.freeze``), so the one collection after
    it, under ``gc.DEBUG_SAVEALL``, looks only at what the run allocated;
    what *run* returns (a service, an engine, a daemon) is kept alive
    through it, so only objects that became unreachable inside a cycle
    are counted.  Every ``gc`` setting is restored on the way out, and
    the garbage is left to the collector.
    """
    enabled, flags, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.freeze()
    kept = None
    try:
        kept = run()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage[saved:])
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:], kept
        gc.unfreeze()
        if enabled:
            gc.enable()


def garbage_table(garbage: Counter, instances: int) -> str:
    """*garbage* as a table: type, objects, objects per instance."""
    rows = [f"{'type':<24}{'objects':>9}{'per inst':>10}"]
    for name, count in garbage.most_common():
        rows.append(f"{name:<24}{count:>9}{count / instances:>10.2f}")
    return "\n".join(rows)


# -- the retention census ------------------------------------------------------
#
# A settled batched instance (done, nothing in flight) keeps only its answer:
# its metrics, its value lists and the arrays it owns or aliases.  `unsettled`
# names what else it still holds; `retained_bytes` measures what a run keeps
# per instance, by allocation site, against `RETENTION_BUDGET`.

#: Each per-run field of a batched instance, and what it reads once settled.
SETTLED = (
    ("inflight", _NO_INFLIGHT),
    ("speculative_launch", _NO_NAMES),
    ("_cand", _NO_NAMES),
    ("_queue", _NO_QUEUE),
    ("_sources", None),
    ("_start_key", None),
)

#: Traced bytes per retained finished instance, all handles held, on the
#: product stack (PSE100, query cache) at 1 000 instances of each
#: `population`: 2 749 / 1 081 / 281 measured on CPython 3.11, plus ≈20 %
#: for other interpreters' object sizes.  Before settled instances let go
#: of their per-run containers they read 4 856 / 2 058 / 973; before a
#: cohort's riders shared one final metrics record, identical read 626
#: (budget 760); before a rider was a row of its cohort (no
#: BatchedInstance of its own), 458 (budget 560); before a flow replay was
#: a row of its trace, overlap read 1 318 (budget 1 600) and distinct
#: 2 685 (every arrival with a key is now a row, there built into an
#: instance at its start).
RETENTION_BUDGET = {"distinct": 3200, "overlap": 1300, "identical": 340}

#: GC-tracked objects per held finished handle at the margin (the growth
#: from 1 000 to 2 000 held handles, per handle: one-off plan, memo and
#: cohort growth left out) on the same stack: ≈7.0 / 3.3 / 2.0 measured
#: (distinct and overlap move by a few tenths with when the collector
#: untracks tuples).  Identical is held to its two: the handle and the
#: rider's row, which reads its cohort's shared final record — a record
#: of its own each made it 3.
TRACKED_BUDGET = {"identical": 2}

#: Traced bytes per held handle of a drained 2-shard serial fleet on the
#: same stack and populations: ≈2 490 / 2 038 / 1 374 measured on CPython
#: 3.11 (the parent's record and a shard's one-off plan and memo growth),
#: plus ≈20 %.  Before each shard let go of what it reported settled, and
#: while a record carried its values as a dict, they read 5 264 / 3 778 /
#: 2 791.
FLEET_RETENTION_BUDGET = {"distinct": 3000, "overlap": 2450, "identical": 1650}


def unsettled(instance) -> list[str]:
    """The per-run fields a batched *instance* still holds (none once it is
    settled).  A lockstep rider's row is read through the instance built
    for it, if it had to run for itself; otherwise its one per-run field
    is its sources, held until its run fires."""
    if isinstance(instance, Row):
        if instance.materialized is not None:
            return unsettled(instance.materialized)
        return ["_sources"] if instance._sources is not None else []
    return [name for name, empty in SETTLED if getattr(instance, name) is not empty]


def retained_bytes(drive) -> Counter:
    """What ``drive()`` allocates and keeps, in traced bytes by allocation
    site (``path:line``; a package path starts at ``repro/``).

    What *drive* returns (the handles, say) is kept alive through the
    second snapshot, taken after a full collection; the sum of the values
    is the net growth, a site's value its own (negative where the run
    freed more there than it kept)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        kept = drive()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del kept
    sites: Counter = Counter()
    for stat in after.compare_to(before, "lineno"):
        frame = stat.traceback[0]
        path = frame.filename.rpartition("/src/")[2]
        sites[f"{path}:{frame.lineno}"] += stat.size_diff
    return sites


def retained_objects(drive) -> int:
    """How many more objects the cyclic collector tracks once ``drive()``
    has run, what it returns kept alive; both counts after a full
    collection."""
    gc.collect()
    before = len(gc.get_objects())
    kept = drive()
    gc.collect()
    grown = len(gc.get_objects()) - before
    del kept
    return grown


def retention_table(sites: Counter, instances: int, top: int = 10) -> str:
    """*sites* as a table: the *top* sites by bytes per instance, then the total."""
    rows = [f"{'site':<44}{'B / inst':>10}"]
    for site, size in sites.most_common(top):
        rows.append(f"{site:<44}{size / instances:>10.1f}")
    rows.append(f"{'total':<44}{sum(sites.values()) / instances:>10.1f}")
    return "\n".join(rows)


def population(kind: str, n: int, seed: int = 11) -> list[tuple[float, float]]:
    """``(at, valuation)`` for *n* instances of the perf pattern's source,
    shaped like the benchmark's populations: ``identical`` (one valuation,
    all at t = 0), ``overlap`` (bursts at shared instants, 90 % from 8 hot
    valuations) or ``distinct`` (every valuation new, one per instant)."""
    rng = random.Random(f"{seed}:{kind}")
    taken: set[float] = set()

    def fresh() -> float:
        value = round(rng.uniform(89.0, 100.0), 6)
        while value in taken:
            value = round(rng.uniform(89.0, 100.0), 6)
        taken.add(value)
        return value

    if kind == "identical":
        return [(0.0, fresh())] * n
    items: list[tuple[float, float]] = []
    at = 0.0
    if kind == "overlap":
        hot = [fresh() for _ in range(8)]
        while len(items) < n:
            at += rng.expovariate(1 / 50.0)
            for _ in range(rng.randint(20, 60)):
                items.append((at, rng.choice(hot) if rng.random() < 0.9 else fresh()))
        return items[:n]
    if kind == "distinct":
        for _ in range(n):
            at += rng.expovariate(1 / 5.0)
            items.append((at, fresh()))
        return items
    raise ValueError(f"unknown population {kind!r}")


# -- the served-state census ---------------------------------------------------
#
# A service that releases after every epoch holds what is in flight, not what
# it has served: its claimed ids are those of the instances it holds, and its
# database's Gmpl trace starts at the earliest start it holds.  `serve` drives
# such a service and `served_growth` takes the traced reading of
# `SERVED_BUDGET` (tests/test_served_state.py bounds what it holds).

#: Bytes a releasing service on the product stack (PSE100, query cache) may
#: grow by per served instance once its memo tiers are full, on the
#: distinct and on the overlap population.  Before released ids and the
#: Gmpl trace left with their instances it grew ≈220 B per instance.
SERVED_BUDGET = 16


def serve(service, items: Sequence[tuple[float, float]], epoch: int = 500, check=None):
    """Serve *items* (:func:`population`'s ``(at, valuation)`` pairs of the
    perf pattern's source) through *service* in epochs of *epoch*: submit,
    ``run()``, ``release_completed()``, then ``check(service)`` if given.
    Each epoch keeps its arrivals' spacing, shifted to start no earlier
    than the service's clock.  A fleet then runs one empty round, so its
    shards apply the last release."""
    source = PERF.schema.source_names[0]
    shift = 0.0
    for start in range(0, len(items), epoch):
        chunk = items[start : start + epoch]
        shift = max(shift, service.now - chunk[0][0])
        for at, value in chunk:
            service.submit({source: value}, at=at + shift)
        service.run()
        service.release_completed()
        if check is not None:
            check(service)
    service.run()


def served_growth(config, kind: str, warm: int, n: int) -> float:
    """Traced heap growth per served instance of a releasing service built
    from *config*: :func:`serve` *warm* instances of *kind*, then *n* more,
    with every allocation traced from before the service is built, so a
    bounded table's turnover (the query memo's keys and its dict table)
    nets out.  Reads are taken after a full collection."""
    items = population(kind, warm + n)
    gc.collect()
    tracemalloc.start()
    try:
        service = create_service(PERF.schema, config)
        serve(service, items[:warm])
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        serve(service, items[warm:])
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    service.close()
    return (after - before) / n


# -- the differential harness --------------------------------------------------
#
# Every fast path is held to a reference by exact trace identity, through
# one runner (`run`), one trace (`trace_of`) and one comparer
# (`assert_same`).  Eight suites are scenario lists over them:
# test_engine_differential (batched vs reference engine),
# test_simdb_differential (coalesced vs per-unit kernels), test_launch_path,
# test_flow_memo, test_cohort_exits, test_transition_memo,
# test_arrival_path and test_wave_steps.  The sharded differential suite
# builds the same databases through the registry (`backend_options`).

#: A rising contention curve so Gmpl changes genuinely re-price units.
RISING_DB = DbFunction(
    ((1.0, 10.0), (2.0, 14.0), (4.0, 21.0), (8.0, 33.0), (16.0, 61.0))
)


def make_database(
    backend: str,
    kernel: str,
    sim: Simulation,
    seed: int,
    failure_prob: float = 0.0,
) -> DatabaseServer:
    """A fresh database server of the named backend bound to *sim*.

    ``kernel="per-unit"`` builds the ideal/profiled server's per-unit
    oracle (:mod:`repro.oracle.per_unit`) instead of the coalesced product
    server; the bounded server is inherently per-visit and ignores it.
    """
    per_unit = kernel == "per-unit"
    if kernel not in ("coalesced", "per-unit"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if backend == "ideal":
        ideal = PerUnitIdealDatabase if per_unit else IdealDatabase
        return ideal(sim, failure_prob=failure_prob, seed=seed)
    if backend == "profiled":
        profiled = PerUnitProfiledDatabase if per_unit else ProfiledDatabase
        return profiled(sim, RISING_DB, failure_prob=failure_prob, seed=seed)
    if backend == "bounded":
        return SimulatedDatabase(sim, DbParams(failure_prob=failure_prob), seed=seed)
    raise ValueError(f"unknown backend {backend!r}")


def backend_options(backend: str, seed: int, failure_prob: float = 0.0) -> dict:
    """Registry ``backend_options`` matching :func:`make_database` exactly.

    The sharded differential suite builds services through the backend
    registry (one fresh replica per shard); these options make the
    registry path produce the same substrate :func:`make_database` wires
    by hand, so both differential suites execute the same databases.
    """
    if backend == "ideal":
        return {"seed": seed, "failure_prob": failure_prob}
    if backend == "profiled":
        return {"db_function": RISING_DB, "seed": seed, "failure_prob": failure_prob}
    if backend == "bounded":
        return {"params": DbParams(failure_prob=failure_prob), "seed": seed}
    raise ValueError(f"unknown backend {backend!r}")


def scenario_pattern(
    seed: int,
    *,
    nb_nodes: int = 24,
    nb_rows: int = 4,
    pct_enabled: float = 50.0,
    max_cost: int = 6,
) -> GeneratedPattern:
    """The generated schema pattern the differential scenarios execute."""
    return generate_pattern(
        PatternParams(
            nb_nodes=nb_nodes,
            nb_rows=nb_rows,
            pct_enabled=pct_enabled,
            max_cost=max_cost,
            seed=seed,
        )
    )


ENGINES = {"reference": Engine, "batched": BatchedEngine}

#: Every InstanceMetrics counter participates in the trace comparison.
METRIC_FIELDS = tuple(f.name for f in fields(InstanceMetrics))

#: The benchmark's flow pattern (perf/stack.py): its two source-keyed
#: queries are enabled above 88, everything downstream is shared.
PERF = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))


class RecordingObserver(EngineObserver):
    """Flattens every observer callback into a comparable event tuple."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_instance_start(self, instance):
        self.events.append(("start", instance.instance_id))

    def on_launch(self, instance, name, *, speculative):
        self.events.append(("launch", instance.instance_id, name, speculative))

    def on_query_done(self, instance, name, *, units, completed):
        self.events.append(("done", instance.instance_id, name, units, completed))

    def on_instance_complete(self, instance):
        self.events.append(("complete", instance.instance_id))


def typed_schema(fn, condition=None) -> DecisionFlowSchema:
    """source ``s`` → ``a = fn(s)`` → target ``t``."""
    gate = {} if condition is None else {"condition": condition}
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", inputs=("s",), fn=fn, cost=2)),
            Attribute("t", task=q("t", inputs=("a",), value=1), is_target=True, **gate),
        ],
        name="typed",
    )


def two_source_schema() -> DecisionFlowSchema:
    """``a`` is keyed by ``s1`` and cheap, ``x`` by ``s2`` and slow; ``g``
    reads ``x`` where ``a > 3`` — elsewhere ``x`` is unneeded once ``a``
    is in — and is keyed by ``x``'s value, a constant."""
    return DecisionFlowSchema(
        [
            Attribute("s1"),
            Attribute("s2"),
            Attribute("a", task=q("a", ("s1",), fn=lambda v: v["s1"], cost=1)),
            Attribute("x", task=q("x", ("s2",), value=5, cost=6)),
            Attribute(
                "g", task=q("g", ("x",), value=2, cost=1), condition=Comparison("a", Op.GT, 3)
            ),
            Attribute("t", task=q("t", ("a", "g"), fn=add_inputs, cost=10), is_target=True),
        ],
        name="exits",
    )


LOW = {"s1": 1, "s2": 5}  # `g` disabled: `x` is unneeded from `a` on
HIGH = {"s1": 10, "s2": 5}  # needs the same `x`
OTHER = {"s1": 20, "s2": 7}  # an `x` of its own, the same `g`


def run(
    engine_cls,
    schema,
    code,
    *,
    arrivals=None,
    closed=None,
    drive=None,
    backend="ideal",
    kernel="coalesced",
    halt_policy="cancel",
    cancel_unneeded=False,
    failure_prob=0.0,
    seed=5,
    cache=True,
    memo_limit=4096,
    cohorts=False,
    pooled=False,
    observe=False,
    listen=True,
):
    """Run an open schedule ``[(at, sources), ...]``, a closed loop
    ``(concurrency, [sources, ...], think time)`` or whatever
    ``drive(engine, sim)`` submits and runs; returns (trace, engine).

    ``listen=False`` attaches no observer (the path that emits nothing);
    a :class:`RecordingObserver` passed as ``listen`` records instead of
    a fresh one.

    Every run checks that Work is the database's work: each unit the
    database ran is booked to exactly one instance; and, on the batched
    engine, that every settled instance has let go of its per-run fields.
    """
    sim = Simulation()
    database = make_database(backend, kernel, sim, seed, failure_prob)
    observer = RecordingObserver() if listen is True else listen or None
    engine = engine_cls(
        schema,
        Strategy.parse(code, cancel_unneeded=cancel_unneeded),
        database,
        halt_policy=halt_policy,
        observer=observer,
        query_cache=QueryShareCache(database, memo_limit=memo_limit) if cache else None,
        obs=Observability.create() if observe else None,
        **({"cohorts": cohorts} if engine_cls is BatchedEngine else {}),
    )
    if pooled:  # the simulation's own pool drain, whichever engine
        sim.set_batch_consumer(sim.fire_pooled)
    if drive is not None:
        drive(engine, sim)
    elif closed is None:
        for at, values in arrivals:
            engine.submit_instance(values, at=at)
    else:
        concurrency, queue, think = closed
        queue = list(queue)

        def submit_next(_metrics=None):
            if queue:
                engine.submit_instance(queue.pop(0), at=sim.now + think, on_complete=submit_next)

        for _ in range(concurrency):
            submit_next()
    sim.run()
    booked = sum(i.metrics.work_units for i in engine.instances)
    assert booked == database.total_units, f"Work {booked} != database units {database.total_units}"
    if isinstance(engine, BatchedEngine):
        for instance in engine.instances:
            if instance.done and not instance.inflight:
                held = unsettled(instance)
                assert not held, f"settled {instance.instance_id} still holds {held}"
    return trace_of(engine, observer.events if observer else ()), engine


def run_closed_loop(config, backend: str, seed: int, *, kernel: str = "coalesced") -> dict:
    """Twelve instances, three at a time, through a service: replacements
    start inside completion dispatches, same-instant start/completion
    ties.  The trace, its events the service log's."""
    pattern = scenario_pattern(seed, nb_nodes=20, pct_enabled=60.0, max_cost=5)
    sim = Simulation()
    database = make_database(backend, kernel, sim, seed)
    bundle = Backend(backend, sim, database, time_unit="units" if backend == "ideal" else "ms")
    service = DecisionService(pattern.schema, config, backend=bundle)
    log = service.attach_log()
    service.run_closed(12, concurrency=3, values=pattern.source_values)
    return trace_of(service.engine, log.events)


def _row(metrics: InstanceMetrics) -> tuple:
    return tuple(getattr(metrics, name) for name in METRIC_FIELDS)


def _flat(event) -> tuple:
    """An observer tuple as it is; a service event as one, its metrics as
    their fields."""
    if isinstance(event, tuple):
        return event
    return (type(event).__name__,) + tuple(
        _row(value) if isinstance(value, InstanceMetrics) else value
        for value in vars(event).values()
    )


def trace_of(engine, events) -> dict:
    """Everything observable of *engine*'s finished run, part by part."""
    sim, database, cache = engine.sim, engine.database, engine.query_cache
    obs = getattr(engine, "obs", None)  # (the reference engine is not instrumented)
    instances = engine.instances
    view = SimpleNamespace(engine=engine)  # all the table's summary and counter rows read
    # (cohorts are the batched engine's own: the reference has none to count)
    counters = {**table.fold(view, table.SUMMARY), "cohort_hits": 0, "cohort_splits": 0}
    summary = replace(summarize((i.metrics for i in instances if i.done), empty_ok=True), **counters)
    if obs and obs.enabled:  # the registry as an armed run's snapshot has it
        counted = [row for row in table.COUNTS if row.kind == table.COUNTER]
        table.publish(obs.registry, table.read(view, counted))
    return {
        "events": [_flat(event) for event in events],
        "values": [
            (i.instance_id, i.done, sorted((n, repr(v)) for n, v in i.value_map().items()))
            for i in instances
        ],
        "states": [sorted((n, s.name) for n, s in i.state_map().items()) for i in instances],
        "metrics": [_row(i.metrics) for i in instances],
        "database": (
            database.total_units,
            database.queries_completed,
            database.queries_cancelled,
            database.queries_failed,
            database.mean_gmpl(),
        ),
        "gmpl_tail": database.mean_gmpl(since=sim.now / 3.0),
        "cache": cache and (cache.hits, cache.misses, cache.coalesced, cache.reissues),
        "lru": cache and list(cache._memo),
        "summary": asdict(summary),
        "end": (sim.now, sim.pending),
        "obs": {"spans": len(obs.tracer), **obs.registry.snapshot()} if obs and obs.enabled else None,
    }


def _approx(value):
    """*value* with every float held to ``rel=1e-9``."""
    if type(value) is float:
        return pytest.approx(value, rel=1e-9)
    if isinstance(value, tuple):
        return tuple(map(_approx, value))
    if isinstance(value, list):
        return list(map(_approx, value))
    if isinstance(value, dict):
        return {key: _approx(item) for key, item in value.items()}
    return value


def _timeless(value):
    """*value* with every float left out, at any depth."""
    if isinstance(value, tuple):
        return tuple(_timeless(part) for part in value if type(part) is not float)
    return value


def assert_same(reference: dict, other: dict, *, approx_times: bool = False) -> None:
    """*other*'s trace is *reference*'s, part by part, each message naming
    its part; *approx_times* holds floats (times, Gmpl) to ``rel=1e-9``."""
    assert other.keys() == reference.keys(), "parts"
    # The contract is the event multiset; the deterministic DES makes the
    # sequence hold too, and the multiset fails first with the sharper message.
    if approx_times:
        got, want = (Counter(map(_timeless, trace["events"])) for trace in (other, reference))
    else:
        got, want = Counter(other["events"]), Counter(reference["events"])
    assert got == want, "events"
    want = _approx(reference) if approx_times else reference
    for part in reference:
        assert other[part] == want[part], part


def assert_matches_reference(schema, code, **arm):
    """The batched engine armed with *arm* ≡ the reference engine under
    the same dispatch; returns the batched engine.

    Where a query is cancelled at an instant others complete at, the
    reference engine itself orders that instant's events differently
    pooled and per-event (the same multiset), so both sides drain alike.
    """
    reference, _ = run(Engine, schema, code, **arm)
    batched, engine = run(BatchedEngine, schema, code, **arm)
    assert_same(reference, batched)
    return engine
