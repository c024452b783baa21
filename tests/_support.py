"""Shared builders for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Mapping, Sequence

from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DbParams,
    DecisionFlowSchema,
    Engine,
    IdealDatabase,
    NULL,
    Op,
    PatternParams,
    QueryTask,
    Simulation,
    SimulatedDatabase,
    Strategy,
    SynthesisTask,
    generate_pattern,
)
from repro.core.tasks import constant
from repro.simdb.database import DatabaseServer, ProfiledDatabase
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


@contextmanager
def engine_arms(*, pooled: bool = True, cohorts: bool = True):
    """Build the services made inside on the per-event oracle
    (``pooled=False``) and/or with cohorts off (``cohorts=False``).

    Neither axis is a config field: every ``DecisionService`` pools, and
    the batched engine arms cohorts with the query cache.  Both are
    engine-level seams (no ``enable_pooled_dispatch()``;
    ``BatchedEngine(cohorts=False)``), pinned here for services built in
    this process and for shard workers forked while it is active.
    """
    from repro.api import service

    classes, enable = dict(service._ENGINE_CLASSES), Engine.enable_pooled_dispatch
    if not cohorts:
        service._ENGINE_CLASSES["batched"] = partial(BatchedEngine, cohorts=False)
    if not pooled:
        Engine.enable_pooled_dispatch = lambda self: None
    try:
        yield
    finally:
        service._ENGINE_CLASSES.update(classes)
        Engine.enable_pooled_dispatch = enable


# -- differential-scenario helpers ---------------------------------------------
#
# Shared by the kernel differential suite (coalesced vs per-unit databases,
# tests/test_simdb_differential.py) and the engine differential suite
# (reference vs batched engines, tests/test_engine_differential.py), so
# there is exactly one scenario generator to keep honest.

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

    ``kernel`` selects the coalesced or per-unit cost model for the
    ideal/profiled servers; the bounded server is inherently per-visit
    and ignores it.
    """
    if backend == "ideal":
        return IdealDatabase(sim, failure_prob=failure_prob, seed=seed, kernel=kernel)
    if backend == "profiled":
        return ProfiledDatabase(
            sim, RISING_DB, failure_prob=failure_prob, seed=seed, kernel=kernel
        )
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
