"""The prequalifying and scheduling phases, name-keyed (sections 3 and 4).

The **prequalifier** builds, per flow instance, the pool of query tasks
eligible for execution:

* under **Conservative** (option C) only READY+ENABLED attributes qualify;
* under **Speculative** (option S) READY attributes qualify too — they may
  be executed before their enabling condition is known;
* under **Propagation** (option P) attributes detected *unneeded* by
  backward propagation are removed from the pool.

Synthesis tasks never enter the pool — the engine executes them inline.

The **scheduler** then selects which pool members to send to the
database, under the %Permitted cut
(:func:`~repro.core.engine.permitted_slots`), ordered by the heuristic:

* **topologically-earliest first** (option E) — prefer attributes closest
  to the sources (smallest longest-path depth in the dependency graph).
  Early results feed forward propagation, which uncovers eligible and
  DISABLED attributes sooner and seeds backward propagation.
* **cheapest first** (option C) — prefer the shortest estimated execution
  duration (the query's cost in units); results return sooner, and a
  misfired speculative query wastes less.

The product engine keeps the pool incrementally and sorts the plan's
precomputed rank scalars instead (:mod:`repro.core.batch_engine`).
"""

from __future__ import annotations

from repro.core.engine import counted_inflight, permitted_slots
from repro.oracle.instance import InstanceRuntime

__all__ = ["candidate_pool", "rank_key", "select_for_launch"]


def candidate_pool(instance: InstanceRuntime) -> list[str]:
    """Names of query attributes currently eligible for launch.

    Returned in schema declaration order; the scheduler applies the
    heuristic ordering and the %Permitted cut.
    """
    pool: list[str] = []
    for name in instance.schema.non_source_names:
        spec = instance.schema[name]
        if spec.task is None or not spec.task.is_query:
            continue
        if name in instance.launched:
            continue
        if instance._is_executable(name):
            pool.append(name)
    return pool


def rank_key(instance: InstanceRuntime, name: str):
    """Sort key implementing the strategy's scheduling heuristic.

    Ties break on topological index, then name, so runs are deterministic.
    """
    graph = instance.schema.graph
    if instance.strategy.heuristic == "earliest":
        primary = graph.depth[name]
    else:
        primary = instance.schema[name].cost
    return (primary, graph.topo_index[name], name)


def select_for_launch(instance: InstanceRuntime) -> list[str]:
    """The scheduling phase: choose pool members to dispatch right now."""
    pool = candidate_pool(instance)
    if not pool:
        return []
    slots = permitted_slots(len(pool), counted_inflight(instance), instance.strategy.permitted)
    if slots <= 0:
        return []
    pool.sort(key=lambda name: rank_key(instance, name))
    return pool[:slots]
