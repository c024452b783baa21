"""The task scheduler: heuristic ordering and the %Permitted cut (section 4).

Given the candidate pool, the scheduler selects which queries to send to
the database:

* **topologically-earliest first** (option E) — prefer attributes closest
  to the sources (smallest longest-path depth in the dependency graph).
  Early results feed forward propagation, which uncovers eligible and
  DISABLED attributes sooner and seeds backward propagation.
* **cheapest first** (option C) — prefer the shortest estimated execution
  duration (the query's cost in units); results return sooner, and a
  misfired speculative query wastes less.

The **%Permitted** parallelism option bounds how much of the pool runs at
once: the per-instance in-flight target is ``max(1, ceil(p/100 · (|pool| +
inflight)))``, so p=0 is strictly sequential (the paper's "no parallelism",
with the guarantee that at least one task is always selected) and p=100
launches the entire pool.
"""

from __future__ import annotations

import math

from repro.core.instance import InstanceRuntime
from repro.core.prequalifier import candidate_pool

__all__ = ["rank_key", "permitted_slots", "counted_inflight", "select_for_launch"]


def permitted_slots(pool_size: int, inflight: int, permitted: int) -> int:
    """Launch slots the %Permitted cut grants right now (may be <= 0).

    The per-instance in-flight target is ``max(1, ceil(p/100 · (pool +
    inflight)))``; the slots are whatever of that target is not already
    in flight.  Shared by the reference scheduler and the batched
    engine's index-based selection, so the cut can never drift between
    engines.
    """
    total = pool_size + inflight
    target = max(1, math.ceil(permitted / 100.0 * total))
    return target - inflight


def counted_inflight(instance: InstanceRuntime) -> int:
    """In-flight queries that hold a %Permitted slot.

    Only real database dispatches count: joined (shared) queries and
    cache followers are zero-cost waits on another query, so they are
    excluded from the cut instead of throttling launches.
    """
    return sum(
        1
        for handle in instance.inflight.values()
        if getattr(handle, "counts_for_parallelism", True)
    )


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
