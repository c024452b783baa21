"""What every engine shell shares: pure helpers, no execution.

The product engine (:class:`~repro.core.batch_engine.BatchedEngine`) and
the reference engine it is held to (:class:`repro.oracle.Engine`, loaded
only when asked for) share no execution code — only what is here: the
instance-id contract, the start-time check, the observer seam and the
%Permitted cut of the scheduling phase (section 4).  The **%Permitted**
option bounds how much of the candidate pool runs at once: the
per-instance in-flight target is ``max(1, ceil(p/100 · (|pool| +
inflight)))``, so p=0 is strictly sequential (the paper's "no
parallelism", with the guarantee that at least one task is always
selected) and p=100 launches the entire pool.
"""

from __future__ import annotations

import itertools
import math
from math import isfinite

from repro.errors import ExecutionError

__all__ = [
    "EngineObserver",
    "check_start_time",
    "claim_instance_id",
    "counted_inflight",
    "next_instance_ids",
    "permitted_slots",
]


def claim_instance_id(
    instance_id: str | None,
    schema_name: str,
    seq: "itertools.count | None",
    claimed: set[str],
    scope: str = "engine",
) -> str:
    """Allocate or validate an instance id against the *claimed* set.

    Generated ids are ``{schema_name}#{n}`` (*n* drawn from *seq*, which an
    explicit id never reads) and skip any name a caller
    already claimed; an explicit id that is already claimed raises.  The
    caller adds the returned id to *claimed* once the submission is
    accepted (a rejected submission must not burn the name).  Shared by
    the engines and the sharded runtime so preassigned ids can never
    drift from engine-generated ones.

    The reuse contract, the same on every engine and facade:

    * an id is claimed from the accepted submission until its instance
      is released (``release_settled`` / ``release_completed``), so
      *claimed* holds only the ids of the instances still held;
    * a released caller-supplied id may be submitted again, and decides
      exactly as a fresh id would;
    * generated ids never repeat: the owner keeps the floor *seq* starts
      from (``_id_next``) across releases;
    * the server daemon names its instances from its ``RunStore``
      sequence, which keeps its own ids unique for its lifetime, as it
      does across restarts.
    """
    if instance_id is None:
        instance_id = f"{schema_name}#{next(seq)}"
        while instance_id in claimed:
            instance_id = f"{schema_name}#{next(seq)}"
    elif instance_id in claimed:
        raise ExecutionError(
            f"duplicate instance id {instance_id!r}: ids must be unique per {scope}"
        )
    return instance_id


def next_instance_ids(schema_name: str, id_next: int, claimed: set[str], n: int) -> list[str]:
    """The ids the next *n* generated submissions will get, claiming none
    (generated ids only grow, so the batch cannot repeat one): the names a
    batch of arrivals is checked under before any is submitted."""
    drawn = itertools.count(id_next)
    return [claim_instance_id(None, schema_name, drawn, claimed) for _ in range(n)]


def check_start_time(instance_id: str, at: float, now: float) -> None:
    """Refuse a start the clock cannot take (non-finite, or before *now*)."""
    if not isfinite(at):
        raise ExecutionError(f"instance {instance_id!r}: cannot start at non-finite time {at}")
    if at < now:
        raise ExecutionError(
            f"instance {instance_id!r}: cannot start at past time {at} "
            f"(simulation clock is at {now})"
        )


def permitted_slots(pool_size: int, inflight: int, permitted: int) -> int:
    """Launch slots the %Permitted cut grants right now (may be <= 0): the
    in-flight target less what is already in flight."""
    total = pool_size + inflight
    target = max(1, math.ceil(permitted / 100.0 * total))
    return target - inflight


def counted_inflight(instance) -> int:
    """In-flight queries that hold a %Permitted slot.

    Only real database dispatches count: cache followers are zero-cost
    waits on another query, so they are excluded from the cut instead of
    throttling launches.
    """
    return sum(
        1
        for handle in instance.inflight.values()
        if getattr(handle, "counts_for_parallelism", True)
    )


class EngineObserver:
    """No-op observation hooks for engine events.

    Subclass and override the hooks you care about; the engine calls them
    synchronously at the corresponding points of the execution algorithm,
    with the instance (a batched or a reference one: both read alike).
    The high-level :class:`repro.api.DecisionService` builds its typed
    event system on top of this seam.
    """

    def on_instance_start(self, instance) -> None:
        """An instance began its evaluation phase."""

    def on_launch(self, instance, name: str, *, speculative: bool) -> None:
        """A task launch was decided for *name*."""

    def on_query_done(self, instance, name: str, *, units: int, completed: bool) -> None:
        """The database finished (or cancelled) a query this instance issued."""

    def on_instance_complete(self, instance) -> None:
        """All target attributes of the instance are stable."""
