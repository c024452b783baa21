"""A service that runs forever holds what is in flight, not what it served.

Released ids leave the claimed set with their instances (the reuse
contract of :func:`repro.core.engine.claim_instance_id`), and a release
trims the database's Gmpl trace to the earliest start still held.  The
contract is one table over every facade; the served-state test drives a
releasing service past its memo tiers' fill and bounds what it keeps.
"""

from __future__ import annotations

import gc
import itertools
import sys
from dataclasses import replace
from types import FunctionType, ModuleType

import pytest

from repro.api import DecisionService, ExecutionConfig
from repro.errors import ExecutionError
from repro.runtime import ShardedDecisionService, create_service, shard_of
from tests._support import PERF, SERVED_BUDGET, population, serve

SOURCE = PERF.schema.source_names[0]
STACK = ExecutionConfig.from_code("PSE100", query_cache=True)

#: Every facade the contract holds on: both engines on a plain service,
#: and fleets of one and two shards on either transport.
FACADES = {
    "batched": lambda: DecisionService(PERF.schema, STACK),
    "reference": lambda: DecisionService(PERF.schema, STACK.replace(engine="reference")),
    **{
        f"shards-{shards}-{executor}": (
            lambda shards=shards, executor=executor: ShardedDecisionService(
                PERF.schema, STACK.replace(shards=shards, executor=executor)
            )
        )
        for shards in (1, 2)
        for executor in ("serial", "process")
    },
}


@pytest.fixture(params=list(FACADES))
def build(request):
    """Makes services of the facade; each one made is closed afterwards."""
    built = []

    def make():
        built.append(FACADES[request.param]())
        return built[-1]

    yield make
    for service in built:
        service.close()


def served_state(service) -> list[tuple[int, int, object]]:
    """What *service* holds, per id owner: ``(claimed ids, instances held,
    database)`` for a plain service's engine; for an in-process fleet, the
    parent's records, which are also its claimed ids (no database), then
    each shard's engine."""
    if isinstance(service, DecisionService):
        engine = service.engine
        return [(len(engine._instance_ids), len(engine.instances), service.database)]
    rows = [(len(service._records), len(service._records), None)]
    transport = service._transport
    for state in transport._states if transport is not None else ():
        rows.extend(served_state(state.service))
    return rows


def held_bytes(root) -> int:
    """The bytes of every object reachable from *root*, each counted once
    (``sys.getsizeof``).  The walk does not enter modules, classes or a
    function's globals: what a service holds, not the program it runs."""
    seen: set[int] = set()
    stack, total = [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, FunctionType):
            stack.extend(filter(None, (obj.__closure__, obj.__defaults__, obj.__kwdefaults__)))
        else:
            stack.extend(gc.get_referents(obj))
    return total


class TestIdReuse:
    def test_a_released_id_decides_as_a_fresh_one(self, build):
        # The fresh id routes to the released one's shard on every fleet,
        # so both land on the same history.
        fresh = next(
            name
            for name in (f"fresh-{n}" for n in itertools.count())
            if shard_of(name, 2) == shard_of("x", 2)
        )
        readings = []
        for second in ("x", fresh):
            service = build()
            service.submit({SOURCE: 91.5}, instance_id="x").wait()
            assert [h.instance_id for h in service.release_completed()] == ["x"]
            handle = service.submit({SOURCE: 95.25}, instance_id=second)
            handle.wait()
            metrics = replace(handle.metrics, instance_id="")  # all but the id
            readings.append((handle.result(), metrics, service.summary(), service.mean_gmpl()))
        assert readings[0] == readings[1]

    def test_a_live_or_unreleased_id_is_refused(self, build):
        service = build()
        live = service.submit({SOURCE: 91.5}, instance_id="x")
        with pytest.raises(ExecutionError, match="duplicate instance id 'x'"):
            service.submit({SOURCE: 92.5}, instance_id="x")
        live.wait()
        with pytest.raises(ExecutionError, match="duplicate instance id 'x'"):
            service.submit({SOURCE: 92.5}, instance_id="x")
        assert service.release_completed() == (live,)
        assert service.submit({SOURCE: 92.5}, instance_id="x").wait().done

    def test_generated_ids_keep_increasing_across_releases(self, build):
        service = build()
        name = PERF.schema.name
        ids = [service.submit({SOURCE: 90.0 + k}).instance_id for k in range(3)]
        service.run()
        assert len(service.release_completed()) == 3
        # A caller may take a released generated id, or the next one.
        service.submit({SOURCE: 94.0}, instance_id=ids[0])
        service.submit({SOURCE: 94.5}, instance_id=f"{name}#4")
        ids += [service.submit({SOURCE: 95.0 + k}).instance_id for k in range(3)]
        assert ids == [f"{name}#{n}" for n in (1, 2, 3, 5, 6, 7)]
        service.run()
        assert all(handle.done for handle in service.handles)


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "shards-2-serial"])
def test_a_releasing_service_holds_only_what_is_in_flight(shards):
    """10 000 instances served, after memo fill, through a service that
    releases after every epoch: it claims no id it does not hold, its
    Gmpl traces hold one epoch's change points at most, and the bytes it
    holds grow by at most `SERVED_BUDGET` per served instance.  The bytes
    are walked, not traced: a trace started after the warm-up would count
    the full query memo's turnover (new keys, a rebuilt dict table) as
    growth, ≈300 B per instance over 1 000; CI's "Served-state census"
    takes the traced reading, from before the service is built."""
    service = create_service(PERF.schema, STACK.replace(shards=shards))
    # Each shard's 4 096-entry query memo fills within ≈2 500 distinct instances.
    warm = 3000 * shards
    distinct = population("distinct", warm + 2500)
    overlap = population("overlap", 1000 + 7500)
    ran: dict[int, int] = {}

    def bounded(service):
        for claimed, held, database in served_state(service):
            assert claimed <= held
            if database is not None:
                # Every change instant since the trim starts or ends a query.
                queries = database.queries_completed + database.queries_cancelled
                since = queries - ran.get(id(database), 0)
                assert len(database._gmpl_times) <= 1 + 2 * since
                ran[id(database)] = queries

    serve(service, distinct[:warm], check=bounded)
    serve(service, overlap[:1000], check=bounded)
    for items in (distinct[warm:], overlap[1000:]):
        before = held_bytes(service)
        serve(service, items, check=bounded)
        growth = (held_bytes(service) - before) / len(items)
        assert growth <= SERVED_BUDGET, f"{growth:.1f} B per served instance"
    assert all(claimed == held == 0 for claimed, held, _ in served_state(service))
