"""A finished query leaves no reference cycle.

Everything a query, an instance, a cohort or a drain epoch allocates is
freed by reference counting once it is finished: the census
(:func:`tests._support.cyclic_garbage`) of what each execution path
leaves for the cyclic collector is empty, cell by cell, over both
engines × the three backends × {query cache, query cache with
cancel-unneeded, none} × PSE100 / PCE0 / NCC100, plus the drain halt,
failure injection, the per-unit kernels, a serial fleet, closed loops
and a served daemon.  The release
asserts of ``test_launch_path`` and ``test_flow_memo`` hold here with the
collector off: released means freed.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.core.batch_engine as batch_engine
import repro.core.cohorts as cohort_tier
from repro import DbParams, ExecutionConfig, create_service
from repro.api import DecisionService
from repro.oracle.instance import InstanceRuntime
from repro.server import ServerDaemon
from tests._support import (
    ENGINES,
    PERF,
    collector_off,
    cyclic_garbage,
    garbage_table,
    population,
    run,
)

SOURCE = PERF.schema.source_names[0]

#: Instances per cell: bursts of hot valuations at shared instants, plus
#: fresh ones, so cohorts form, the cache coalesces and queries dispatch.
#: The reference engine, the slow oracle, runs every sixth of them.
N = 150
ARRIVALS = {"batched": population("overlap", N)}
ARRIVALS["reference"] = ARRIVALS["batched"][::6]

BACKENDS = ("ideal", "profiled", "bounded")
REUSE = {
    "cache": {"query_cache": True},
    # cancel-unneeded cancels primaries that followers still wait on: the
    # cache's reissue path
    "cache-cancel": {"query_cache": True, "cancel_unneeded": True},
    "neither": {},
}
CODES = ("PSE100", "PCE0", "NCC100")


def serve(code: str, **config):
    """A run of :data:`ARRIVALS` through a service built now (outside the
    census: construction allocates once, not per instance), released at
    the end."""
    config = ExecutionConfig.from_code(code, **config)
    service = create_service(PERF.schema, config)

    def drive():
        for at, value in ARRIVALS[config.engine]:
            service.submit({SOURCE: value}, at=at)
        service.run()
        service.release_completed()
        return service

    return drive


def assert_no_cycles(drive, instances: int) -> None:
    garbage = cyclic_garbage(drive)
    assert not garbage, "cyclic garbage left behind:\n" + garbage_table(garbage, instances)


@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("reuse", list(REUSE))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_the_execution_matrix_leaves_no_cyclic_garbage(engine, backend, reuse, code):
    assert_no_cycles(
        serve(code, engine=engine, backend=backend, **REUSE[reuse]), len(ARRIVALS[engine])
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_the_drain_halt_leaves_no_cyclic_garbage(engine):
    drive = serve("PSE100", engine=engine, query_cache=True, halt_policy="drain")
    assert_no_cycles(drive, len(ARRIVALS[engine]))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_failed_queries_leave_no_cyclic_garbage(engine, backend):
    options = (
        {"params": DbParams(failure_prob=0.2)}
        if backend == "bounded"
        else {"failure_prob": 0.2}
    )
    drive = serve(
        "PSE100", engine=engine, backend=backend, query_cache=True, backend_options=options
    )
    assert_no_cycles(drive, len(ARRIVALS[engine]))


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "neither"])
@pytest.mark.parametrize("backend", ["ideal", "profiled"])
@pytest.mark.parametrize("engine", ENGINES)
def test_the_per_unit_kernels_leave_no_cyclic_garbage(engine, backend, cache):
    """Built directly, as the kernel differential suite builds them: the
    per-unit kernels exist below the service."""
    arrivals = [(at, {SOURCE: value}) for at, value in ARRIVALS[engine]]

    def drive():
        _, built = run(
            ENGINES[engine],
            PERF.schema,
            "NCC100",
            arrivals=arrivals,
            backend=backend,
            kernel="per-unit",
            cache=cache,
            cohorts=cache,
            pooled=True,
            listen=False,
        )
        built.release_settled()
        return built

    assert_no_cycles(drive, len(arrivals))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_serial_fleet_leaves_no_cyclic_garbage(engine):
    drive = serve("PSE100", engine=engine, query_cache=True, shards=2)
    assert_no_cycles(drive, len(ARRIVALS[engine]))


@pytest.mark.parametrize("shards", [None, 2], ids=["plain", "fleet-2-serial"])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_closed_loop_leaves_no_cyclic_garbage(engine, shards):
    """A released closed loop is freed: the loop that submits each next
    instance from the last one's completion (on a fleet, each shard's,
    replayed from its ``closed`` op) outlives its instances in no cycle."""
    values = [{SOURCE: value} for _, value in ARRIVALS[engine]]
    fleet = {"shards": shards, "executor": "serial"} if shards else {}
    config = ExecutionConfig.from_code("PSE100", engine=engine, query_cache=True, **fleet)
    service = create_service(PERF.schema, config)

    def drive():
        service.run_closed(len(values), concurrency=8, values=values.__getitem__)
        assert len(service.release_completed()) == len(values)
        return service

    assert_no_cycles(drive, len(values))


def test_a_served_daemon_leaves_no_cyclic_garbage(tmp_path):
    """Drain epochs of ten distinct valuations each, persisted to a store
    and released: nothing an epoch served outlives it in a cycle."""
    config = ExecutionConfig.from_code("PSE100", query_cache=True)
    daemon = ServerDaemon(PERF.schema, config, db=str(tmp_path / "runs.sqlite"))
    values = [value for _, value in population("distinct", N)]

    def drive():
        for start in range(0, N, 10):
            daemon.submit_many([{SOURCE: value} for value in values[start : start + 10]])
            assert daemon.wait_idle(30.0)
        return daemon

    try:
        assert_no_cycles(drive, N)
        assert daemon.server_stats()["persisted"] == N
    finally:
        daemon.shutdown()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cohort_in_lockstep_is_freed_on_release(backend):
    """Identical same-instant arrivals ride one cohort to the end; once
    the engine releases them, neither the cohort nor its stage and launch
    records outlive them — not as garbage, not alive."""
    kinds = {cohort_tier._Cohort, cohort_tier._StageRecord, cohort_tier._LaunchRecord}
    config = ExecutionConfig.from_code("NCC100", backend=backend, query_cache=True)
    service = DecisionService(PERF.schema, config)

    def drive():
        for _ in range(12):
            service.submit({SOURCE: 93.5}, at=0.0)
        service.run()
        assert service.engine.cohort_hits == 11
        assert len(service.release_completed()) == 12
        assert not any(type(obj) in kinds for obj in gc.get_objects())
        return service

    assert_no_cycles(drive, 12)


# -- released means freed: the refcount-only twins of the release asserts ------


def test_the_table_holds_no_instance_and_no_source_object_without_the_collector():
    """``test_launch_path``'s release assert with the collector off."""

    class Box(float):
        __hash__ = None

    config = ExecutionConfig.from_code("PSE100", engine="batched", query_cache=True)
    service = DecisionService(PERF.schema, config)
    with collector_off():
        service.submit({SOURCE: 94.0})
        service.run()
        value = Box(93.5)
        handle = service.submit({SOURCE: value}, at=service.now + 10.0)
        service.run()
        assert handle.done and service.engine.hit_waves > 0
        gone = weakref.ref(value)
        assert len(service.release_completed()) == 2
        del handle, value
        assert gone() is None
        assert not any(isinstance(obj, batch_engine.BatchedInstance) for obj in gc.get_objects())


def test_release_completed_between_rounds_frees_without_the_collector():
    """``test_flow_memo``'s release assert with the collector off: after
    rounds of submit → run → release on both engines (the batched one
    replaying from its flow table), no instance is left."""
    services = {
        kind: DecisionService(
            PERF.schema, ExecutionConfig.from_code("PSE100", engine=kind, query_cache=True)
        )
        for kind in ENGINES
    }
    with collector_off():
        for _ in range(5):
            for service in services.values():
                handles = [
                    service.submit({SOURCE: value}, at=service.now + 10.0)
                    for value in (93.5, 95.25, 93.5)
                ]
                service.run()
                assert all(h.result() for h in handles)
                del handles
                assert len(service.release_completed()) == 3
        assert services["batched"].engine.flow_replays == 3 * 3
        kinds = (batch_engine.BatchedInstance, InstanceRuntime)
        assert not any(isinstance(obj, kinds) for obj in gc.get_objects())
