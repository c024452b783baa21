"""A lockstep rider holds no metrics record of its own until it needs one.

A cohort member that books nothing for itself shares its cohort's final
record (:class:`~repro.core.batch_instance.SharedMetrics`), built once by
the first member to finish.  Reading ``metrics`` gives a rider a private
equal copy under its own id; a record read before the rider finished is
its own and stays live.  Every record read is the reference engine's for
that instance, and a post-halt straggle booked once on the shared record
equals the per-member booking of the ``cohorts=False`` seam.

A rider is a row of its cohort (:class:`~repro.core.rows.Row`): the cases
at the end hold rows to the reference engine where they read, listen,
take callbacks, are released, run on a fleet or are built into instances.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro import (
    Attribute,
    BatchedEngine,
    Comparison,
    DecisionFlowSchema,
    Engine,
    Op,
    create_service,
)
from repro.api import DecisionService, ExecutionConfig
from repro.core.batch_instance import BatchedInstance, SharedMetrics
from repro.core.metrics import InstanceMetrics
from repro.core.rows import Row
from tests._support import METRIC_FIELDS, PERF, _row, assert_same, q, run, trace_of

SOURCE = PERF.schema.source_names[0]
N = 12


def services(observe: bool = False) -> dict[str, DecisionService]:
    """A batched (armed if *observe*) and a reference service on the
    product stack."""
    return {
        engine: DecisionService(
            PERF.schema,
            ExecutionConfig.from_code(
                "PSE100", engine=engine, query_cache=True, observe=observe and engine == "batched"
            ),
        )
        for engine in ("batched", "reference")
    }


def identical(service: DecisionService, at: float = 0.0, n: int = N) -> list:
    """*n* same-instant arrivals of one valuation: one representative, the
    rest its riders."""
    return [service.submit({SOURCE: 93.5}, at=at) for _ in range(n)]


def test_riders_share_one_record_until_it_is_read():
    service = services()["batched"]
    handles = identical(service)
    service.run()
    assert service.engine.cohort_hits == N - 1
    rep, riders = handles[0], handles[1:]
    assert type(rep.instance.booked) is InstanceMetrics
    shared = riders[0].instance.booked
    assert type(shared) is SharedMetrics
    assert all(h.instance.booked is shared for h in riders)
    read = riders[3].metrics
    assert type(read) is InstanceMetrics and riders[3].instance.booked is read
    assert all(h.instance.booked is shared for h in riders if h is not riders[3])


def test_a_read_is_the_reference_record_under_the_riders_own_id():
    built = services()
    handles = {engine: identical(service) for engine, service in built.items()}
    for service in built.values():
        service.run()
    for handle, reference in zip(handles["batched"], handles["reference"]):
        metrics = handle.metrics
        assert metrics.instance_id == handle.instance_id
        assert metrics == reference.metrics
        assert handle.metrics is metrics and handle.wait() is metrics
    assert built["batched"].summary() == replace(
        built["reference"].summary(), cohort_hits=N - 1
    )


def test_mutating_one_riders_copy_leaves_the_others_unchanged():
    built = services()
    handles = {engine: identical(service) for engine, service in built.items()}
    for service in built.values():
        service.run()
    batched = handles["batched"]
    batched[1].metrics.work_units += 1000
    batched[1].metrics.queries_completed = -1
    assert type(batched[2].instance.booked) is SharedMetrics  # the others still share
    for handle, reference in list(zip(batched, handles["reference"]))[2:]:
        assert handle.metrics == reference.metrics
    assert batched[1].metrics.work_units == handles["reference"][1].metrics.work_units + 1000


@pytest.mark.parametrize("observe", [False, True], ids=["disarmed", "armed"])
def test_completion_events_and_callbacks_read_the_riders_record(observe):
    built = services(observe=observe)
    batched = built["batched"]
    log = batched.attach_log()
    handles = identical(batched)
    reference = identical(built["reference"])
    batched.run()
    built["reference"].run()
    events = {e.instance_id: e for e in log.events if hasattr(e, "metrics")}
    for handle, twin in zip(handles, reference):
        assert events[handle.instance_id].metrics is handle.metrics
        assert handle.metrics == twin.metrics
    engine, seen = batched.engine, []
    callbacks = [
        engine.submit_instance({SOURCE: 93.5}, at=batched.now + 1.0, on_complete=seen.append)
        for _ in range(4)
    ]
    batched.run()
    assert [m.instance_id for m in seen] == [i.instance_id for i in callbacks]
    assert all(m is i.metrics for m, i in zip(seen, callbacks))


def test_a_record_read_before_start_is_the_live_one_after_the_run():
    built = services()
    handles = {engine: identical(service, at=5.0) for engine, service in built.items()}
    early = {k: handles["batched"][k].metrics for k in (0, 1, 4)}
    assert all(m.finish_time is None and m.work_units == 0 for m in early.values())
    built["batched"].run(until=5.0)  # started and riding, not finished
    mid = handles["batched"][6].metrics
    assert mid.finish_time is None
    for service in built.values():
        service.run()
    batched = handles["batched"]
    assert built["batched"].engine.cohort_hits == N - 1
    for k, metrics in early.items():
        assert batched[k].metrics is metrics and metrics.done
    assert batched[6].metrics is mid and mid.done
    for handle, reference in zip(batched, handles["reference"]):
        assert handle.metrics == reference.metrics


def straggler_schema() -> DecisionFlowSchema:
    """``t`` reads ``g`` only where ``a > 3``, and ``g`` reads the slow
    ``x``: at ``s = 1`` the target decides at t = 2 with ``x`` (cost 20,
    launched at the start) still in flight — a post-halt straggler."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", ("s",), fn=lambda v: v["s"], cost=1)),
            Attribute("x", task=q("x", ("s",), value=5, cost=20)),
            Attribute(
                "g", task=q("g", ("x",), value=2, cost=1), condition=Comparison("a", Op.GT, 3)
            ),
            Attribute("t", task=q("t", ("a", "g"), fn=lambda v: v["a"], cost=1), is_target=True),
        ],
        name="straggler",
    )


@pytest.mark.parametrize("read_early", [(), (2, 5)], ids=["none-read", "two-read"])
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
def test_a_straggle_booked_once_on_the_shared_record_is_the_per_member_booking(
    halt_policy, read_early
):
    """Six arrivals of one valuation finish at t = 2; ``x`` straggles to
    t = 20.  With cohorts, the five riders share one record, on which the
    straggle is booked once (riders read before it, on their own
    copies); with the ``cohorts=False`` seam and on the reference engine
    each books its own — and every record reads the same."""
    shared = {}

    def drive(engine, sim):
        instances = [engine.submit_instance({"s": 1}) for _ in range(6)]
        sim.run(until=3.0)
        assert all(i.done for i in instances) and instances[0].inflight
        for k in read_early:
            instances[k].metrics
        sim.run()
        if isinstance(engine, BatchedEngine):
            shared["booked"] = [i.booked for i in instances]

    traces = {}
    for label, engine_cls, cohorts in (
        ("reference", Engine, False),
        ("seam", BatchedEngine, False),
        ("cohorts", BatchedEngine, True),
    ):
        shared.clear()
        traces[label], engine = run(
            engine_cls,
            straggler_schema(),
            "PSE100",
            drive=drive,
            halt_policy=halt_policy,
            cohorts=cohorts,
        )
        if label == "cohorts":
            assert engine.cohort_hits == 5
            booked = shared["booked"]
            final = booked[1]
            assert type(final) is SharedMetrics
            assert [b is final for b in booked] == [k not in read_early and k > 0 for k in range(6)]
            twin = dict(zip(METRIC_FIELDS, traces["seam"]["metrics"][1]))
            for field in ("queries_completed", "queries_cancelled", "speculative_wasted_queries"):
                assert getattr(final, field) == twin[field], field
    assert_same(traces["reference"], traces["seam"])
    assert_same(traces["reference"], traces["cohorts"])


# -- a rider is a row of its cohort -------------------------------------------------
#
# An arrival right behind one with the same typed start key in an open
# arrival run (no ``on_complete``, no flow trace on file) is submitted as a
# :class:`~repro.core.rows.Row`; each case decides — values, metrics,
# events, database totals — as the reference engine does.


def outcome(read) -> tuple:
    """What a read returns, ``("ok", repr)``, or raises: its type and message."""
    try:
        return ("ok", repr(read()))
    except (KeyError, ValueError) as error:
        return (type(error).__name__, str(error))


@pytest.mark.parametrize("until", ["before", 5.0, 8.0, "settled"])
def test_one_value_read_equals_the_cell_read_on_every_kind_of_instance(until):
    """``value(name)`` on the reference instance, a batched instance and a
    row — and through the handle — returns or raises exactly what
    ``cells[name].value`` does: before start, at its start, mid-run and
    once settled."""
    built = services()
    handles = {engine: identical(service, at=5.0, n=3) for engine, service in built.items()}
    for service in built.values():
        if until == "settled":
            service.run()
        elif until != "before":
            service.run(until=until)
    batched, reference = handles["batched"], handles["reference"]
    # every arrival is a row; the representative's is built at its start
    assert [type(h.instance) for h in batched] == [Row, Row, Row]
    built = [h.instance.materialized is not None for h in batched]
    assert built == [until != "before", False, False]
    assert all(h.done for h in batched) == (until == "settled")
    names = (*PERF.schema.names, "no-such-attribute")
    for handle, twin in zip(batched, reference):
        for name in names:
            want = outcome(lambda: twin.instance.cells[name].value)
            assert outcome(lambda: twin.instance.value(name)) == want, name
            assert outcome(lambda: handle.instance.cells[name].value) == want, name
            assert outcome(lambda: handle.instance.value(name)) == want, name
            assert outcome(lambda: handle.value(name)) == want, name
        assert handle.instance.value_tuple() == twin.instance.value_tuple()
        assert handle.instance.state_map() == twin.instance.state_map()


def test_identical_arrivals_at_one_instant_hold_one_batched_instance():
    service = services()["batched"]
    handles = identical(service, n=10_000)
    service.run()
    assert service.engine.cohort_hits == 10_000 - 1
    rows = service.engine.instances
    assert all(type(row) is Row for row in rows) and len(rows) == 10_000
    built = [row.materialized for row in rows if row.materialized is not None]
    assert len(built) == 1 and type(built[0]) is BatchedInstance
    assert {tuple(h.result().items()) for h in handles} == {tuple(handles[0].result().items())}


def test_a_row_whose_key_is_traced_before_its_run_fires_replays():
    """Arrivals of one valuation at t = 200 are rows at submission, when no
    trace is on file; the t = 100 one, all query-memo hits, files it
    before they fire, so each replays it from the flow memo as a row, and
    no instance is built for any."""
    seen = {}

    def drive(engine, sim):
        values = {SOURCE: 93.5}
        engine.submit_instance(values, at=0.0)
        engine.submit_instance(values, at=100.0)
        seen["late"] = [engine.submit_instance(values, at=200.0) for _ in range(4)]
        seen["kinds"] = [type(instance) for instance in seen["late"]]

    traces = {}
    for engine_cls in (Engine, BatchedEngine):
        traces[engine_cls], engine = run(
            engine_cls, PERF.schema, "PSE100", drive=drive, cohorts=True, pooled=True
        )
    assert seen["kinds"] == [Row, Row, Row, Row]
    assert all(row.materialized is None for row in seen["late"])
    assert engine.flow_traces == 1 and engine.flow_replays == 4 and engine.cohort_hits == 0
    assert_same(traces[Engine], traces[BatchedEngine])


def test_rows_under_an_attached_event_log_decide_as_the_reference():
    """A log listens: the cohort finishes its rows one by one, each with
    its events, and each event's record is the row's own."""
    built = services()
    logs = {engine: service.attach_log() for engine, service in built.items()}
    handles = {}
    for engine, service in built.items():
        handles[engine] = identical(service)
        service.run()
    engine = built["batched"].engine
    rows = [i for i in engine.instances if i.materialized is None]
    assert len(rows) == N - 1 and all(type(i) is Row for i in engine.instances)
    assert_same(
        trace_of(built["reference"].engine, logs["reference"].events),
        trace_of(engine, logs["batched"].events),
    )
    completed = {e.instance_id: e.metrics for e in logs["batched"].events if hasattr(e, "metrics")}
    assert all(completed[h.instance_id] is h.metrics for h in handles["batched"])


def test_rows_mixed_with_completion_callbacks_decide_as_the_reference():
    """Every fourth arrival passes ``on_complete`` (a row built into an
    instance at its start, which rides as one), the rest of a burst behind
    it ride as rows; the callbacks fire in the reference order with the
    reference records."""
    seen = {}

    def drive(engine, sim):
        called = seen.setdefault(type(engine), [])
        for k in range(16):
            callback = (lambda m, k=k: called.append((k, _row(m)))) if k % 4 == 1 else None
            engine.submit_instance({SOURCE: 93.5}, at=0.0, on_complete=callback)
        seen["kinds"] = [type(instance).__name__ for instance in engine.instances]

    traces = {}
    for engine_cls in (Engine, BatchedEngine):
        traces[engine_cls], engine = run(
            engine_cls, PERF.schema, "PSE100", drive=drive, cohorts=True, pooled=True
        )
    assert seen["kinds"].count("Row") == 16 and engine.cohort_hits == 15
    # the representative and the four with a callback ran as instances
    assert sum(row.materialized is not None for row in engine.instances) == 5
    assert len(seen[BatchedEngine]) == 4 and seen[BatchedEngine] == seen[Engine]
    assert_same(traces[Engine], traces[BatchedEngine])


def test_released_rows_read_as_the_reference_after_release():
    built = services()
    handles = {engine: identical(service) for engine, service in built.items()}
    released = {}
    for engine, service in built.items():
        service.run()
        released[engine] = service.release_completed()
        assert service.engine.instances == [] and len(released[engine]) == N
    assert released["batched"] == tuple(handles["batched"])
    for handle, twin in zip(handles["batched"], handles["reference"]):
        assert handle.done and handle.result() == twin.result()
        assert handle.value_map() == twin.value_map()
        assert handle.instance.value_tuple() == twin.instance.value_tuple()
        assert handle.instance.state_map() == twin.instance.state_map()
        assert handle.metrics == twin.metrics and handle.metrics.instance_id == handle.instance_id
    assert built["batched"].summary() == replace(built["reference"].summary(), cohort_hits=N - 1)
    database = {engine: service.database for engine, service in built.items()}
    assert database["batched"].total_units == database["reference"].total_units


def test_rows_on_a_two_shard_serial_fleet_decide_as_the_reference():
    fleets = {
        engine: create_service(
            PERF.schema,
            ExecutionConfig.from_code(
                "PSE100", engine=engine, query_cache=True, shards=2, executor="serial"
            ),
        )
        for engine in ("batched", "reference")
    }
    logs = {engine: fleet.attach_log() for engine, fleet in fleets.items()}
    handles = {engine: identical(fleet, n=24) for engine, fleet in fleets.items()}
    for fleet in fleets.values():
        fleet.run()
    batched, reference = fleets["batched"], fleets["reference"]
    assert batched.summary().cohort_hits == 24 - 2  # one representative per shard
    assert batched.summary() == replace(reference.summary(), cohort_hits=24 - 2)
    for handle, twin in zip(handles["batched"], handles["reference"]):
        assert (handle.shard, handle.result(), handle.value_map()) == (
            twin.shard,
            twin.result(),
            twin.value_map(),
        )
        assert handle.metrics == twin.metrics
    assert [s.total_units for s in batched.stats()] == [s.total_units for s in reference.stats()]
    project = lambda log: Counter(map(repr, log.events))  # noqa: E731
    assert project(logs["batched"]) == project(logs["reference"])
