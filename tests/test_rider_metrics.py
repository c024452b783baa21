"""A lockstep rider holds no metrics record of its own until it needs one.

A cohort member that books nothing for itself shares its cohort's final
record (:class:`~repro.core.batch_instance.SharedMetrics`), built once by
the first member to finish.  Reading ``metrics`` gives a rider a private
equal copy under its own id; a record read before the rider finished is
its own and stays live.  Every record read is the reference engine's for
that instance, and a post-halt straggle booked once on the shared record
equals the per-member booking of the ``cohorts=False`` seam.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import Attribute, BatchedEngine, Comparison, DecisionFlowSchema, Engine, Op
from repro.api import DecisionService, ExecutionConfig
from repro.core.batch_instance import SharedMetrics
from repro.core.metrics import InstanceMetrics
from tests._support import METRIC_FIELDS, PERF, assert_same, q, run

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
