"""Unit tests for the sharded runtime: routing, executors, worker protocol."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro import Attribute, Comparison, DecisionFlowSchema, Op, PatternParams, generate_pattern
from repro.api import DecisionService, ExecutionConfig
from repro.api.backends import create_backend
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.core.batch_engine import BatchedEngine
from repro.oracle import Engine
from repro.core.serialize import config_to_dict, schema_to_dict
from repro.errors import ExecutionError, SimulationError
from repro.nulls import NULL
from repro.runtime import (
    ShardedDecisionService,
    ShardedInstanceHandle,
    create_service,
    merge_shard_events,
    shard_of,
)
from repro.runtime.sharding import _split_concurrency
from repro.runtime.worker import _PersistentShard

from tests._support import (
    FLEET_RETENTION_BUDGET,
    PERF,
    diamond_schema,
    population,
    q,
    retained_bytes,
    retention_table,
    scenario_pattern,
)


@pytest.fixture(scope="module")
def pattern():
    return scenario_pattern(1)


# -- routing -------------------------------------------------------------------


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for index in range(50):
                home = shard_of(f"flow#{index}", shards)
                assert 0 <= home < shards
                assert home == shard_of(f"flow#{index}", shards)  # deterministic

    def test_shard_of_spreads_ids(self):
        homes = {shard_of(f"flow#{i}", 4) for i in range(64)}
        assert homes == {0, 1, 2, 3}

    def test_explicit_instance_id_routes_to_its_home(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig.from_code("PCE0", shards=4)
        )
        handle = service.submit(pattern.source_values, instance_id="custom-id")
        assert handle.shard == shard_of("custom-id", 4)
        assert handle.instance_id == "custom-id"

    def test_duplicate_ids_rejected_across_shards(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig.from_code("PCE0", shards=4)
        )
        service.submit(pattern.source_values, instance_id="dup")
        with pytest.raises(ExecutionError, match="duplicate instance id 'dup'"):
            service.submit(pattern.source_values, instance_id="dup")

    def test_split_concurrency(self):
        assert _split_concurrency(4, 4) == [1, 1, 1, 1]
        assert _split_concurrency(7, 3) == [3, 2, 2]
        assert _split_concurrency(1, 3) == [1, 1, 1]  # every busy shard moves
        assert _split_concurrency(5, 1) == [5]
        assert _split_concurrency(3, 0) == []


# -- facade behavior -----------------------------------------------------------


class TestShardedFacade:
    def test_rejects_prebuilt_backend(self, pattern):
        backend = create_backend("ideal")
        with pytest.raises(TypeError, match="registered backend name"):
            ShardedDecisionService(
                pattern.schema, ExecutionConfig(shards=2), backend=backend
            )

    def test_backend_name_and_options_override(self, pattern):
        service = ShardedDecisionService(
            pattern.schema,
            ExecutionConfig.from_code("PCE0", shards=2),
            backend="ideal",
            seed=3,
        )
        assert service.config.backend == "ideal"
        assert service.config.backend_options["seed"] == 3

    def test_accepts_code_string_and_default_config(self, pattern):
        service = ShardedDecisionService(pattern.schema, "PSE80")
        assert service.shards == 1
        handle = service.submit(pattern.source_values)
        assert handle.wait().done

    def test_handle_values_and_repr(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig.from_code("PCE0", shards=2)
        )
        handle = service.submit(pattern.source_values)
        assert "running" in repr(handle)
        result = handle.result()
        assert set(result) == set(pattern.schema.target_names)
        assert "done" in repr(handle)
        assert handle.value_map()  # stable cells materialized
        assert "shards=2" in repr(service)

    def test_summary_empty_service_is_zeroed(self, pattern):
        for executor in ("serial", "process"):
            service = ShardedDecisionService(
                pattern.schema,
                ExecutionConfig.from_code("PCE0", shards=2, executor=executor),
            )
            summary = service.summary()
            assert summary.count == 0
            assert service.total_units == 0
            assert service.now == 0.0

    def test_mean_gmpl_is_time_weighted(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig.from_code("PSE100", shards=2)
        )
        service.submit_stream([0.0, 0.0, 0.0, 0.0], values=pattern.source_values)
        stats = service.stats()
        expected_total = sum(s.end_time for s in stats)
        assert expected_total > 0
        expected = sum(s.mean_gmpl * s.end_time for s in stats) / expected_total
        assert service.mean_gmpl() == pytest.approx(expected)

    def test_run_closed_covers_all_ids_in_order(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig.from_code("PCE0", shards=3)
        )
        handles = service.run_closed(10, concurrency=4, values=pattern.source_values)
        assert [h.instance_id for h in handles] == [
            f"{pattern.schema.name}#{k}" for k in range(1, 11)
        ]
        assert all(h.done for h in handles)
        assert all(h.shard == service.shard_of(h.instance_id) for h in handles)
        assert service.summary().count == 10

    def test_run_closed_validation(self, pattern):
        service = ShardedDecisionService(pattern.schema, ExecutionConfig(shards=2))
        with pytest.raises(ValueError, match="n must be >= 1"):
            service.run_closed(0)
        with pytest.raises(ValueError, match="concurrency must be >= 1"):
            service.run_closed(3, concurrency=0)

    def test_create_service_picks_the_facade(self, pattern):
        assert isinstance(create_service(pattern.schema, "PCE0"), DecisionService)
        assert isinstance(
            create_service(pattern.schema, ExecutionConfig(shards=2)),
            ShardedDecisionService,
        )
        assert isinstance(
            create_service(
                pattern.schema, ExecutionConfig(executor="process")
            ),
            ShardedDecisionService,
        )


# -- merged event ordering -----------------------------------------------------


class _StampedEvent:
    def __init__(self, time, label):
        self.time = time
        self.label = label

    def __repr__(self):
        return f"E({self.time}, {self.label})"


class TestMergedEvents:
    def test_merge_orders_by_time_then_shard_then_arrival(self):
        a0, a1 = _StampedEvent(1.0, "a0"), _StampedEvent(3.0, "a1")
        b0, b1 = _StampedEvent(1.0, "b0"), _StampedEvent(2.0, "b1")
        merged = merge_shard_events([[a0, a1], [b0, b1]])
        assert [e.label for e in merged] == ["a0", "b0", "b1", "a1"]

    def test_serial_log_matches_plain_service_log(self, pattern):
        plain = DecisionService(pattern.schema, ExecutionConfig.from_code("PSE50"))
        plain_log = plain.attach_log()
        plain.submit_stream([0.0, 1.0, 2.0], values=pattern.source_values)

        sharded = ShardedDecisionService(
            pattern.schema, ExecutionConfig.from_code("PSE50", shards=1)
        )
        sharded_log = sharded.attach_log()
        sharded.submit_stream([0.0, 1.0, 2.0], values=pattern.source_values)

        assert len(sharded_log) == len(plain_log.events)
        assert sharded_log.of_type(LaunchEvent) == plain_log.of_type(LaunchEvent)
        assert sharded_log.events == plain_log.events


# -- the worker protocol, exercised in-process ---------------------------------


class TestWorkerProtocol:
    def _round(self, pattern, ops, collect_events=True, shard=0):
        """One ``("run", ...)`` frame served by a worker's live state."""
        config = ExecutionConfig.from_code("PSE50", engine="batched")
        state = _PersistentShard(shard, pattern.schema, config)
        return state.round(ops, None, collect_events)

    def test_a_round_replays_submits(self, pattern):
        sources = dict(pattern.source_values)
        outcome = self._round(
            pattern,
            ops=[
                ("submit", "w#1", sources, None),
                ("submit", "w#2", sources, 5.0),
            ],
        )
        assert outcome.stats.shard == 0
        assert [r.instance_id for r in outcome.records] == ["w#1", "w#2"]
        assert all(r.done and r.settled for r in outcome.records)
        assert outcome.stats.completed == 2
        assert outcome.stats.total_units > 0
        assert outcome.time_unit == "units"
        assert outcome.events  # collected
        # The outcome mirrors a hand-driven service with the same workload.
        mirror = DecisionService(
            pattern.schema, ExecutionConfig.from_code("PSE50", engine="batched")
        )
        mirror.submit(sources, instance_id="w#1")
        mirror.submit(sources, at=5.0, instance_id="w#2")
        mirror.run()
        assert outcome.records[0].metrics == mirror.handles[0].metrics
        # A record carries its values as one tuple in schema order; a fleet
        # handle reads it back as the plain handle's map.
        fleet = ShardedDecisionService(pattern.schema, ExecutionConfig.from_code("PSE50"))
        read = ShardedInstanceHandle(fleet, 0, outcome.records[1])
        assert read.value_map() == mirror.handles[1].value_map()

    def test_a_round_replays_closed_loops(self, pattern):
        sources = dict(pattern.source_values)
        outcome = self._round(
            pattern,
            ops=[("closed", ["c#1", "c#2", "c#3"], [sources] * 3, 2)],
            collect_events=False,
        )
        assert [r.instance_id for r in outcome.records] == ["c#1", "c#2", "c#3"]
        assert outcome.stats.completed == 3
        assert outcome.events is None

    def test_unknown_op_rejected(self, pattern):
        with pytest.raises(ExecutionError, match="unknown shard op"):
            self._round(pattern, ops=[("warp", "w#1")])

    def test_a_second_round_reports_only_what_is_new(self, pattern):
        sources = dict(pattern.source_values)
        config = ExecutionConfig.from_code("PSE50", engine="batched")
        state = _PersistentShard(0, pattern.schema, config)
        first = state.round([("submit", "w#1", sources, None)], None, True)
        second = state.round([("submit", "w#2", sources, None)], None, True)
        assert [r.instance_id for r in first.records] == ["w#1"]
        assert [r.instance_id for r in second.records] == ["w#2"]
        assert (second.stats.instances, second.stats.completed) == (2, 2)
        assert second.events and not set(map(id, second.events)) & set(map(id, first.events))

    def test_worker_main_speaks_run_and_shutdown_frames(self, pattern):
        import threading
        from multiprocessing import Pipe

        from repro.runtime.worker import ShardOutcome, worker_main

        parent, child = Pipe()
        config = ExecutionConfig.from_code("PSE50", engine="batched")
        worker = threading.Thread(
            target=worker_main,
            args=(child, 1, schema_to_dict(pattern.schema), config_to_dict(config)),
        )
        worker.start()
        try:
            sources = dict(pattern.source_values)
            parent.send(("run", [("submit", "f#1", sources, None)], None, False))
            kind, outcome = parent.recv()
            assert kind == "ok" and isinstance(outcome, ShardOutcome)
            assert [r.instance_id for r in outcome.records] == ["f#1"]
            # reported settled, so the shard has let go of it
            assert (outcome.stats.shard, outcome.stats.instances, outcome.stats.held) == (1, 1, 0)
            parent.send(("run", [], None, False, True))  # a run frame has 4 fields
            assert parent.recv()[:2] == ("error", "TypeError")
            parent.send(("warp",))
            reply = parent.recv()
            assert reply[:2] == ("error", "ExecutionError")
            assert "unknown worker command" in reply[2]
            parent.send(("shutdown",))
            assert parent.recv() == ("ok", None)
        finally:
            worker.join(timeout=10)
            parent.close()
            child.close()
        assert not worker.is_alive()


# -- the process executor ------------------------------------------------------


def run_trace(service_factory, pattern):
    service = service_factory()
    log = service.attach_log()
    events = []
    service.on_instance_complete(lambda event: events.append(event.instance_id))
    service.submit_stream(
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], values=pattern.source_values
    )
    return {
        "metrics": [h.metrics for h in service.handles],
        "values": [h.value_map() for h in service.handles],
        "stats": service.stats(),
        "summary": service.summary(),
        "log": [
            (type(e).__name__, e.time, e.instance_id) for e in log.events
        ],
        "completions": events,
        "now": service.now,
        "time_unit": service.time_unit(),
    }


class TestProcessExecutor:
    def test_process_matches_serial_exactly(self, pattern):
        def factory(executor):
            return lambda: ShardedDecisionService(
                pattern.schema,
                ExecutionConfig.from_code(
                    "PSE50", engine="batched", shards=3, executor=executor
                ),
            )

        serial = run_trace(factory("serial"), pattern)
        process = run_trace(factory("process"), pattern)
        assert process["metrics"] == serial["metrics"]
        assert process["values"] == serial["values"]
        assert process["stats"] == serial["stats"]
        assert process["summary"] == serial["summary"]
        assert process["log"] == serial["log"]
        assert process["completions"] == serial["completions"]
        assert process["now"] == serial["now"]
        assert process["time_unit"] == serial["time_unit"]

    def test_pre_run_handle_contract(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        handle = service.submit(pattern.source_values)
        assert not handle.done
        with pytest.raises(ValueError, match="has no metrics yet"):
            handle.metrics
        source = pattern.schema.source_names[0]
        assert handle.value(source) == pattern.source_values[source]  # stable from submission
        some_attr = next(a.name for a in pattern.schema if a.name != source)
        with pytest.raises(ValueError, match="is not stable"):  # nothing materialized yet
            handle.value(some_attr)
        with pytest.raises(KeyError):  # typos raise like the live facade
            handle.value("no-such-attribute")
        service.run()
        assert handle.done
        service.close()

    def test_incremental_rounds_regression(self, pattern):
        """Submit-after-run works: the old one-shot restriction is gone.

        PR 10 regression pin — the process executor used to reject any
        submission after its single round with an "exactly one round"
        ExecutionError; persistent workers removed that restriction.
        """
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        first = service.submit(pattern.source_values)
        service.run()
        assert first.done
        second = service.submit(pattern.source_values)  # no ExecutionError
        assert not second.done
        closed = service.run_closed(2, values=pattern.source_values)
        assert second.done  # run_closed drained the whole fleet
        assert all(h.done for h in closed)
        assert service.summary().count == 4
        service.run()  # idempotent extra run is still fine
        service.close()

    def test_incremental_rounds_match_serial(self, pattern):
        """Multi-round submit → run → submit traces are executor-identical."""

        def drive(executor):
            service = ShardedDecisionService(
                pattern.schema,
                ExecutionConfig.from_code(
                    "PSE50", engine="batched", shards=2, executor=executor
                ),
            )
            log = service.attach_log()
            service.submit_stream([0.0, 1.0, 2.0], values=pattern.source_values)
            round_one = (service.now, service.summary())
            service.submit_stream(
                [service.now, service.now + 1.0], values=pattern.source_values
            )
            service.submit(pattern.source_values)  # at=None: shard clock
            service.run()
            trace = {
                "round_one": round_one,
                "metrics": [h.metrics for h in service.handles],
                "values": [h.value_map() for h in service.handles],
                "stats": service.stats(),
                "summary": service.summary(),
                "log": [(type(e).__name__, e.time, e.instance_id) for e in log.events],
                "now": service.now,
            }
            service.close()
            return trace

        serial = drive("serial")
        process = drive("process")
        assert process == serial

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_run_until_supported(self, pattern, engine):
        """run(until=...) pauses the fleet mid-simulation, then resumes."""

        def drive(executor):
            service = ShardedDecisionService(
                pattern.schema,
                ExecutionConfig.from_code(
                    "PSE50", engine=engine, shards=2, executor=executor
                ),
            )
            service.submit_stream(
                [0.0, 2.0, 4.0, 6.0], values=pattern.source_values, run=False
            )
            service.run(until=1.0)
            partial = (service.now, service.summary().count)
            service.run()
            trace = (partial, service.now, service.summary())
            service.close()
            return trace

        serial = drive("serial")
        process = drive("process")
        assert process == serial
        (partial_now, partial_count), final_now, final_summary = serial
        assert partial_now <= 1.0
        assert final_summary.count == 4
        assert final_now > partial_now

    def test_past_time_submission_rejected_up_front(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        with pytest.raises(ExecutionError, match="past time"):
            service.submit(pattern.source_values, at=-1.0)

    def test_late_observer_attach_delivers_from_next_round(self, pattern):
        """Observers may attach at any point; delivery starts next round."""
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        service.submit(pattern.source_values)
        service.run()
        log = service.attach_log()  # attached after a round has run
        completions = []
        service.on_instance_complete(lambda event: completions.append(event.instance_id))
        assert len(log) == 0  # the first round's events are gone by contract
        late = service.submit(pattern.source_values)
        service.run()
        assert late.done
        assert len(log) > 0  # second round's events were delivered
        assert completions == [late.instance_id]
        assert all(e.instance_id != service.handles[0].instance_id for e in log.events)
        service.close()

    def test_non_declarative_schema_raises_at_submit(self):
        # Workers spawn lazily at the first submission, so the serialize
        # failure surfaces there — before any process is forked.
        schema, source_values = diamond_schema()
        service = ShardedDecisionService(
            schema, ExecutionConfig(shards=2, executor="process")
        )
        with pytest.raises(ExecutionError, match="core.serialize"):
            service.submit(source_values)
        assert service.handles == ()  # the rejected submission left no trace

    def test_non_plain_backend_options_raise_helpfully(self, pattern):
        from repro.simdb.profiler import DbFunction

        service = ShardedDecisionService(
            pattern.schema,
            ExecutionConfig(
                shards=2,
                executor="process",
                backend="profiled",
                backend_options={"db_function": DbFunction(((1.0, 10.0),))},
            ),
        )
        with pytest.raises(ExecutionError, match="db_function"):
            service.submit(pattern.source_values)

    def test_wait_drives_the_whole_round(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        handles = [service.submit(pattern.source_values) for _ in range(4)]
        metrics = handles[0].wait()
        assert metrics.done
        assert all(h.done for h in handles)  # one round drains everything

    def test_process_run_closed(self, pattern):
        service = ShardedDecisionService(
            pattern.schema,
            ExecutionConfig.from_code("PCE0", shards=2, executor="process"),
        )
        handles = service.run_closed(6, concurrency=2, values=pattern.source_values)
        assert len(handles) == 6
        assert all(h.done for h in handles)
        assert service.summary().count == 6
        service.close()

    def test_past_time_rejected_per_shard_between_rounds(self, pattern):
        """The floor is each shard's own clock, exactly like serial."""

        def drive(executor):
            service = ShardedDecisionService(
                pattern.schema,
                ExecutionConfig.from_code("PSE50", shards=2, executor=executor),
            )
            service.submit_stream(
                [0.0, 1.0, 2.0, 3.0], values=pattern.source_values
            )
            floors = tuple(stat.end_time for stat in service.stats())
            outcome = {}
            for shard, floor in enumerate(floors):
                # An id pinned to this shard, submitted just before its
                # own clock, must be rejected with the engine's message.
                instance_id = _id_on_shard(shard, service.shards, f"late-{executor}")
                with pytest.raises(ExecutionError, match="past time"):
                    service.submit(
                        pattern.source_values, at=floor - 0.5, instance_id=instance_id
                    )
                outcome[shard] = floor
            count = service.summary().count
            service.close()
            return outcome, count

        serial = drive("serial")
        process = drive("process")
        assert process == serial

    def test_worker_crash_surfaces_named_error(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        service.submit(pattern.source_values)
        service.run()
        _kill_worker(service, 0)
        assert service.worker_health()["alive"] is False
        service.submit(pattern.source_values)
        with pytest.raises(ExecutionError, match=r"shard 0 worker .* died"):
            service.run()
        service.close()

    def test_close_is_idempotent_and_final(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        handle = service.submit(pattern.source_values)
        service.run()
        pids = [w["pid"] for w in service.worker_health()["workers"]]
        assert len(pids) == 2
        service.close()
        service.close()  # idempotent
        # Cached results stay readable after close...
        assert handle.done
        assert service.summary().count == 1
        # ...but the fleet cannot be driven further.
        with pytest.raises(ExecutionError, match="closed"):
            service.submit(pattern.source_values)
        with pytest.raises(ExecutionError, match="closed"):
            service.run()

    def test_worker_health_lifecycle(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=3, executor="process")
        )
        health = service.worker_health()
        assert health == {
            "executor": "process", "spawned": False, "alive": True, "workers": [],
        }
        service.submit(pattern.source_values)  # lazy spawn happens here
        health = service.worker_health()
        assert health["spawned"] is True and health["alive"] is True
        assert [w["shard"] for w in health["workers"]] == [0, 1, 2]
        assert all(w["alive"] for w in health["workers"])
        service.close()
        assert service.worker_health()["alive"] is False

    def test_serial_worker_health_is_trivially_alive(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="serial")
        )
        assert service.worker_health() == {
            "executor": "serial", "spawned": False, "alive": True, "workers": [],
        }
        service.close()  # no-op, but the method exists on both executors


def _kill_worker(service, shard: int) -> None:
    """SIGKILL one shard's worker process and wait until the fleet sees it dead."""
    import os
    import signal
    import time

    os.kill(service.worker_health()["workers"][shard]["pid"], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while service.worker_health()["workers"][shard]["alive"]:
        assert time.monotonic() < deadline, "the worker outlived SIGKILL"
        time.sleep(0.01)


def _id_on_shard(shard: int, shards: int, prefix: str) -> str:
    """An instance id whose CRC-32 home is *shard*."""
    for index in range(10_000):
        candidate = f"{prefix}-{index}"
        if shard_of(candidate, shards) == shard:
            return candidate
    raise AssertionError("no id found")  # pragma: no cover


# -- routing -------------------------------------------------------------------


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_routing_is_pure_and_a_refused_submit_is_free(pattern, executor):
    service = ShardedDecisionService(
        pattern.schema,
        ExecutionConfig.from_code("PSE50", shards=3, executor=executor),
    )
    service.submit(pattern.source_values, instance_id="explicit-a")
    service.submit_stream([0.0, 1.0, 2.0], values=pattern.source_values)
    service.run_closed(4, concurrency=2, values=pattern.source_values)
    refused = _id_on_shard(0, 3, "refused")
    with pytest.raises(ExecutionError, match="past time"):
        service.submit(pattern.source_values, at=-1.0, instance_id=refused)
    # The refused id was never claimed: the next submit may take it.
    service.submit(pattern.source_values, at=service.now, instance_id=refused)
    service.run()
    ids = {h.instance_id for h in service.handles}
    assert refused in ids and len(ids) == len(service.handles) == 9
    assert all(h.shard == shard_of(h.instance_id, 3) for h in service.handles)
    # A handle's shard is a function of its id, so nothing maps ids to shards.
    tables = [v for v in vars(service).values() if isinstance(v, dict)]
    assert not any(ids & set(table) for table in tables)
    service.close()


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_shard_of_is_the_crc32_home(pattern, shards):
    from zlib import crc32

    service = ShardedDecisionService(pattern.schema, ExecutionConfig(shards=shards))
    for instance_id in ("a", "flow#0", "flow#17", "ünïcode", ""):
        home = crc32(instance_id.encode("utf-8")) % shards
        assert shard_of(instance_id, shards) == home
        assert service.shard_of(instance_id) == home
    service.close()


def test_sequential_ids_split_evenly(pattern):
    service = ShardedDecisionService(
        pattern.schema, ExecutionConfig.from_code("PSE50", shards=2)
    )
    handles = service.submit_stream([0.0] * 400, values=pattern.source_values, run=False)
    per_shard = [sum(1 for h in handles if h.shard == index) for index in (0, 1)]
    # CRC-32 over sequential ids needs no load balancer to stay even.
    assert sum(per_shard) == 400 and min(per_shard) >= 180
    service.close()


def test_the_shared_tier_module_is_gone():
    import importlib.util

    import repro.runtime

    assert importlib.util.find_spec("repro.runtime.l2cache") is None
    assert not any("L2" in name for name in repro.runtime.__all__)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_sharded_cache_reports_one_tier(pattern, executor):
    service = ShardedDecisionService(
        pattern.schema,
        ExecutionConfig.from_code(
            "PSE50", shards=2, executor=executor, query_cache=True, observe=True
        ),
    )
    for _ in range(2):  # two rounds: a second tier would only show from round 2
        service.submit_stream([service.now] * 4, values=pattern.source_values)
    summary = service.summary()
    assert summary.query_cache_misses > 0
    assert not any("l2" in key for key in summary.to_dict())
    gauges = {entry["name"] for entry in service.observability()["gauges"]}
    assert "query_cache_hits" in gauges
    assert not any("l2" in name for name in gauges)
    service.close()


def test_a_resubmitted_mapping_is_snapshotted_on_every_submit():
    """One mapping changed between submits: every instance runs on what it
    held when submitted, on the process executor as on the serial one."""
    from repro import Attribute, DecisionFlowSchema

    from tests._support import q

    target = Attribute("t", task=q("t", inputs=("s",), value=0), is_target=True)
    schema = DecisionFlowSchema([Attribute("s"), target])
    answers = {}
    for executor in ("serial", "process"):
        service = ShardedDecisionService(schema, ExecutionConfig(shards=2, executor=executor))
        mapping, handles = {}, []
        for at, value in enumerate([1, True, 1.0, 0.0, -0.0]):
            mapping["s"] = value
            handles.append(service.submit(mapping, at=float(at)))
        service.run()
        answers[executor] = [str(handle.value("s")) for handle in handles]
        service.close()
    assert answers["process"] == answers["serial"] == ["1", "True", "1.0", "0.0", "-0.0"]


# -- one fleet path: errors, release, events -----------------------------------


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_missing_source_is_refused_at_submit(pattern, executor):
    service = ShardedDecisionService(pattern.schema, ExecutionConfig(shards=2, executor=executor))
    with pytest.raises(ExecutionError, match="missing source values"):
        service.submit({"nope": 2}, instance_id="bad")
    good = service.submit(pattern.source_values, instance_id="bad")  # the id is free
    service.run()
    assert good.done and service.summary().count == 1
    service.close()


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_worker_error_leaves_the_fleet_in_step(pattern, executor):
    service = ShardedDecisionService(pattern.schema, ExecutionConfig(shards=2, executor=executor))
    first = service.submit(pattern.source_values, instance_id=_id_on_shard(1, 2, "one"))
    service._ops[0].append(("warp",))  # an op shard 0 refuses
    with pytest.raises(ExecutionError, match="unknown shard op"):
        service.run()
    assert first.done  # shard 1 ran its round; its reply was read
    for shard in (0, 1):
        service.submit(pattern.source_values, instance_id=_id_on_shard(shard, 2, "two"))
    service.run()
    assert all(handle.done for handle in service.handles)
    assert service.summary().count == 3
    service.close()


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_submission_of_a_round_that_raised_is_reported_later(pattern, executor):
    service = ShardedDecisionService(pattern.schema, ExecutionConfig(shards=2, executor=executor))
    early = service.submit(pattern.source_values, instance_id=_id_on_shard(0, 2, "early"))
    service._ops[0].append(("warp",))  # refused after `early` was replayed
    with pytest.raises(ExecutionError, match="unknown shard op"):
        service.run()
    service.run()
    assert early.done and service.summary().count == 1
    assert sum(stat.completed for stat in service.stats()) == 1
    service.close()


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_release_completed_lets_go_on_every_shard(pattern, executor):
    service = ShardedDecisionService(
        pattern.schema, ExecutionConfig.from_code("PSE50", shards=2, executor=executor)
    )
    early = service.submit_stream([0.0, 1.0, 2.0, 3.0], values=pattern.source_values)
    # each shard let go of its instances in the round that reported them settled
    assert sum(stat.held for stat in service.stats()) == 0
    before = service.summary()
    assert service.release_completed() == tuple(early)
    assert service.handles == () and service.release_completed() == ()
    assert service.summary() == before  # nothing ran, nothing moved
    assert all(handle.done and handle.result() for handle in early)  # still readable
    now = service.now
    late = service.submit(pattern.source_values, at=now)
    again = service.submit(pattern.source_values, at=now, instance_id=early[0].instance_id)
    service.run()
    assert service.handles == (late, again)
    assert sum(stat.held for stat in service.stats()) == 0
    assert sum(stat.instances for stat in service.stats()) == 6
    assert service.summary().count == 6
    # the released id decides as a fresh instance on its home shard
    assert again.shard == early[0].shard and again.done
    assert again.metrics is not early[0].metrics and again.metrics.start_time == now
    assert again.value_map() == early[0].value_map() == late.value_map()
    service.close()


def _keep_every_instance(engine) -> list:
    """``release_settled`` of an engine that never lets go: it lists the
    settled instances and keeps them all, cohort links included."""
    return [i for i in engine.instances if i.done and not i.inflight]


def _paused_straggler_rounds(executor: str) -> tuple[list, list]:
    """A 2-shard fleet that never releases, through four rounds paused
    mid-straggler (``until=``) and a drain: per round, what it reads, and
    each shard's ``(held, unsettled records)``."""
    config = ExecutionConfig.from_code("PSE100", query_cache=True, shards=2, executor=executor)
    service = ShardedDecisionService(_straggler_schema(), config)
    log = service.attach_log()
    reads, held = [], []
    try:
        for step in range(5):
            if step < 4:
                at = service.now
                for gap in (0.0, 0.0, 1.0, 2.5):
                    service.submit({"s": step % 2 + 1}, at=at + gap)
                service.run(until=at + 3.0)
            else:
                service.run()
            reads.append(
                (
                    service.summary(),
                    service.mean_gmpl(),
                    [replace(stat, held=0) for stat in service.stats()],
                    list(log.events),
                )
            )
            held.append(
                [
                    (outcome.stats.held, sum(not r.settled for r in outcome.records))
                    for outcome in service.outcomes
                ]
            )
    finally:
        service.close()
    return reads, held


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_fleet_that_never_releases_holds_only_what_is_in_flight(executor, monkeypatch):
    """Each shard lets go of an instance in the round that reports it
    settled, so after every round it holds exactly its unsettled records,
    straggling ones included; and it reads as a twin whose shards keep
    every instance they served: summary, Gmpl, stats counts and the
    merged event stream, round by round."""
    with monkeypatch.context() as patch:
        # the twin's workers fork with the patch, and keep it
        for engine in (Engine, BatchedEngine):
            patch.setattr(engine, "release_settled", _keep_every_instance)
        twin_reads, _ = _paused_straggler_rounds(executor)
    reads, rounds = _paused_straggler_rounds(executor)
    assert reads == twin_reads
    assert all(held == unsettled for shards in rounds for held, unsettled in shards)
    assert any(held for shards in rounds[:-1] for held, _ in shards)  # a straggler paused
    assert rounds[-1] == [(0, 0), (0, 0)]
    summary, _, stats, _ = reads[-1]
    assert summary.count == 16 and summary.total_work == sum(s.total_units for s in stats)


@pytest.mark.parametrize("kind", sorted(FLEET_RETENTION_BUDGET))
def test_a_fleet_holds_each_finished_instance_once(kind):
    """Traced bytes per held handle of a drained 2-shard serial fleet on
    the product stack: every shard has let go of what it reported
    settled, so a handle costs its record alone (the CI "Retention
    census" step prints them by site)."""
    config = ExecutionConfig.from_code("PSE100", query_cache=True, shards=2, executor="serial")
    service, n = ShardedDecisionService(PERF.schema, config), 1000
    source = PERF.schema.source_names[0]

    def drive():
        handles = [service.submit({source: value}, at=at) for at, value in population(kind, n)]
        service.run()
        assert all(handle.done for handle in handles)
        return handles

    sites = retained_bytes(drive)
    assert [stat.held for stat in service.stats()] == [0, 0]
    assert sum(sites.values()) / n <= FLEET_RETENTION_BUDGET[kind], retention_table(sites, n)


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_a_round_summarises_only_what_finished_in_it(pattern, executor, monkeypatch):
    """Round k's summary work sees round k's newly finished instances and
    nothing a shard reported before, released or not; the shards walk
    only what they have not reported done and ship no summary."""
    import repro.runtime.sharding as sharding
    from repro.core.metrics import summarize

    seen: list[list[str]] = []

    def spy(metrics):
        metrics = list(metrics)
        seen.append(sorted(m.instance_id for m in metrics))
        return summarize(metrics)

    monkeypatch.setattr(sharding, "summarize", spy)
    service = ShardedDecisionService(
        pattern.schema, ExecutionConfig.from_code("PSE50", shards=2, executor=executor)
    )
    rounds = []
    for k in range(4):
        at = service.now
        handles = [
            service.submit(pattern.source_values, at=at + gap, instance_id=f"r{k}-{gap:.0f}")
            for gap in (0.0, 1.0, 90.0)
        ]
        # the third instance of each round finishes only in the next one
        service.run(until=at + 100.0 if k < 3 else None)
        if k == 1:
            service.release_completed()
        rounds.append(handles)
    expected = [sorted(h.instance_id for h in rounds[0][:2])]
    for k in range(1, 4):
        expected.append(sorted([rounds[k - 1][2].instance_id] + [h.instance_id for h in rounds[k][:2]]))
    expected[-1] = sorted(expected[-1] + [rounds[3][2].instance_id])
    assert seen == expected
    everything = [h.metrics for handles in rounds for h in handles]
    summary, whole = service.summary(), summarize(everything)
    assert summary.count == whole.count == 12
    assert summary == whole and summary.to_dict() == whole.to_dict()
    assert sum(stat.completed for stat in service.stats()) == 12
    assert not hasattr(service.outcomes[0], "summary")
    service.release_completed()
    assert service.handles == ()  # every instance was reported settled
    service.close()


def _two_round_log(pattern, executor):
    """Two rounds; in the second, shard 1's arrivals fall before shard 0's
    last event, so a time sort over both rounds would reorder them."""
    service = ShardedDecisionService(
        pattern.schema, ExecutionConfig.from_code("PSE50", shards=2, executor=executor)
    )
    log, seen = service.attach_log(), []
    service.on_launch(seen.append)
    service.on_query_done(seen.append)
    service.on_instance_complete(seen.append)
    for index, (shard, at) in enumerate([(0, 0.0), (0, 50.0), (1, 0.0)]):
        instance_id = _id_on_shard(shard, 2, f"a{index}")
        service.submit(pattern.source_values, at=at, instance_id=instance_id)
    service.run()
    clocks = [stat.end_time for stat in service.stats()]
    assert clocks[1] < clocks[0]
    service.submit(pattern.source_values, at=clocks[1], instance_id=_id_on_shard(1, 2, "b"))
    service.run()
    service.close()
    return log, seen


def test_a_log_is_what_handlers_see(pattern):
    traces = []
    for executor in ("serial", "process"):
        log, seen = _two_round_log(pattern, executor)
        assert log.events == seen
        times = [event.time for event in log.events]
        assert times != sorted(times)
        traces.append([(type(e).__name__, e.time, e.instance_id) for e in log.events])
    assert traces[0] == traces[1]


def test_a_service_answers_the_fleet_protocol(pattern):
    service = DecisionService(pattern.schema, "PSE50")
    handle = service.submit(pattern.source_values)
    service.run()
    assert handle.value_map() == handle.instance.value_map()
    assert handle.value_map() is not handle.value_map()
    assert service.time_unit() == "units"
    assert service.mean_gmpl() == service.database.mean_gmpl()
    assert service.worker_health() == {
        "executor": "serial", "spawned": False, "alive": True, "workers": [],
    }
    service.close()  # nothing to shut down; the service stays usable
    assert service.submit(pattern.source_values).wait().done


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_a_value_reads_only_once_stable_on_every_facade(pattern, engine):
    """⊥ is a decided value (a disabled attribute's), so no handle answers
    it for an attribute it has no value for: not before the run, not
    mid-flight, and not on a fleet whose shard has reported nothing."""
    target = pattern.schema.target_names[0]
    services = [
        create_service(
            pattern.schema,
            ExecutionConfig.from_code("PSE100", engine=engine, shards=shards, executor=executor),
        )
        for shards, executor in ((1, "serial"), (1, "process"), (2, "serial"), (2, "process"))
    ]
    try:
        handles = [service.submit(pattern.source_values, at=5.0) for service in services]
        for service in (None, *services):
            if service is not None:
                service.run(until=5.0)
            for handle in handles:
                with pytest.raises(ValueError, match=f"{target!r} is not stable"):
                    handle.value(target)
        for service in services:
            service.run()
        answers = [(handle.value(target), handle.value_map()) for handle in handles]
        assert answers == [answers[0]] * 4
        assert NULL in answers[0][1].values()  # a disabled attribute reads ⊥
        with pytest.raises(KeyError):
            handles[-1].value("no-such-attribute")
    finally:
        for service in services:
            service.close()


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_before_the_first_round_every_facade_answers_the_submitted_sources(pattern, engine):
    """A source is stable from submission: before ``run()`` a fleet handle
    answers what a plain service's handle does — the sources, snapshotted
    at submission, and nothing else — and lets go of them once its
    record is in."""
    schema = pattern.schema
    sources = {name: pattern.source_values[name] for name in schema.source_names}
    source = schema.source_names[0]
    other = next(a.name for a in schema if a.name not in sources)
    services = [DecisionService(schema, ExecutionConfig.from_code("PSE100", engine=engine))]
    services += [
        ShardedDecisionService(
            schema,
            ExecutionConfig.from_code("PSE100", engine=engine, shards=shards, executor=executor),
        )
        for shards in (1, 2)
        for executor in ("serial", "process")
    ]
    try:
        handles = []
        for service in services:
            values = dict(pattern.source_values)
            handles.append(service.submit(values))
            values[source] = "changed after submission"
        for handle in handles:
            assert handle.value_map() == sources
            assert handle.value(source) == sources[source]
            with pytest.raises(ValueError, match=f"{other!r} is not stable"):
                handle.value(other)
        for service in services:
            service.run()
        answers = [handle.value_map() for handle in handles]
        assert answers == [answers[0]] * len(services) and len(answers[0]) > len(sources)
        assert all(handle.metrics == handles[0].metrics for handle in handles[1:])
    finally:
        for service in services:
            service.close()


#: A plain service, then fleets of one and two shards on either transport.
FACADES = [None] + [(shards, executor) for shards in (1, 2) for executor in ("serial", "process")]


def _facade(schema, config, facade):
    if facade is None:
        return DecisionService(schema, config)
    shards, executor = facade
    return ShardedDecisionService(schema, config.replace(shards=shards, executor=executor))


def _database_units(service) -> int:
    if isinstance(service, DecisionService):
        return service.database.total_units
    return service.total_units


def _straggler_schema() -> DecisionFlowSchema:
    """The straggler flow with constant-valued tasks (so it serialises):
    ``t`` decides at t = 2 while the unneeded ``x`` (cost 20) runs to
    t = 20.  With the query cache, a second arrival on the same ``s``
    waits on the first's ``x``, which stays a primary and books 20 units
    on a done instance."""
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("a", task=q("a", ("s",), value=1, cost=1)),
            Attribute("x", task=q("x", ("s",), value=5, cost=20)),
            Attribute(
                "g", task=q("g", ("x",), value=2, cost=1), condition=Comparison("a", Op.GT, 3)
            ),
            Attribute("t", task=q("t", ("a", "g"), value=1, cost=1), is_target=True),
        ],
        name="straggler",
    )


@pytest.mark.parametrize("facade", FACADES, ids=str)
def test_a_straggler_books_its_units_after_a_pause_on_every_facade(facade):
    """:func:`_straggler_schema`: the second arrival's wait keeps the
    first's ``x`` running past the pause.  Every facade books its units —
    to the handle, and to the summary — and lets neither instance go
    before it is settled.  Both default ids route to shard 1 of 2, so
    every facade reads one database."""
    schema = _straggler_schema()
    service = _facade(schema, ExecutionConfig.from_code("PSE100", query_cache=True), facade)
    try:
        handles = [service.submit({"s": 1}) for _ in range(2)]
        service.run(until=3.0)
        assert all(handle.done for handle in handles)
        assert handles[0] not in service.release_completed()  # done, but its x is in flight
        assert service.handles == (handles[0],)
        work = [handle.metrics.work_units for handle in handles]
        assert sum(work) == service.summary().total_work == _database_units(service) == 2
        service.run()
        work = [handle.metrics.work_units for handle in handles]
        assert work == [22, 0]
        assert sum(work) == service.summary().total_work == _database_units(service) == 22
        assert service.release_completed() == (handles[0],) and service.handles == ()
        assert service.summary().total_work == 22 and service.summary().count == 2
    finally:
        service.close()


@pytest.mark.parametrize("facade", FACADES, ids=str)
@pytest.mark.parametrize("at", [float("nan"), float("inf"), -float("inf")], ids=str)
def test_a_non_finite_start_is_refused_before_its_id_is_claimed(facade, at):
    """``submit(at=nan | ±inf)`` raises naming the instance, and leaves the
    handles, the clock and the summary as they were: the clock cannot be
    poisoned, and a later submission in the past is still refused."""
    pattern = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))
    service = _facade(pattern.schema, ExecutionConfig.from_code("PSE100"), facade)
    try:
        service.submit(pattern.source_values, at=5.0)
        service.run()
        before = (service.handles, service.now, service.summary())
        name = pattern.schema.name
        refused = re.escape(f"instance '{name}#2': cannot start at non-finite time")
        with pytest.raises(ExecutionError, match=refused):
            service.submit(pattern.source_values, at=at)
        assert (service.handles, service.now, service.summary()) == before
        with pytest.raises(ExecutionError, match="past time 1.0"):
            service.submit(pattern.source_values, at=1.0)
        handle = service.submit(pattern.source_values)
        service.run()
        assert handle.instance_id == f"{name}#2"
        assert handle.done and service.summary().count == 2
    finally:
        service.close()


@pytest.mark.parametrize("facade", FACADES, ids=str)
def test_run_closed_checks_every_valuation_before_running_any(facade):
    """A valuation that misses a source, at index 3 of 6: ``run_closed``
    raises naming it before any id is claimed or instance submitted, and
    the service stays usable."""
    pattern = generate_pattern(PatternParams(seed=3))
    valuations = [dict(pattern.source_values) for _ in range(6)]
    del valuations[3]["src"]
    service = _facade(pattern.schema, ExecutionConfig(), facade)
    try:
        with pytest.raises(ExecutionError, match=r"valuation 3: missing source values: \['src'\]"):
            service.run_closed(6, concurrency=2, values=lambda index: valuations[index])
        assert service.handles == () and service.summary().count == 0
        assert _database_units(service) == 0
        handles = service.run_closed(6, concurrency=2, values=pattern.source_values)
        assert all(handle.done for handle in handles) and service.summary().count == 6
        assert handles[0].instance_id == f"{pattern.schema.name}#1"  # no id was burnt
        service.submit(pattern.source_values)
        service.run()
        assert service.summary().count == 7
    finally:
        service.close()


# -- the run horizon: the clock never runs backwards, and is always finite ------


def _clocks(service) -> list[float]:
    """Every clock the facade runs: its simulation's, or each shard's."""
    if isinstance(service, DecisionService):
        return [service.now]
    return [outcome.stats.end_time for outcome in service.outcomes]


@pytest.mark.parametrize("facade", FACADES, ids=str)
def test_a_run_until_behind_the_clock_moves_nothing(pattern, facade):
    """``run(until=30)``, then ``run(until=3)`` with an arrival due at 40:
    the second fires nothing, no clock moves back, and a start at 5 is in
    the past on every shard."""
    service = _facade(pattern.schema, ExecutionConfig(), facade)
    try:
        handle = service.submit(pattern.source_values, at=40.0)
        service.run(until=30.0)
        assert _clocks(service) == [30.0] * len(_clocks(service))
        service.run(until=3.0)
        assert _clocks(service) == [30.0] * len(_clocks(service))
        assert service.now == 30.0 and not handle.done
        for k in range(8):  # ids enough to reach every shard
            with pytest.raises(ExecutionError, match="past time 5.0"):
                service.submit(pattern.source_values, at=5.0, instance_id=f"late-{k}")
        service.run()
        assert handle.done and handle.metrics.start_time == 40.0
        assert service.summary().count == 1
    finally:
        service.close()


@pytest.mark.parametrize("facade", FACADES, ids=str)
def test_a_non_finite_until_is_refused_before_anything_fires(pattern, facade):
    """``run(until=nan | inf | -inf)`` raises before anything fires (a
    fleet, before the round goes out): handles, clock, summary and pool
    counters are unchanged, and the service then serves a batch exactly as
    a twin that never saw the calls."""

    def readout(service) -> tuple:
        handles = [
            (h.instance_id, h.done, sorted((n, repr(v)) for n, v in h.value_map().items()))
            for h in service.handles
        ]
        return service.now, handles, service.summary(), service.dispatch_stats()

    service = _facade(pattern.schema, ExecutionConfig(), facade)
    twin = _facade(pattern.schema, ExecutionConfig(), facade)
    try:
        for each in (service, twin):
            each.submit(pattern.source_values)
            each.submit(pattern.source_values, at=4.0)
            each.run(until=2.0)
        before = readout(service)
        for until in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match=f"cannot run until non-finite time {until}"):
                service.run(until=until)
            assert readout(service) == before
        for each in (service, twin):
            for k in range(3):
                each.submit(pattern.source_values, at=10.0 + k)
            each.run()
        assert readout(service) == readout(twin)
        assert service.summary().count == 5 and service.now > 12.0
    finally:
        service.close()
        twin.close()
