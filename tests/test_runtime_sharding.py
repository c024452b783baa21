"""Unit tests for the sharded runtime: routing, executors, worker protocol."""

from __future__ import annotations

import pytest

from repro.api import DecisionService, ExecutionConfig
from repro.api.backends import create_backend
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.core.serialize import config_to_dict, schema_to_dict
from repro.errors import ExecutionError
from repro.nulls import NULL
from repro.runtime import (
    MergedEventLog,
    ShardedDecisionService,
    create_service,
    merge_shard_events,
    shard_of,
)
from repro.runtime.sharding import _split_concurrency
from repro.runtime.worker import _PersistentShard

from tests._support import diamond_schema, scenario_pattern


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

    def test_merged_log_records_per_shard(self):
        log = MergedEventLog(2)
        first, second = _StampedEvent(2.0, "x"), _StampedEvent(1.0, "y")
        log.record(0, first)
        log.record(1, second)
        assert len(log) == 2
        assert log.per_shard(0) == (first,)
        assert [e.label for e in log.events] == ["y", "x"]

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
        state = _PersistentShard(
            shard, schema_to_dict(pattern.schema), config_to_dict(config)
        )
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
        assert outcome.shard == 0
        assert [r.instance_id for r in outcome.records] == ["w#1", "w#2"]
        assert all(r.done for r in outcome.records)
        assert outcome.summary.count == 2
        assert outcome.total_units > 0
        assert outcome.backend_name == "ideal"
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
        assert outcome.records[1].values == dict(mirror.handles[1].instance.value_map())

    def test_a_round_replays_closed_loops(self, pattern):
        sources = dict(pattern.source_values)
        outcome = self._round(
            pattern,
            ops=[("closed", ["c#1", "c#2", "c#3"], [sources] * 3, 2)],
            collect_events=False,
        )
        assert [r.instance_id for r in outcome.records] == ["c#1", "c#2", "c#3"]
        assert outcome.summary.count == 3
        assert outcome.events is None

    def test_unknown_op_rejected(self, pattern):
        with pytest.raises(ExecutionError, match="unknown shard op"):
            self._round(pattern, ops=[("warp", "w#1")])

    def test_a_second_round_reports_only_what_is_new(self, pattern):
        sources = dict(pattern.source_values)
        config = ExecutionConfig.from_code("PSE50", engine="batched")
        state = _PersistentShard(0, schema_to_dict(pattern.schema), config_to_dict(config))
        first = state.round([("submit", "w#1", sources, None)], None, True)
        second = state.round([("submit", "w#2", sources, None)], None, True)
        assert [r.instance_id for r in first.records] == ["w#1"]
        assert [r.instance_id for r in second.records] == ["w#2"]
        assert (second.instances, second.completed) == (2, 2)
        assert second.events and not set(map(id, second.events)) & set(map(id, first.events))

    def test_worker_main_speaks_run_snapshot_and_shutdown_frames(self, pattern):
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
            parent.send(("snapshot",))
            assert parent.recv() == (
                "ok",
                {"shard": 1, "instances": 1, "completed": 1, "now": outcome.end_time},
            )
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
        # Handler *population* is executor-independent; live (serial)
        # delivery is shard-major while process replay follows the merged
        # global order, so only the multiset is contractual.
        assert sorted(process["completions"]) == sorted(serial["completions"])
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
        some_attr = next(iter(pattern.schema)).name
        assert handle.value(some_attr) is NULL  # nothing materialized yet
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

    def test_run_until_supported(self, pattern):
        """run(until=...) pauses the fleet mid-simulation, then resumes."""

        def drive(executor):
            service = ShardedDecisionService(
                pattern.schema,
                ExecutionConfig.from_code(
                    "PSE50", shards=2, executor=executor
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
        executor = service._executor
        victim = executor._workers[0].process
        victim.kill()
        victim.join(timeout=10.0)
        assert not victim.is_alive()
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

    def test_snapshots_read_live_worker_state(self, pattern):
        service = ShardedDecisionService(
            pattern.schema, ExecutionConfig(shards=2, executor="process")
        )
        service.submit_stream([0.0, 1.0, 2.0], values=pattern.source_values)
        snapshots = service._executor.snapshots()
        assert [s["shard"] for s in snapshots] == [0, 1]
        assert sum(s["instances"] for s in snapshots) == 3
        assert sum(s["completed"] for s in snapshots) == 3
        stats = service.stats()
        assert [s["now"] for s in snapshots] == [st.end_time for st in stats]
        service.close()


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
