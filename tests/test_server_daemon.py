"""The decision-service daemon: admission, drain epochs, persistence.

Everything here is in-process and port-free — the daemon object is
exercised directly; the HTTP transport has its own suite
(test_server_http.py).  Where a test needs the arrival queue to actually
fill, the drain loop is stalled deterministically by shadowing
``_take_batch`` on the instance (the loop re-reads the attribute every
iteration), never by sleeping and hoping.
"""

import gc
import threading
import time

import pytest

from repro import ExecutionConfig, PatternParams, generate_pattern
from repro.api.service import InstanceHandle
from repro.core.batch_engine import BatchedInstance, _Cohort
from repro.core.metrics import MetricsSummary
from repro.core.snapshot import evaluate_schema
from repro.nulls import ExceptionValue
from repro.server import STATUSES, RunStore, ServerDaemon, decode_values

WAIT = 30.0  # generous wall-clock bound; every wait in here is event-driven


@pytest.fixture(scope="module")
def pattern():
    return generate_pattern(PatternParams(nb_nodes=16, nb_rows=3, pct_enabled=50, seed=3))


@pytest.fixture
def make_daemon(pattern):
    daemons = []

    def build(config=None, **kwargs):
        daemon = ServerDaemon(
            pattern.schema,
            config if config is not None else "PSE80",
            default_values=pattern.source_values,
            **kwargs,
        )
        daemons.append(daemon)
        return daemon

    yield build
    for daemon in daemons:
        daemon.shutdown()


def stall_drain(daemon):
    """Stop the drain loop from taking batches; queue depth becomes real."""
    daemon._take_batch = lambda: []
    time.sleep(0.05)  # let any in-flight loop iteration finish


def resume_drain(daemon):
    del daemon.__dict__["_take_batch"]
    daemon._wake.set()


class TestSubmission:
    def test_default_values_run_to_done(self, make_daemon, pattern):
        daemon = make_daemon()
        result = daemon.submit()
        assert result.ok and result.rejected == 0
        (instance_id,) = result.accepted
        assert instance_id.startswith("srv-")
        assert daemon.wait_idle(WAIT)
        payload = daemon.get(instance_id)
        assert payload["status"] == "done"
        assert payload["origin"] == "live"
        assert payload["schema"] == pattern.schema.name
        assert payload["latency"] >= 0.0
        assert payload["metrics"]["work_units"] > 0
        assert payload["values"]  # decision values present
        assert payload["config_hash"] == daemon.config_digest

    def test_explicit_values_used(self, make_daemon, pattern):
        daemon = make_daemon()
        result = daemon.submit(dict(pattern.source_values))
        assert daemon.wait_idle(WAIT)
        payload = daemon.get(result.accepted[0])
        assert payload["status"] == "done"

    def test_batch_gets_distinct_sequential_ids(self, make_daemon):
        daemon = make_daemon()
        result = daemon.submit_many([None] * 5)
        assert len(set(result.accepted)) == 5
        assert daemon.wait_idle(WAIT)
        assert all(daemon.get(i)["status"] == "done" for i in result.accepted)

    def test_empty_batch_is_a_noop(self, make_daemon):
        daemon = make_daemon()
        result = daemon.submit_many([])
        assert result.ok and result.accepted == ()

    def test_unknown_id_is_none(self, make_daemon):
        assert make_daemon().get("srv-404") is None

    def test_bad_valuation_marks_failed_not_fatal(self, make_daemon):
        daemon = make_daemon()
        bad = daemon.submit({"no_such_attribute": 1})
        good = daemon.submit()
        assert daemon.wait_idle(WAIT)
        failed = daemon.get(bad.accepted[0])
        assert failed["status"] == "failed"
        assert "ExecutionError" in failed["error"]
        # The drain loop survived and the next instance still completed.
        assert daemon.get(good.accepted[0])["status"] == "done"
        assert daemon.server_stats()["failed"] == 1

    def test_statuses_are_the_documented_set(self):
        assert STATUSES == ("queued", "running", "done", "stalled", "failed")


class TestAdmissionControl:
    def test_queue_full_rejects_whole_batch_atomically(self, make_daemon):
        daemon = make_daemon(high_water=4)
        stall_drain(daemon)
        try:
            assert daemon.submit_many([None] * 3).ok
            result = daemon.submit_many([None] * 2)  # 3 + 2 > 4
            assert not result.ok
            assert result.accepted == ()
            assert result.rejected == 2
            assert result.reason == "queue full"
            assert 0.05 <= result.retry_after <= 60.0
            assert result.queue_depth == 3  # nothing from the batch leaked in
            # A batch that still fits is admitted after the rejection.
            assert daemon.submit(None).ok
        finally:
            resume_drain(daemon)
        assert daemon.wait_idle(WAIT)
        stats = daemon.server_stats()
        assert stats["accepted"] == 4
        assert stats["rejected"] == 2
        assert stats["completed"] == 4

    def test_peak_queue_depth_never_exceeds_high_water(self, make_daemon):
        daemon = make_daemon(high_water=8)
        stall_drain(daemon)
        try:
            for _ in range(30):
                daemon.submit(None)
        finally:
            resume_drain(daemon)
        assert daemon.wait_idle(WAIT)
        stats = daemon.server_stats()
        assert stats["peak_queue_depth"] == 8
        assert stats["accepted"] == 8
        assert stats["rejected"] == 22

    def test_shutdown_closes_admission(self, make_daemon):
        daemon = make_daemon()
        assert daemon.shutdown()
        result = daemon.submit(None)
        assert not result.ok
        assert result.reason == "shutting down"
        assert daemon.stopping

    def test_retry_after_tracks_drain_rate(self, make_daemon):
        daemon = make_daemon(high_water=2)
        daemon.submit_many([None] * 2)
        assert daemon.wait_idle(WAIT)
        rate = daemon.server_stats()["drain_rate"]
        assert rate is not None and rate > 0
        stall_drain(daemon)
        try:
            daemon.submit_many([None] * 2)
            rejected = daemon.submit(None)
            expected = min(60.0, max(0.05, 3 / rate))
            assert rejected.retry_after == pytest.approx(expected)
        finally:
            resume_drain(daemon)


class TestValidation:
    def test_high_water_bounds_checked(self, make_daemon):
        with pytest.raises(ValueError, match="high_water"):
            make_daemon(high_water=0)

    def test_ticks_per_second_checked(self, make_daemon):
        with pytest.raises(ValueError, match="ticks_per_second"):
            make_daemon(ticks_per_second=0.0)


class TestPersistence:
    def test_restart_serves_old_ids_from_store(self, make_daemon, tmp_path):
        db = tmp_path / "runs.sqlite"
        daemon = make_daemon(db=str(db))
        ids = daemon.submit_many([None] * 6).accepted
        assert daemon.wait_idle(WAIT)
        assert daemon.shutdown()

        restarted = make_daemon(db=str(db))
        for instance_id in ids:
            payload = restarted.get(instance_id)
            assert payload is not None, instance_id
            assert payload["status"] == "done"
            assert payload["origin"] == "store"
            assert payload["latency"] >= 0.0
            assert payload["config_hash"] == daemon.config_digest
        # The id sequence resumes past the persisted records: no collisions.
        fresh = restarted.submit(None).accepted[0]
        assert fresh not in ids
        largest = max(int(i.split("-")[1]) for i in ids)
        assert int(fresh.split("-")[1]) == largest + 1
        # ...and the restarted daemon finishes what it accepts.
        assert restarted.wait_idle(WAIT)
        assert restarted.get(fresh)["status"] == "done"
        assert restarted.shutdown()

    def test_restart_with_like_wildcard_prefix_keeps_old_records(
        self, make_daemon, pattern, tmp_path
    ):
        """``_`` in the id prefix is a literal: the restarted daemon's ids
        miss every persisted one, so no old row is replaced."""
        db = str(tmp_path / "runs.sqlite")
        daemon = make_daemon(db=db, id_prefix="job_a-")
        ids = daemon.submit_many([None] * 3).accepted
        assert daemon.wait_idle(WAIT)
        assert daemon.shutdown()

        restarted = make_daemon(db=db, id_prefix="job_a-")
        (src,) = pattern.source_values
        other = {src: pattern.source_values[src] + 1}
        fresh = restarted.submit_many([other] * 3).accepted
        assert restarted.wait_idle(WAIT)
        assert not set(fresh) & set(ids)
        for instance_id in ids:
            payload = restarted.get(instance_id)
            assert payload["status"] == "done"
            assert decode_values(payload["source"]) == pattern.source_values
        for instance_id in fresh:
            assert decode_values(restarted.get(instance_id)["source"]) == other

    def test_graceful_shutdown_drains_inflight_and_flushes(
        self, make_daemon, tmp_path
    ):
        """shutdown() finishes every accepted instance and persists it."""
        db = tmp_path / "runs.sqlite"
        daemon = make_daemon(db=str(db))
        ids = daemon.submit_many([None] * 40).accepted
        # No wait_idle: shutdown itself must drain the in-flight work.
        assert daemon.shutdown()
        stats = daemon.server_stats()
        assert stats["completed"] == 40
        assert stats["persisted"] == 40
        with RunStore(db) as store:
            assert store.count() == 40
            assert sorted(store.instance_ids()) == sorted(ids)
            assert all(store.get(i)["status"] == "done" for i in ids)

    def test_failed_queries_are_persisted_and_the_drain_loop_lives(
        self, make_daemon, tmp_path
    ):
        """A failed query leaves an exception value among the decision
        values; its row keeps it as ``{"$exc": reason}``, and the drain
        loop goes on to finish every accepted instance."""
        daemon = make_daemon(
            "PSE100", db=str(tmp_path / "runs.sqlite"), failure_prob=0.9, seed=3
        )
        live, store_record = {}, daemon._store_record

        def capture(record):
            live[record.instance_id] = record.values
            return store_record(record)

        daemon._store_record = capture
        ids = daemon.submit_many([None] * 6).accepted
        assert daemon.wait_idle(WAIT)
        ok, health = daemon.health()
        assert ok and health["status"] == "ok", health
        assert any(
            isinstance(value, ExceptionValue)
            for values in live.values()
            for value in values.values()
        )
        for instance_id in ids:
            payload = daemon.get(instance_id)
            assert (payload["status"], payload["origin"]) == ("done", "store")
            assert decode_values(payload["values"]) == live[instance_id]

    def test_shutdown_is_idempotent(self, make_daemon):
        daemon = make_daemon()
        assert daemon.shutdown()
        assert daemon.shutdown()

    def test_no_store_means_no_persistence_counter(self, make_daemon):
        daemon = make_daemon()
        daemon.submit_many([None] * 3)
        assert daemon.wait_idle(WAIT)
        assert daemon.server_stats()["persisted"] == 0


class TestRowsBuiltOffTheLock:
    """An epoch's rows are built and encoded outside the state lock while
    other threads read records."""

    def test_readers_during_epochs_never_miss_an_id_or_see_a_torn_record(
        self, make_daemon, pattern, tmp_path
    ):
        import sys

        daemon = make_daemon(db=str(tmp_path / "runs.sqlite"))
        (src,) = pattern.source_values
        accepted: list[str] = []
        seen: dict[str, list] = {}
        errors: list[object] = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                for instance_id in list(accepted):
                    payload = daemon.get(instance_id)
                    if payload is None:
                        errors.append(("lost", instance_id))
                    elif payload["status"] == "done":
                        if payload["values"] is None or payload["metrics"] is None:
                            errors.append(("torn", payload))
                        else:
                            seen.setdefault(instance_id, []).append(
                                decode_values(payload["values"])
                            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        try:
            for reader in readers:
                reader.start()
            for batch in range(12):
                values = [{src: pattern.source_values[src] + batch * 8 + i} for i in range(8)]
                result = daemon.submit_many(values)
                assert result.ok
                accepted.extend(result.accepted)
            assert daemon.wait_idle(WAIT)
        finally:
            stop.set()
            for reader in readers:
                reader.join(WAIT)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors, errors[:3]
        assert daemon.server_stats()["persisted"] == len(accepted) == 96
        for instance_id, observed in seen.items():
            final = decode_values(daemon.get(instance_id)["values"])
            assert all(values == final for values in observed), instance_id


class TestRetention:
    """The daemon forgets what it has persisted; the store remembers."""

    EPOCHS = 300

    def serve_distinct_epochs(self, daemon):
        """EPOCHS single-instance epochs, every valuation new."""
        accepted = {}
        for index in range(self.EPOCHS):
            value = index + 0.5
            (instance_id,) = daemon.submit({"src": value}).accepted
            assert daemon.wait_idle(WAIT)
            accepted[instance_id] = value
        return accepted

    def assert_oracle_equal(self, pattern, payload, value):
        expected = evaluate_schema(pattern.schema, {"src": value}).values
        values = decode_values(payload["values"])
        assert set(pattern.schema.target_names) <= set(values)
        assert all(expected[name] == got for name, got in values.items())

    def test_finished_instances_leave_memory_and_answer_from_the_store(
        self, make_daemon, pattern, tmp_path
    ):
        fast = ExecutionConfig.from_code(
            "PSE100", engine="batched", dispatch="pooled", query_cache=True, cohorts=True
        )
        kinds = (BatchedInstance, _Cohort, InstanceHandle)

        def alive():
            gc.collect()
            objects = gc.get_objects()
            return [sum(1 for obj in objects if type(obj) is kind) for kind in kinds]

        before = alive()  # whatever earlier tests left behind
        daemon = make_daemon(fast, db=str(tmp_path / "runs.sqlite"))
        accepted = self.serve_distinct_epochs(daemon)
        for kind, was, now in zip(kinds, before, alive()):
            assert now - was <= 4, (kind.__name__, now - was)
        assert daemon._records == {}
        assert daemon.service.handles == ()
        for instance_id, value in accepted.items():
            payload = daemon.get(instance_id)
            assert payload["status"] == "done"
            assert payload["origin"] == "store"
            self.assert_oracle_equal(pattern, payload, value)
        stats = daemon.server_stats()
        assert stats["accepted"] == stats["completed"] == self.EPOCHS
        assert stats["persisted"] == self.EPOCHS
        assert daemon.summary().count == self.EPOCHS
        assert daemon.metrics_payload()["summary"]["count"] == self.EPOCHS

    def test_without_a_store_records_stay_live(self, make_daemon, pattern):
        daemon = make_daemon("PSE100")
        accepted = self.serve_distinct_epochs(daemon)
        assert len(daemon._records) == self.EPOCHS
        # The records carry the values, so the service lets go regardless.
        assert daemon.service.handles == ()
        for instance_id, value in accepted.items():
            payload = daemon.get(instance_id)
            assert payload["status"] == "done"
            assert payload["origin"] == "live"
            self.assert_oracle_equal(pattern, payload, value)
        assert daemon.summary().count == self.EPOCHS

    def test_unpersisted_terminal_records_stay_live(self, make_daemon, tmp_path):
        """A failed submission has no store row; memory is its only home."""
        daemon = make_daemon(db=str(tmp_path / "runs.sqlite"))
        (bad,) = daemon.submit({"no_such_attribute": 1}).accepted
        (good,) = daemon.submit().accepted
        assert daemon.wait_idle(WAIT)
        assert daemon.get(bad)["status"] == "failed"
        assert daemon.get(bad)["origin"] == "live"
        assert daemon.get(good)["origin"] == "store"
        assert set(daemon._records) == {bad}


class TestShardedService:
    def test_sharded_daemon_serves_and_aggregates(self, make_daemon):
        config = ExecutionConfig.from_code("PSE80", shards=2, query_cache=True)
        daemon = make_daemon(config)
        ids = daemon.submit_many([None] * 8).accepted
        assert daemon.wait_idle(WAIT)
        assert all(daemon.get(i)["status"] == "done" for i in ids)
        summary = daemon.summary()
        assert summary.count == 8
        # Identical repeated valuations make the per-shard caches earn hits.
        assert summary.query_cache_misses > 0
        payload = daemon.metrics_payload()
        assert payload["config"]["shards"] == 2
        assert payload["config"]["query_cache"] is True

    def test_process_executor_daemon_drains_across_epochs(self, make_daemon):
        """The persistent-worker fleet serves the open system: multiple
        drain epochs stream rounds to the same long-lived workers."""
        config = ExecutionConfig.from_code(
            "PSE80", shards=2, executor="process", query_cache=True
        )
        daemon = make_daemon(config)
        first = daemon.submit_many([None] * 4).accepted
        assert daemon.wait_idle(WAIT)
        assert all(daemon.get(i)["status"] == "done" for i in first)
        pids_before = [
            w["pid"] for w in daemon.health()[1]["workers"]["workers"]
        ]
        second = daemon.submit_many([None] * 4).accepted
        assert daemon.wait_idle(WAIT)
        assert all(daemon.get(i)["status"] == "done" for i in second)
        health_ok, payload = daemon.health()
        assert health_ok
        workers = payload["workers"]
        assert workers["executor"] == "process"
        assert workers["alive"] is True
        # Same pids across epochs: the fleet persisted, nothing respawned.
        assert [w["pid"] for w in workers["workers"]] == pids_before
        summary = daemon.summary()
        assert summary.count == 8
        assert daemon.shutdown()
        assert daemon.service.worker_health()["alive"] is False

    def test_dead_worker_flips_daemon_health(self, make_daemon):
        config = ExecutionConfig.from_code("PSE80", shards=2, executor="process")
        daemon = make_daemon(config)
        ids = daemon.submit_many([None] * 2).accepted
        assert daemon.wait_idle(WAIT)
        assert all(daemon.get(i)["status"] == "done" for i in ids)
        victim = daemon.service._executor._workers[0].process
        victim.kill()
        victim.join(timeout=10.0)
        ok, payload = daemon.health()
        assert ok is False
        assert payload["status"] == "workers-dead"
        assert payload["workers"]["alive"] is False


class TestMetricsPayload:
    def test_summary_round_trips_through_the_payload(self, make_daemon):
        daemon = make_daemon()
        daemon.submit_many([None] * 4)
        assert daemon.wait_idle(WAIT)
        payload = daemon.metrics_payload()
        assert set(payload) == {
            "summary",
            "server",
            "dispatch",
            "stages",
            "observability",
            "config",
        }
        assert MetricsSummary.from_dict(payload["summary"]) == daemon.summary()
        assert payload["server"]["completed"] == 4
        assert payload["config"]["hash"] == daemon.config_digest


class TestEvents:
    def test_replay_delivers_completion_history(self, make_daemon):
        daemon = make_daemon()
        ids = daemon.submit_many([None] * 3).accepted
        assert daemon.wait_idle(WAIT)
        subscriber = daemon.subscribe_events(replay=True)
        seen = []
        while not subscriber.empty():
            seen.append(subscriber.get_nowait())
        completions = [e for e in seen if e["type"] == "instance_complete"]
        assert {e["instance_id"] for e in completions} == set(ids)
        assert all(e["metrics"]["work_units"] > 0 for e in completions)
        daemon.unsubscribe_events(subscriber)

    def test_live_stream_carries_launch_and_query_events(self, make_daemon):
        daemon = make_daemon()
        subscriber = daemon.subscribe_events()  # arms the chatty taps
        daemon.submit(None)
        assert daemon.wait_idle(WAIT)
        types = set()
        while not subscriber.empty():
            types.add(subscriber.get_nowait()["type"])
        assert {"launch", "query_done", "instance_complete"} <= types
        daemon.unsubscribe_events(subscriber)

    def test_completion_payload_is_a_snapshot_at_the_callback(self, make_daemon):
        """The payload's metrics are what the instance had when it
        completed — not the live object, which later charges (late
        cancellations, speculative waste) still move — and replayed and
        live subscribers see equal payloads."""
        daemon = make_daemon()
        at_callback: dict[str, dict] = {}
        live_metrics = []

        def observe(event):
            at_callback[event.instance_id] = event.metrics.to_dict()
            live_metrics.append(event.metrics)

        daemon.service.on_instance_complete(observe)
        live = daemon.subscribe_events()
        ids = daemon.submit_many([None] * 3).accepted
        assert daemon.wait_idle(WAIT)
        for metrics in live_metrics:  # a charge after completion
            metrics.queries_cancelled += 1
        replayed = daemon.subscribe_events(replay=True)

        def completions(subscriber):
            seen = {}
            while not subscriber.empty():
                event = subscriber.get_nowait()
                if event["type"] == "instance_complete":
                    seen[event["instance_id"]] = event
            return seen

        from_live, from_replay = completions(live), completions(replayed)
        assert set(from_live) == set(ids) == set(at_callback)
        assert from_live == from_replay
        for instance_id in ids:
            assert from_live[instance_id]["metrics"] == at_callback[instance_id]
        daemon.unsubscribe_events(live)
        daemon.unsubscribe_events(replayed)

    def test_shutdown_sends_none_sentinel(self, make_daemon):
        daemon = make_daemon()
        subscriber = daemon.subscribe_events()
        daemon.shutdown()
        items = []
        while not subscriber.empty():
            items.append(subscriber.get_nowait())
        assert items[-1] is None


class TestHealth:
    def test_healthy_daemon_reports_ok(self, make_daemon):
        daemon = make_daemon()
        daemon.submit_many([None] * 2)
        assert daemon.wait_idle(WAIT)
        ok, payload = daemon.health()
        assert ok is True
        assert payload["status"] == "ok"
        assert payload["drain_alive"] is True
        assert payload["heartbeat_age"] < daemon._stall_after
        assert payload["queue_depth"] == 0

    def test_wedged_drain_loop_flips_health(self, make_daemon):
        """A drain loop stuck mid-iteration stops heartbeating; queued
        work then sits unconsumed and health() must say so."""
        daemon = make_daemon(stall_after=0.05)
        gate = threading.Event()
        daemon._take_batch = lambda: ([], gate.wait(WAIT))[0]
        daemon._wake.set()  # drive the loop into the blocked call
        time.sleep(0.2)  # heartbeat is now stale beyond stall_after
        ok, payload = daemon.health()
        assert ok is False
        assert payload["status"] == "wedged"
        assert payload["heartbeat_age"] > 0.05
        assert payload["drain_alive"] is True
        gate.set()  # unwedge; the fixture's shutdown must still drain
        del daemon.__dict__["_take_batch"]

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_drain_loop_flips_health(self, make_daemon):
        daemon = make_daemon()

        def die():
            raise SystemExit  # exits the thread quietly, unlike RuntimeError

        daemon._take_batch = die
        daemon._wake.set()
        daemon._thread.join(WAIT)
        ok, payload = daemon.health()
        assert ok is False
        assert payload["status"] == "dead"
        assert payload["drain_alive"] is False

    def test_stall_after_is_validated(self, make_daemon):
        with pytest.raises(ValueError):
            make_daemon(stall_after=0.0)


class TestTimestamps:
    def test_started_wall_between_submit_and_complete(self, make_daemon):
        daemon = make_daemon()
        (instance_id,) = daemon.submit().accepted
        assert daemon.wait_idle(WAIT)
        payload = daemon.get(instance_id)
        assert payload["submitted_at"] <= payload["started_at"]
        assert payload["started_at"] <= payload["completed_at"]

    def test_started_wall_persists_and_resolves_from_store(
        self, make_daemon, tmp_path
    ):
        db = str(tmp_path / "runs.sqlite")
        first = make_daemon(db=db)
        (instance_id,) = first.submit().accepted
        assert first.wait_idle(WAIT)
        first.shutdown()
        second = make_daemon(db=db)
        payload = second.get(instance_id)
        assert payload["origin"] == "store"
        assert payload["started_at"] is not None
        assert payload["submitted_at"] <= payload["started_at"] <= payload["completed_at"]


class TestStageStats:
    def test_all_four_stages_populate(self, make_daemon):
        daemon = make_daemon()
        daemon.submit_many([None] * 3)
        assert daemon.wait_idle(WAIT)
        stages = daemon.stage_stats()
        assert set(stages) == {"admit", "queue_wait", "epoch", "decision"}
        assert stages["decision"]["count"] == 3
        assert stages["queue_wait"]["count"] == 3
        assert stages["admit"]["count"] >= 1
        assert stages["epoch"]["count"] >= 1
        for digest in stages.values():
            assert 0.0 <= digest["p50"] <= digest["p99"]
            assert digest["mean"] >= 0.0

    def test_restart_seeds_decision_histogram_from_store(
        self, make_daemon, tmp_path
    ):
        db = str(tmp_path / "runs.sqlite")
        first = make_daemon(db=db)
        first.submit_many([None] * 3)
        assert first.wait_idle(WAIT)
        first.shutdown()
        second = make_daemon(db=db)
        assert second.stage_stats()["decision"]["count"] == 3


class TestObservabilityPayloads:
    def test_disarmed_daemon_serves_stub_and_empty_trace(self, make_daemon):
        daemon = make_daemon()
        daemon.submit(None)
        assert daemon.wait_idle(WAIT)
        assert daemon.observability()["enabled"] is False
        trace = daemon.trace_payload()
        assert trace["metadata"]["armed"] is False
        assert all(e["ph"] == "M" for e in trace["traceEvents"])

    def test_armed_daemon_snapshot_and_trace(self, make_daemon):
        config = ExecutionConfig.from_code("PSE80", observe=True)
        daemon = make_daemon(config)
        daemon.submit_many([None] * 2)
        assert daemon.wait_idle(WAIT)
        snapshot = daemon.observability()
        assert snapshot["enabled"] is True
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters["engine_scheduling_rounds"] > 0
        trace = daemon.trace_payload()
        assert trace["metadata"]["armed"] is True
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] != "M"}
        assert "daemon.admit" in names
        assert "daemon.epoch" in names
        assert "engine.round" in names

    def test_prometheus_payload_text(self, make_daemon):
        config = ExecutionConfig.from_code("PSE80", observe=True)
        daemon = make_daemon(config)
        daemon.submit_many([None] * 2)
        assert daemon.wait_idle(WAIT)
        text = daemon.prometheus_payload()
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_server_completed 2" in text
        assert "repro_summary_count 2" in text
        assert "# TYPE repro_dispatch_pooled_batches counter" in text
        assert "repro_engine_scheduling_rounds" in text  # armed extras
        decision_count = [
            line for line in text.splitlines()
            if line.startswith("repro_stage_seconds_count")
            and 'stage="decision"' in line
        ]
        assert decision_count and decision_count[0].endswith(" 2")

    def test_dispatch_stats_surface_pooled_counters(self, make_daemon):
        config = ExecutionConfig.from_code(
            "PSE80", engine="batched", dispatch="pooled", query_cache=True
        )
        daemon = make_daemon(config)
        daemon.submit_many([None] * 4)
        assert daemon.wait_idle(WAIT)
        stats = daemon.dispatch_stats()
        assert stats["pooled_batches"] > 0
        assert stats["pooled_events"] >= stats["pooled_batches"]
        assert daemon.metrics_payload()["dispatch"] == stats


class TestBoundedFanout:
    def test_full_subscriber_drops_and_counts(self, make_daemon):
        daemon = make_daemon()
        subscriber = daemon.subscribe_events(max_queue=2)
        for index in range(5):
            daemon._publish({"type": "synthetic", "n": index})
        assert subscriber.qsize() == 2
        assert daemon.server_stats()["events_dropped"] == 3
        daemon.unsubscribe_events(subscriber)

    def test_slow_subscriber_does_not_stall_the_daemon(self, make_daemon):
        """A subscriber that never drains must not wedge the drain loop
        or grow without bound while real work streams past it."""
        daemon = make_daemon()
        subscriber = daemon.subscribe_events(max_queue=4)
        daemon.submit_many([None] * 6)
        assert daemon.wait_idle(WAIT)
        assert daemon.server_stats()["completed"] == 6
        assert subscriber.qsize() <= 4
        ok, payload = daemon.health()
        assert ok, payload
        daemon.unsubscribe_events(subscriber)

    def test_replay_respects_the_bound(self, make_daemon):
        daemon = make_daemon()
        daemon.submit_many([None] * 5)
        assert daemon.wait_idle(WAIT)
        subscriber = daemon.subscribe_events(replay=True, max_queue=2)
        assert subscriber.qsize() == 2
        daemon.unsubscribe_events(subscriber)
