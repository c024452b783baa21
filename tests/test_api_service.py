"""The repro.api facade: DecisionService, InstanceHandle, observer events."""

import pytest

from repro import (
    Attribute,
    Comparison,
    DecisionFlowSchema,
    Op,
    PatternParams,
    QueryTask,
    Strategy,
    SynthesisTask,
    generate_pattern,
    run_once,
)
from repro.api import (
    DecisionService,
    EventLog,
    ExecutionConfig,
    InstanceCompleteEvent,
    InstanceHandle,
    LaunchEvent,
    QueryDoneEvent,
)
from repro.errors import ExecutionError
from tests._support import chain_schema, diamond_schema


PATTERN = generate_pattern(PatternParams(nb_nodes=16, nb_rows=3, pct_enabled=50, seed=0))


class TestServiceBasics:
    def test_submit_and_result(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema, ExecutionConfig.from_code("PCE0"))
        handle = service.submit(source_values)
        assert not handle.done
        result = handle.result()
        assert handle.done
        assert result == {"t": 1}  # b disabled at s=5, so t = a = 1
        assert handle.metrics.work_units == 2

    def test_accepts_code_string_and_strategy(self):
        schema, source_values = diamond_schema()
        for config in ("PCE0", Strategy.parse("PCE0"), ExecutionConfig.from_code("PCE0")):
            service = DecisionService(schema, config)
            assert service.config.code == "PCE0"
            assert service.submit(source_values).wait().done

    def test_default_config_is_pce0_on_ideal(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        assert service.config.code == "PCE0"
        assert service.backend.name == "ideal"
        service.submit(source_values).wait()

    def test_prebuilt_backend_rejects_any_backend_options(self):
        from repro.api import create_backend

        schema, _ = diamond_schema()
        prebuilt = create_backend("ideal")
        with pytest.raises(ValueError, match="pre-built Backend"):
            DecisionService(schema, backend=prebuilt, seed=3)
        with pytest.raises(ValueError, match="pre-built Backend"):
            DecisionService(
                schema,
                ExecutionConfig(backend_options={"seed": 5}),
                backend=prebuilt,
            )

    def test_backend_argument_overrides_config(self):
        schema, source_values = diamond_schema()
        service = DecisionService(
            schema, ExecutionConfig.from_code("PCE0"), backend="bounded", seed=3
        )
        assert service.backend.name == "bounded"
        assert service.config.backend == "bounded"
        assert service.config.backend_options["seed"] == 3
        metrics = service.submit(source_values).wait()
        assert metrics.elapsed > 2.0  # ms clock, not unit ticks

    def test_reproduces_run_once_exactly(self):
        """Acceptance: the facade must match run_once on identical seeds."""
        for code in ("PSE80", "PCE0", "PSC100"):
            reference = run_once(PATTERN, Strategy.parse(code))
            service = DecisionService(
                PATTERN.schema, ExecutionConfig.from_code(code), backend="ideal"
            )
            metrics = service.submit(PATTERN.source_values).wait()
            assert metrics.work_units == reference.work_units
            assert metrics.elapsed == reference.elapsed

    def test_handle_value_and_instance_access(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        handle = service.submit(source_values)
        handle.wait()
        assert handle.value("a") == 1
        assert handle.instance.done
        assert "done" in repr(handle)

    def test_missing_source_values_rejected_at_submit(self):
        schema, _ = chain_schema(length=2)
        service = DecisionService(schema)
        with pytest.raises(ExecutionError, match="missing source values"):
            service.submit({})

    def test_wait_reports_stall_when_clock_runs_dry(self):
        schema, source_values = chain_schema(length=2)
        service = DecisionService(schema)
        handle = service.submit(source_values, at=10.0)
        # Drain the (empty) event queue up to t=5: the instance has not
        # even started, so wait() must not claim success.
        service.run(until=5.0)
        assert not handle.done
        handle.wait()  # a full run reaches the start event and finishes
        assert handle.done

    def test_duplicate_instance_id_rejected(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        service.submit(source_values, instance_id="dup")
        with pytest.raises(ExecutionError, match="duplicate instance id"):
            service.submit(source_values, instance_id="dup")

    def test_summary_and_handles(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        for _ in range(3):
            service.submit(source_values)
        service.run()
        assert len(service.handles) == 3
        assert len(service.completed) == 3
        summary = service.summary()
        assert summary.count == 3
        assert summary.mean_work == 2.0
        assert "3/3 done" in repr(service)

    def test_summary_of_empty_service_is_zeroed(self):
        """Regression: no completed instances must not raise ValueError."""
        schema, _ = diamond_schema()
        service = DecisionService(schema)
        summary = service.summary()
        assert summary.count == 0
        assert summary.total_work == 0
        assert summary.mean_work == 0.0
        assert summary.std_work == 0.0
        assert summary.mean_elapsed == 0.0
        assert summary.mean_queries_launched == 0.0
        assert summary.mean_time_in_units() == 0.0
        assert summary.mean_time_in_seconds() == 0.0

    def test_summary_with_only_inflight_instances_is_zeroed(self):
        """Submitted-but-unfinished instances do not enter the summary."""
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        service.submit(source_values, at=10.0)
        summary = service.summary()
        assert summary.count == 0
        service.run()
        assert service.summary().count == 1


class TestArrivalHelpers:
    def test_submit_stream_with_shared_values(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        handles = service.submit_stream([0.0, 5.0, 9.0], values=source_values)
        assert [h.done for h in handles] == [True] * 3
        starts = [h.metrics.start_time for h in handles]
        assert starts == [0.0, 5.0, 9.0]

    def test_submit_stream_with_per_instance_values(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        handles = service.submit_stream(
            [(0.0, {"s": 5}), (1.0, {"s": 50})]
        )
        assert handles[0].result() == {"t": 1}  # b disabled
        assert handles[1].result() == {"t": 11}  # b enabled: 1 + 10

    def test_submit_stream_callable_values(self):
        schema, _ = diamond_schema()
        service = DecisionService(schema)
        handles = service.submit_stream([0.0, 1.0], values=lambda i: {"s": 50 * i})
        assert handles[0].result() == {"t": 1}
        assert handles[1].result() == {"t": 11}

    def test_submit_stream_no_run(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        handles = service.submit_stream([0.0], values=source_values, run=False)
        assert not handles[0].done
        service.run()
        assert handles[0].done

    def test_run_closed_bounds_concurrency(self):
        schema, source_values = chain_schema(length=3, cost=2)
        service = DecisionService(schema)
        in_flight, max_in_flight = [0], [0]

        service.on_launch(lambda e: None)  # exercise multiple subscribers

        @service.on_instance_complete
        def track_done(event):
            in_flight[0] -= 1

        original_submit = service.engine.submit_instance

        def counting_submit(*args, **kwargs):
            in_flight[0] += 1
            max_in_flight[0] = max(max_in_flight[0], in_flight[0])
            return original_submit(*args, **kwargs)

        service.engine.submit_instance = counting_submit
        handles = service.run_closed(6, concurrency=2, values=source_values)
        assert len(handles) == 6
        assert all(h.done for h in handles)
        assert max_in_flight[0] <= 2

    def test_run_closed_serializes_at_concurrency_one(self):
        schema, source_values = chain_schema(length=2, cost=3)
        service = DecisionService(schema)
        handles = service.run_closed(3, values=source_values)
        # Each instance takes 6 ticks; strictly one at a time → 18 total.
        assert service.now == 18.0
        starts = [h.metrics.start_time for h in handles]
        assert starts == [0.0, 6.0, 12.0]

    def test_run_closed_validation(self):
        schema, _ = diamond_schema()
        service = DecisionService(schema)
        with pytest.raises(ValueError):
            service.run_closed(0)
        with pytest.raises(ValueError):
            service.run_closed(1, concurrency=0)


class TestObserverHooks:
    def test_launch_then_complete_ordering(self):
        """Acceptance: launches of an instance precede its completion event."""
        service = DecisionService(drain_share_schema(), "PSE100")
        events = []
        service.on_launch(events.append)
        service.on_query_done(events.append)
        service.on_instance_complete(events.append)
        service.submit({"s": "k", "flag": 1}).wait()

        kinds = [type(e).__name__ for e in events]
        assert kinds[-1] == "InstanceCompleteEvent"
        assert kinds.count("InstanceCompleteEvent") == 1
        launches = [e for e in events if isinstance(e, LaunchEvent)]
        # PSE100 launches c eagerly and big speculatively (condition on c).
        assert {e.attribute for e in launches} == {"c", "big"}
        assert [e.speculative for e in launches if e.attribute == "big"] == [True]
        # Every launch precedes its query completion, which precedes the
        # instance completion; times are monotone in simulated time.
        times = [e.time for e in events]
        assert times == sorted(times)
        launched = set()
        for event in events:
            if isinstance(event, LaunchEvent):
                launched.add(event.attribute)
            elif isinstance(event, QueryDoneEvent):
                assert event.attribute in launched

    def test_query_done_events_carry_units(self):
        schema, source_values = chain_schema(length=2, cost=3)
        service = DecisionService(schema)
        done_events = []
        service.on_query_done(done_events.append)
        service.submit(source_values).wait()
        assert [e.units for e in done_events] == [3, 3]
        assert all(e.completed for e in done_events)

    def test_attach_log_records_everything(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema, "PCE100")
        log = service.attach_log()
        service.submit(source_values).wait()
        assert isinstance(log, EventLog)
        assert len(log) > 0
        assert len(log.of_type(InstanceCompleteEvent)) == 1
        assert len(log.of_type(LaunchEvent)) == len(log.of_type(QueryDoneEvent))

    def test_multi_instance_events_tagged_by_id(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        log = service.attach_log()
        first = service.submit(source_values, instance_id="one")
        second = service.submit(source_values, instance_id="two")
        service.run()
        completes = log.of_type(InstanceCompleteEvent)
        assert {e.instance_id for e in completes} == {"one", "two"}
        assert first.done and second.done

    def test_shared_launches_are_flagged(self):
        schema = DecisionFlowSchema(
            [
                Attribute("k"),
                Attribute(
                    "t",
                    task=QueryTask("q_t", ("k",), lambda v: v["k"], 2),
                    is_target=True,
                ),
            ]
        )
        service = DecisionService(
            schema, ExecutionConfig.from_code("PCE100", share_results=True)
        )
        log = service.attach_log()
        service.submit({"k": 1}, at=0.0)
        service.submit({"k": 1}, at=1.0)
        service.run()
        shared = [e.shared for e in log.of_type(LaunchEvent)]
        assert shared.count(None) == 1
        assert shared.count("join") == 1


def drain_share_schema() -> DecisionFlowSchema:
    """A flow whose speculative 10-unit query outlives its issuer.

    ``big`` is keyed only by the shared source ``s`` (so two instances
    share it) but guarded by a condition on the per-instance ``c``; an
    instance with ``flag=0`` disables ``big`` and finishes at t=2 while
    the big query is still in flight.
    """
    return DecisionFlowSchema(
        [
            Attribute("s"),
            Attribute("flag"),
            Attribute("c", task=QueryTask("q_c", ("flag",), lambda v: v["flag"], 2)),
            Attribute(
                "big",
                task=QueryTask("q_big", ("s",), lambda v: f"big-{v['s']}", 10),
                condition=Comparison("c", Op.EQ, 1),
            ),
            Attribute(
                "t",
                task=SynthesisTask("s_t", ("c", "big"), lambda v: (v["c"], v["big"])),
                is_target=True,
            ),
        ],
        name="drain-share",
    )


class TestDrainWithSharing:
    """halt_policy='drain' × share_results=True: waiters must resolve."""

    @pytest.mark.parametrize("halt_policy", ["drain", "cancel"])
    def test_waiter_resolves_after_issuer_finishes(self, halt_policy):
        service = DecisionService(
            drain_share_schema(),
            ExecutionConfig.from_code(
                "PSE100", halt_policy=halt_policy, share_results=True
            ),
        )
        issuer = service.submit({"s": "k", "flag": 0})
        waiter = service.submit({"s": "k", "flag": 1})
        service.run()
        assert issuer.done and waiter.done
        # The issuer disabled `big` and finished early, at t=2 ...
        assert issuer.metrics.finish_time == 2.0
        # ... while the waiter's target needed the shared big query,
        # resolved by the issuer's in-flight launch completing at t=10.
        assert waiter.result() == {"t": (1, "big-k")}
        assert waiter.metrics.finish_time == 10.0
        assert waiter.metrics.shared_joins == 1
        # Only one big query ever hit the database: 2 + 2 + 10 units.
        assert service.database.total_units == 14

    def test_drain_books_post_completion_work_to_issuer(self):
        service = DecisionService(
            drain_share_schema(),
            ExecutionConfig.from_code("PSE100", halt_policy="drain", share_results=True),
        )
        issuer = service.submit({"s": "k", "flag": 0})
        waiter = service.submit({"s": "k", "flag": 1})
        service.run()
        # Drain semantics: the issuer's query ran to completion and its
        # units are booked to the issuer, not the waiter.
        assert issuer.metrics.work_units == 12
        assert waiter.metrics.work_units == 2
        assert waiter.done


class TestReleaseCompleted:
    """release_completed(): memory follows live instances, summary() does not."""

    FAST = dict(engine="batched", dispatch="pooled", query_cache=True, cohorts=True)
    EXACT = (
        "count",
        "total_work",
        "query_cache_hits",
        "query_cache_misses",
        "query_cache_coalesced",
        "cohort_hits",
        "cohort_splits",
    )

    @staticmethod
    def submit_round(service, round_index):
        """Same-instant bursts over a few hot valuations plus fresh ones."""
        base = 100.0 * round_index
        handles = []
        for burst in range(4):
            for member in range(6):
                value = (burst % 3) if member < 4 else 1000 * round_index + 10 * burst + member
                handles.append(service.submit({"src": value}, at=base + 5.0 * burst))
        return handles

    @pytest.mark.parametrize("engine_axes", [{}, FAST], ids=["reference", "fast"])
    def test_summary_agrees_with_a_service_that_never_releases(self, engine_axes):
        config = ExecutionConfig.from_code("PSE100", **engine_axes)
        keeper = DecisionService(PATTERN.schema, config)
        releaser = DecisionService(PATTERN.schema, config)
        held = []
        for round_index in range(3):
            self.submit_round(keeper, round_index)
            issued = self.submit_round(releaser, round_index)
            keeper.run()
            releaser.run()
            released = releaser.release_completed()
            assert list(released) == issued
            assert releaser.handles == () and releaser.completed == ()
            assert releaser.engine.instances == []
            held.extend(issued)

            kept, folded = keeper.summary(), releaser.summary()
            for name in self.EXACT:
                assert getattr(folded, name) == getattr(kept, name), name
            for name, value in kept.to_dict().items():
                assert getattr(folded, name) == pytest.approx(value, rel=1e-9), name
        assert keeper.summary().count == 72
        if engine_axes:
            assert keeper.summary().cohort_hits > 0
        # Released handles stay fully readable.
        for mine, theirs in zip(held, keeper.handles):
            assert mine.done and mine.metrics == theirs.metrics
            assert mine.result() == theirs.result()
            assert mine.value("src") == theirs.value("src")

    def test_only_finished_instances_are_released(self):
        schema, source_values = chain_schema(length=2, cost=3)
        service = DecisionService(schema)
        early = service.submit(source_values, at=0.0)
        late = service.submit(source_values, at=100.0)
        service.run(until=50.0)
        assert service.release_completed() == (early,)
        assert service.handles == (late,)
        assert service.engine.instances == [late.instance]
        assert service.summary().count == 1
        service.run()
        assert service.summary().count == 2
        assert service.release_completed() == (late,)
        assert service.release_completed() == ()
        assert service.summary().count == 2

    def test_released_ids_stay_claimed(self):
        schema, source_values = diamond_schema()
        service = DecisionService(schema)
        service.submit(source_values, instance_id="once").wait()
        service.release_completed()
        with pytest.raises(ExecutionError, match="once"):
            service.submit(source_values, instance_id="once")

    def test_a_done_instance_with_a_query_in_flight_is_kept(self):
        """Under drain, a straggler still books its units on the finished
        instance; releasing it earlier would freeze a partial Work."""
        config = ExecutionConfig.from_code("PSE100", halt_policy="drain")
        keeper = DecisionService(drain_share_schema(), config)
        releaser = DecisionService(drain_share_schema(), config)
        for service in (keeper, releaser):
            service.submit({"s": "k", "flag": 0})
            service.run(until=5.0)  # done at t=2, `big` in flight until t=10
        (handle,) = releaser.handles
        assert handle.done
        assert releaser.release_completed() == ()
        keeper.run()
        releaser.run()
        assert releaser.release_completed() == (handle,)
        assert releaser.summary() == keeper.summary()
        assert releaser.summary().total_work == 12
