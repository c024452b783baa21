"""End-to-end engine behaviour on crafted schemas."""

import random

import pytest

from repro import (
    ALL_STRATEGY_CODES,
    Attribute,
    AttributeState,
    Comparison,
    DecisionFlowSchema,
    DecisionService,
    Engine,
    ExecutionConfig,
    IdealDatabase,
    NULL,
    Op,
    PatternParams,
    Simulation,
    Strategy,
    check_against_snapshot,
    evaluate_schema,
    generate_pattern,
)
from repro.errors import ExecutionError
from tests._support import chain_schema, diamond_schema, engine_arms, q, run_engine


class TestBasicExecution:
    @pytest.mark.parametrize("code", [c + p for c in ALL_STRATEGY_CODES for p in ("0", "100")])
    def test_diamond_correct_under_every_strategy(self, code):
        schema, source_values = diamond_schema()
        metrics, instance = run_engine(schema, code, source_values)
        assert instance.done
        snapshot = evaluate_schema(schema, source_values)
        assert check_against_snapshot(snapshot, instance.state_map(), instance.value_map()) == []

    def test_chain_timing_sequential(self):
        schema, source_values = chain_schema(length=5, cost=2)
        metrics, _ = run_engine(schema, "PCE0", source_values)
        assert metrics.work_units == 10
        assert metrics.elapsed == 10.0  # sequential: TimeInUnits == Work

    def test_paper_example_time_8_work_10(self):
        """The paper's metric example: 10 units total, 3 in parallel → T=8, W=10.

        a, b, c run in parallel on tick 1; a 7-unit chain hangs off a.
        """
        attributes = [Attribute("s")]
        for name in ("a", "b", "c"):
            attributes.append(Attribute(name, task=q(name, inputs=("s",), value=0, cost=1)))
        previous = "a"
        for index in range(1, 8):
            name = f"k{index}"
            attributes.append(
                Attribute(
                    name,
                    task=q(name, inputs=(previous, "b", "c") if index == 1 else (previous,), value=0, cost=1),
                    is_target=(index == 7),
                )
            )
            previous = name
        schema = DecisionFlowSchema(attributes)
        metrics, _ = run_engine(schema, "PCE100", {"s": 0})
        assert metrics.work_units == 10
        assert metrics.elapsed == 8.0

    def test_parallelism_reduces_time_not_below_critical_path(self):
        schema, source_values = chain_schema(length=6, cost=1)
        sequential, _ = run_engine(schema, "PCE0", source_values)
        parallel, _ = run_engine(schema, "PCE100", source_values)
        # A pure chain has no parallelism: both strategies take 6 ticks.
        assert sequential.elapsed == parallel.elapsed == 6.0


class TestInstanceIds:
    def make_engine(self):
        schema, source_values = diamond_schema()
        simulation = Simulation()
        engine = Engine(schema, Strategy.parse("PCE0"), IdealDatabase(simulation))
        return engine, simulation, source_values

    def test_duplicate_user_supplied_id_rejected(self):
        engine, _, source_values = self.make_engine()
        seen = []
        engine.submit_instance(
            source_values, instance_id="job-1", on_complete=seen.append
        )
        # A silent resubmission used to clobber the first on_complete
        # callback; now the duplicate id is an error.
        with pytest.raises(ExecutionError, match="duplicate instance id"):
            engine.submit_instance(
                source_values, instance_id="job-1", on_complete=seen.append
            )

    def test_first_callback_survives_rejected_duplicate(self):
        engine, simulation, source_values = self.make_engine()
        seen = []
        engine.submit_instance(
            source_values, instance_id="job-1", on_complete=lambda m: seen.append("first")
        )
        with pytest.raises(ExecutionError):
            engine.submit_instance(
                source_values, instance_id="job-1", on_complete=lambda m: seen.append("second")
            )
        simulation.run()
        assert seen == ["first"]

    def test_duplicate_id_across_finished_instances_rejected(self):
        engine, simulation, source_values = self.make_engine()
        engine.submit_instance(source_values, instance_id="job-1")
        simulation.run()
        with pytest.raises(ExecutionError, match="duplicate instance id"):
            engine.submit_instance(source_values, instance_id="job-1")

    def test_submission_at_past_time_rejected_with_context(self):
        engine, simulation, source_values = self.make_engine()
        simulation.run(until=5.0)
        with pytest.raises(ExecutionError, match=r"'job-late'.*past time 3\.0.*clock is at 5\.0"):
            engine.submit_instance(source_values, at=3.0, instance_id="job-late")
        # The rejected submission must not leave partial state behind.
        assert engine.instances == []
        engine.submit_instance(source_values, at=5.0, instance_id="job-late")
        simulation.run()
        assert engine.instances[0].done

    def test_past_submission_error_names_generated_id(self):
        engine, simulation, source_values = self.make_engine()
        simulation.run(until=2.0)
        with pytest.raises(ExecutionError, match="diamond#1"):
            engine.submit_instance(source_values, at=1.0)

    def test_generated_ids_are_unique(self):
        engine, simulation, source_values = self.make_engine()
        first = engine.submit_instance(source_values)
        second = engine.submit_instance(source_values)
        assert first.instance_id != second.instance_id
        simulation.run()
        assert first.done and second.done

    def test_generated_ids_skip_user_claimed_names(self):
        engine, simulation, source_values = self.make_engine()
        # Claim the exact name the generator would produce next.
        taken = f"{engine.schema.name}#1"
        engine.submit_instance(source_values, instance_id=taken)
        auto = engine.submit_instance(source_values)
        assert auto.instance_id != taken
        simulation.run()
        assert auto.done


class TestEarlyHalt:
    def test_disabled_target_halts_immediately_with_zero_work(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("x", task=q("x", inputs=("s",), value=1, cost=5)),
                Attribute(
                    "t",
                    task=q("t", inputs=("x",), value=2, cost=5),
                    condition=Comparison("s", Op.GT, 100),
                    is_target=True,
                ),
            ]
        )
        metrics, instance = run_engine(schema, "PCE100", {"s": 1})
        assert instance.done
        assert metrics.elapsed == 0.0
        assert metrics.work_units == 0  # x was never launched: unneeded
        assert instance.cells["t"].value is NULL

    def test_naive_still_computes_unneeded_branch(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("x", task=q("x", inputs=("s",), value=1, cost=5)),
                Attribute(
                    "t",
                    task=q("t", inputs=("x",), value=2, cost=5),
                    condition=Comparison("s", Op.GT, 100),
                    is_target=True,
                ),
            ]
        )
        metrics, instance = run_engine(schema, "NCE100", {"s": 1})
        # The target is disabled at start either way (its condition reads
        # only the source), so no work is required even without P.
        assert instance.done
        assert metrics.work_units == 0


class TestHaltPolicy:
    def speculative_side_schema(self):
        """Target completes in 1 tick; a 5-unit speculative query idles on.

        x feeds nothing, so option P would prune it as unneeded up front —
        the halt-policy behaviour is exercised under N, where the naive
        prequalifier happily launches it speculatively.
        """
        return DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("t", task=q("t", inputs=("s",), value=1, cost=1), is_target=True),
                Attribute(
                    "x",
                    task=q("x", inputs=("s",), value=2, cost=5),
                    condition=Comparison("t", Op.GT, 100),
                ),
            ]
        )

    def test_p_option_never_launches_the_dead_branch(self):
        metrics, _ = run_engine(self.speculative_side_schema(), "PSE100", {"s": 0})
        assert metrics.queries_launched == 1  # x pruned as unneeded at start
        assert metrics.work_units == 1

    def test_cancel_policy_cuts_in_flight_work(self):
        metrics, _ = run_engine(self.speculative_side_schema(), "NSE100", {"s": 0}, halt_policy="cancel")
        # x is launched speculatively at t=0, target completes at t=1:
        # x has processed exactly 1 unit when it is cancelled.
        assert metrics.work_units == 2
        assert metrics.queries_cancelled == 1

    def test_drain_policy_counts_full_cost(self):
        metrics, _ = run_engine(self.speculative_side_schema(), "NSE100", {"s": 0}, halt_policy="drain")
        assert metrics.work_units == 6
        assert metrics.queries_cancelled == 0

    def test_bad_halt_policy_rejected(self):
        schema, _ = diamond_schema()
        with pytest.raises(ValueError, match="halt_policy"):
            Engine(schema, Strategy.parse("PCE0"), IdealDatabase(Simulation()), "explode")


class TestSpeculationAccounting:
    def test_wasted_speculative_work_counted(self):
        # x must stay "possibly needed" for P, so route it into the target.
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("gate", task=q("gate", inputs=("s",), value=0, cost=3)),
                Attribute(
                    "x",
                    task=q("x", inputs=("s",), value=5, cost=2),
                    condition=Comparison("gate", Op.GT, 10),  # will be false
                ),
                Attribute("t", task=q("t", inputs=("gate", "x"), value=1, cost=1), is_target=True),
            ]
        )
        metrics, instance = run_engine(schema, "PSE100", {"s": 0})
        assert instance.cells["x"].state is AttributeState.DISABLED
        assert metrics.speculative_launched >= 1
        assert metrics.speculative_wasted_queries == 1
        assert metrics.speculative_wasted_units == 2

    def test_conservative_never_wastes(self):
        schema, source_values = diamond_schema()
        metrics, _ = run_engine(schema, "PCE100", source_values)
        assert metrics.speculative_launched == 0
        assert metrics.speculative_wasted_units == 0


class TestMultiInstance:
    def test_instances_are_isolated(self):
        schema, _ = diamond_schema()
        simulation = Simulation()
        engine = Engine(schema, Strategy.parse("PCE100"), IdealDatabase(simulation))
        low = engine.submit_instance({"s": 5})
        high = engine.submit_instance({"s": 50})
        simulation.run()
        assert low.cells["b"].value is NULL
        assert high.cells["b"].value == 10
        assert low.done and high.done

    def test_staggered_arrivals(self):
        schema, source_values = chain_schema(length=3, cost=1)
        simulation = Simulation()
        engine = Engine(schema, Strategy.parse("PCE0"), IdealDatabase(simulation))
        first = engine.submit_instance(source_values, at=0.0)
        second = engine.submit_instance(source_values, at=10.0)
        simulation.run()
        assert first.metrics.finish_time == 3.0
        assert second.metrics.finish_time == 13.0

    def test_on_complete_callback(self):
        schema, source_values = diamond_schema()
        simulation = Simulation()
        engine = Engine(schema, Strategy.parse("PCE0"), IdealDatabase(simulation))
        seen = []
        engine.submit_instance(source_values, on_complete=seen.append)
        simulation.run()
        assert len(seen) == 1
        assert seen[0].done

    def test_run_single_convenience(self):
        schema, source_values = diamond_schema()
        engine = Engine(schema, Strategy.parse("PCE0"), IdealDatabase(Simulation()))
        metrics = engine.run_single(source_values)
        assert metrics.done
        assert metrics.work_units == 2  # only query a runs (b disabled)

    def test_engine_repr(self):
        schema, source_values = diamond_schema()
        engine = Engine(schema, Strategy.parse("PSE80"), IdealDatabase(Simulation()))
        engine.run_single(source_values)
        assert "PSE80" in repr(engine)
        assert "1/1 done" in repr(engine)


class TestMetricsCounts:
    def test_query_counters(self):
        schema, source_values = diamond_schema()
        metrics, _ = run_engine(schema, "PCE100", source_values)
        assert metrics.queries_launched == 1
        assert metrics.queries_completed == 1
        assert metrics.queries_cancelled == 0
        assert metrics.synthesis_executed == 1  # the target

    def test_unneeded_metrics(self):
        schema = DecisionFlowSchema(
            [
                Attribute("s"),
                Attribute("dead", task=q("dead", inputs=("s",), value=0, cost=4)),
                Attribute(
                    "gated",
                    task=q("gated", inputs=("dead",), value=0, cost=2),
                    condition=Comparison("s", Op.GT, 10),
                ),
                Attribute("t", task=q("t", inputs=("s",), value=1, cost=1), is_target=True),
            ]
        )
        metrics, _ = run_engine(schema, "PCE0", {"s": 0})
        # 'gated' is disabled instantly; 'dead' fed only 'gated' → unneeded.
        assert metrics.unneeded_detected == 1
        assert metrics.unneeded_cost_avoided == 4
        assert metrics.work_units == 1


class TestCohortTable:
    """A cohort is joinable only at its own start instant, so the batched
    engine's table of open cohorts never outlives that instant."""

    PATTERN = generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))

    @staticmethod
    def submit_overlap(service, bursts=40):
        """Same-instant bursts, 90% of arrivals from 8 hot valuations."""
        rng = random.Random(5)
        now, fresh = 0.0, 1000
        for _ in range(bursts):
            now += rng.expovariate(0.2)
            for _ in range(rng.randint(4, 12)):
                if rng.random() < 0.9:
                    value = rng.randrange(8)
                else:
                    fresh += 1
                    value = fresh
                service.submit({"src": value}, at=now)

    def run_checked(self, cohorts=True, **axes):
        config = ExecutionConfig.from_code("PSE100", engine="batched", **axes)
        with engine_arms(cohorts=cohorts):
            service = DecisionService(self.PATTERN.schema, config)
        log = service.attach_log()
        engine = service.engine
        starts = []
        start = engine._start

        def checked_start(instance):
            start(instance)
            starts.append(len(engine._open_cohorts))
            assert all(
                cohort.start_time == engine.sim.now
                for cohort in engine._open_cohorts.values()
            )

        engine._start = checked_start
        self.submit_overlap(service)
        service.run()
        assert service.summary().count == len(starts) == 320
        return service, starts, log.events

    def test_only_the_current_instant_is_joinable(self):
        service, starts, _ = self.run_checked(query_cache=True)
        summary = service.summary()
        # Cohorts form and leave: one burst's valuations, not the run's.
        assert 0 < max(starts) <= 12
        # Nobody rides one on this population: most first-stage queries
        # are keyed by no source, so past the first instant the cache
        # answers them, and within it the valuations' coalesce behind each
        # other's.
        assert (summary.cohort_hits, summary.cohort_splits) == (0, 0)
        assert not service.engine._open_cohorts  # every one was closed

    def test_without_a_cache_the_flag_is_inert(self):
        """No cache, no primaries to ride: the table stays empty and the
        run is the one ``cohorts=False`` makes."""
        armed, starts, events = self.run_checked()
        plain, _, plain_events = self.run_checked(cohorts=False)
        assert max(starts) == 0
        assert (armed.summary().cohort_hits, armed.summary().cohort_splits) == (0, 0)
        assert armed.summary() == plain.summary()
        assert armed.dispatch_stats() == plain.dispatch_stats()
        assert events == plain_events
