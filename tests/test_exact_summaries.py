"""A summary does not depend on when releases and fleet rounds happened.

Each service below runs the same instances as its counterpart — the
per-instance rows are asserted equal first — and only the moments at
which finished instances were folded into the running aggregate differ
(a release after every step, or one fleet round per step).  Because a
:class:`~repro.core.metrics.MetricsSummary` is a sum, the summaries are
equal, every field, bit for bit.  So is the whole-clock mean Gmpl: a
release trims the database's Gmpl trace, never its running integral.
"""

from __future__ import annotations

import pytest

from repro.api import DecisionService, ExecutionConfig
from repro.runtime import ShardedDecisionService
from tests._support import scenario_pattern

STEPS, PER_STEP, SPAN = 8, 5, 10.0
CONFIG = ExecutionConfig.from_code("PSE100", query_cache=True)


def arrivals(step: int) -> list[tuple[str, float]]:
    """Five arrivals inside the step, none on a pause instant."""
    return [(f"i{step}-{k}", step * SPAN + 0.5 + 1.5 * k) for k in range(PER_STEP)]


def submit_step(service, pattern, step: int) -> None:
    for instance_id, at in arrivals(step):
        service.submit(pattern.source_values, at=at, instance_id=instance_id)


def pause(step: int) -> float | None:
    """The step's ``run(until)``; the last step drains."""
    return (step + 1) * SPAN if step < STEPS - 1 else None


def assert_same_summary(left, right) -> None:
    assert left == right
    assert left.to_dict() == right.to_dict()


@pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)], ids=["0-19", "20-39"])
def test_releasing_after_every_step_reads_as_holding(seeds):
    for seed in seeds:
        pattern = scenario_pattern(seed)
        holder = DecisionService(pattern.schema, CONFIG)
        releaser = DecisionService(pattern.schema, CONFIG)
        held = []
        for step in range(STEPS):
            for service in (holder, releaser):
                submit_step(service, pattern, step)
                service.run(until=pause(step))
            held.extend(releaser.release_completed())
            assert_same_summary(releaser.summary(), holder.summary())
            assert releaser.mean_gmpl() == holder.mean_gmpl()
        assert [h.metrics for h in held] == [h.metrics for h in holder.handles]
        trace = releaser.database._gmpl_times
        assert len(trace) == 1 < len(holder.database._gmpl_times)


def test_a_releasing_fleet_reads_as_holding():
    config = CONFIG.replace(shards=2, executor="serial")
    for seed in range(10):
        pattern = scenario_pattern(seed)
        holder = ShardedDecisionService(pattern.schema, config)
        releaser = ShardedDecisionService(pattern.schema, config)
        for step in range(STEPS):
            for service in (holder, releaser):
                submit_step(service, pattern, step)
                service.run(until=pause(step))
            releaser.release_completed()
            assert_same_summary(releaser.summary(), holder.summary())
            assert releaser.mean_gmpl() == holder.mean_gmpl()
        assert releaser.handles == ()


def test_one_fleet_round_reads_as_eight():
    config = CONFIG.replace(shards=2, executor="serial")
    for seed in range(20):
        pattern = scenario_pattern(seed)
        once = ShardedDecisionService(pattern.schema, config)
        for step in range(STEPS):
            submit_step(once, pattern, step)
        once.run()
        stepped = ShardedDecisionService(pattern.schema, config)
        for step in range(STEPS):
            submit_step(stepped, pattern, step)
            stepped.run(until=pause(step))
        assert [h.metrics for h in stepped.handles] == [h.metrics for h in once.handles]
        assert_same_summary(stepped.summary(), once.summary())


def test_a_one_shard_process_fleet_reads_as_the_plain_service_at_every_pause():
    config = CONFIG.replace(shards=1, executor="process")
    for seed in range(4):
        pattern = scenario_pattern(seed)
        plain = DecisionService(pattern.schema, CONFIG)
        fleet = ShardedDecisionService(pattern.schema, config)
        try:
            for step in range(STEPS):
                for service in (plain, fleet):
                    submit_step(service, pattern, step)
                    service.run(until=pause(step))
                assert [h.metrics for h in fleet.handles] == [h.metrics for h in plain.handles]
                assert_same_summary(fleet.summary(), plain.summary())
        finally:
            fleet.close()
