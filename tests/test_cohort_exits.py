"""The one way out of lockstep (``BatchedEngine._dissolve``) and the
three things that take it.

A cohort's members ride their representative's cache primaries until
they finish, unless (``engine.cohort_exits``)

* ``"join"`` — an arrival cannot ride a cohort that has members: a real
  follower has coalesced behind one of the primaries since the last join;
* ``"answered"`` — the cache answers one of the representative's later
  launches (a memo hit, a coalesce): there is no primary to ride;
* ``"cancelled"`` — members cancelled a wait whose query completes for
  the representative all the same: it could not cancel a primary they
  (or someone else's real follower) still waited on when it tried.

Each has one hand-built scenario, and a seeded stress ring takes all
three (and lockstep to the end) many times over; everything is held to
the reference engine's whole trace (``tests/_support.trace_of``) under
both dispatch modes, and each asserts the exits it is there for were
taken, so it cannot silently stop exercising one.
"""

from __future__ import annotations

import random

import pytest

from repro.core.rows import Row
from tests._support import (
    HIGH,
    LOW,
    OTHER,
    PERF,
    assert_matches_reference,
    scenario_pattern,
    two_source_schema,
)

HAND_BUILT = {
    # The second LOW rides the first; HIGH's `x` then coalesces behind the
    # cohort's primary, and would sit between it and the third.
    "join": [(0.0, LOW), (0.0, LOW), (0.0, HIGH), (0.0, LOW)],
    # HIGH has left `g` in the memo by the time the OTHERs launch it.
    "answered": [(0.0, HIGH), (100.0, OTHER), (100.0, OTHER), (100.0, OTHER)],
    # The LOWs cancel `x` at t=1, HIGH's follower keeps it running to t=6.
    "cancelled": [(0.0, LOW), (0.0, LOW), (0.0, LOW), (0.0, HIGH)],
}


@pytest.mark.parametrize("pooled", [False, True], ids=["per-event", "pooled"])
@pytest.mark.parametrize("halt_policy", ["cancel", "drain"])
@pytest.mark.parametrize("trigger", list(HAND_BUILT))
def test_each_exit_by_hand(trigger, halt_policy, pooled):
    arrivals = HAND_BUILT[trigger]
    engine = assert_matches_reference(
        two_source_schema(),
        "PSE100",
        arrivals=arrivals,
        halt_policy=halt_policy,
        cancel_unneeded=True,
        cohorts=True,
        pooled=pooled,
    )
    members = sum(values == arrivals[1][1] for _, values in arrivals) - 1
    if trigger == "join":
        members -= 1  # the arrival that could not ride
    assert engine.cohort_exits == {"join": 0, "answered": 0, "cancelled": 0, trigger: 1}
    assert (engine.cohort_hits, engine.cohort_splits) == (members, members)
    assert not engine._cohorts.open


@pytest.mark.parametrize("trigger", list(HAND_BUILT))
def test_each_exit_builds_the_rows_it_dissolves(trigger):
    """In each hand-built burst every arrival is a row until it starts, and
    a repeat rides its twin as one; the exit builds each rider's instance,
    which then decides as the reference's (values, metrics, events and
    database totals: the whole trace)."""
    engine = assert_matches_reference(
        two_source_schema(),
        "PSE100",
        arrivals=HAND_BUILT[trigger],
        cancel_unneeded=True,
        cohorts=True,
        pooled=True,
    )
    rows = [instance for instance in engine.instances if type(instance) is Row]
    assert len(rows) == 4 and all(row.materialized is not None for row in rows)
    assert engine.cohort_exits[trigger] == 1
    assert engine.cohort_splits == engine.cohort_hits > 0


def test_riding_to_the_end_by_hand():
    """A burst with nothing in its way: no exit, no split."""
    arrivals = [(0.0, HIGH)] * 4
    for pooled in (False, True):
        engine = assert_matches_reference(
            two_source_schema(),
            "PSE100",
            arrivals=arrivals,
            cancel_unneeded=True,
            cohorts=True,
            pooled=pooled,
        )
        assert (engine.cohort_hits, engine.cohort_splits) == (3, 0)
        assert not any(engine.cohort_exits.values())


STRESS_CODES = ["PSE100", "PCE100", "NSE100", "PSC100", "PSE80", "NCC100"]


def stress_scenario(seed: int) -> tuple:
    """One random cell of pattern × strategy × backend × halt ×
    ``cancel_unneeded`` × failures × memo size × cache on / off, under
    2-8 instants of 1-6 bursts of 1-4 copies, 80 % of the bursts from
    4-5 hot valuations."""
    rng = random.Random(seed)
    if rng.random() < 0.4:
        pattern, hot = PERF, [93.5, 95.25, 40.0, 89.5, 91.0]
        lo, hi = 80.0, 100.0
    else:
        pattern = scenario_pattern(
            rng.randrange(6),
            nb_nodes=rng.choice([12, 16, 24]),
            pct_enabled=rng.choice([30.0, 50.0, 70.0]),
            max_cost=rng.choice([3, 6]),
        )
        base = pattern.source_values[pattern.schema.source_names[0]]
        hot, lo, hi = [base, base + 1000, base - 1000, base + 7], base - 30, base + 30
    source = pattern.schema.source_names[0]
    hot = hot[: rng.choice([4, 5])]
    at, arrivals = 0.0, []
    for _ in range(rng.randint(2, 8)):
        at += rng.choice([0.5, 3.0, 40.0, 400.0])
        for _ in range(rng.randint(1, 6)):
            value = rng.choice(hot) if rng.random() < 0.8 else round(rng.uniform(lo, hi), 3)
            arrivals.extend([(at, {source: value})] * rng.randint(1, 4))
    kwargs = dict(
        arrivals=arrivals,
        backend=rng.choice(["ideal", "bounded", "profiled"]),
        halt_policy=rng.choice(["cancel", "drain"]),
        cancel_unneeded=rng.random() < 0.5,
        failure_prob=rng.choice([0.0, 0.3]),
        memo_limit=rng.choice([3, 16, 4096]),
        cache=rng.random() < 0.85,
        seed=seed,
    )
    return pattern.schema, rng.choice(STRESS_CODES), kwargs


def cut_bursts(arrivals) -> int:
    """Instants at which a valuation comes back after another one (A A B
    A): inside one arrival run, its burst is cut in two — the cohort is
    joined in two steps, or left through the ``join`` exit."""
    cut, by_instant = 0, {}
    for at, values in arrivals:
        by_instant.setdefault(at, []).append(repr(values))
    for burst in by_instant.values():
        seen = [value for k, value in enumerate(burst) if k == 0 or burst[k - 1] != value]
        cut += len(seen) != len(set(seen))
    return cut


def test_seeded_stress_takes_every_exit():
    """A window of a 1 300-seed scratch run (0 mismatches) that takes each
    exit, under a cache and without one (where the flag is inert) — and
    joins cohorts every way an arrival run can: several members in one
    step, one alone, and a burst cut in two mid-run."""
    exits = {"join": 0, "answered": 0, "cancelled": 0}
    rode = inert = bulk = alone = cut = 0
    for seed in range(19, 39):
        schema, code, kwargs = stress_scenario(seed)
        for pooled in (False, True):
            engine = assert_matches_reference(schema, code, cohorts=True, pooled=pooled, **kwargs)
            for trigger, count in engine.cohort_exits.items():
                exits[trigger] += count
            rode += engine.cohort_hits - engine.cohort_splits
            bulk += engine.bulk_joins
            alone += engine.cohort_hits - engine.bulk_join_members
            assert engine.arrival_run_arrivals == len(kwargs["arrivals"])
            assert engine.arrival_runs == len({at for at, _ in kwargs["arrivals"]})
            if not kwargs["cache"]:
                inert += 1
                assert engine.cohort_hits == 0 and engine._cohorts is None
            elif engine.cohort_hits:
                cut += cut_bursts(kwargs["arrivals"])
    assert all(count > 0 for count in exits.values()), exits
    assert rode > 0 and inert > 0
    assert bulk > 0 and alone > 0 and cut > 0, (bulk, alone, cut)
