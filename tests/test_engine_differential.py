"""Differential harness: the batched engine vs the reference engine.

The :class:`~repro.core.batch_engine.BatchedEngine` replaces the
reference engine's name-keyed instance graphs with compiled-plan arrays.
This suite is the lockdown: seeded *generated* scenarios sweep every
execution dimension — strategy (eager ``P*`` / lazy ``N*`` including the
``PSE*`` parallelism family), result sharing, halt policies, failure
injection, unneeded-cancellation, and all three backends under both DES
kernels — and each scenario runs through both engines, asserting the
full observable trace (``tests/_support.trace_of``) is identical: values
(targets *and* intermediates), states, every :class:`InstanceMetrics`
counter, database totals and Gmpl, the cache's counters and LRU order,
the summary, end time and ``pending``, and the engine-observer event
stream, both as the per-run multiset the contract guarantees and as the
exact sequence the deterministic DES actually produces.

Both engines drive the *same* database implementations, so times are
required to match exactly (not approximately): a divergence anywhere in
launch ordering would shift submission ids and show up immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro import BatchedEngine, IdealDatabase, Simulation, Strategy
from repro.api import ExecutionConfig

from tests._support import (
    ENGINES,
    assert_matches_reference,
    assert_same,
    chain_schema,
    diamond_schema,
    engine_arms,
    run,
    run_closed_loop,
    scenario_pattern,
)


# -- scenario generation -------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One generated execution configuration (seed-independent)."""

    backend: str = "ideal"
    kernel: str = "coalesced"
    code: str = "PSE50"
    halt_policy: str = "cancel"
    failure_prob: float = 0.0
    cancel_unneeded: bool = False
    instances: int = 5
    spacing: float = 2.0
    nb_nodes: int = 24
    pct_enabled: float = 50.0
    max_cost: int = 6

    @property
    def label(self) -> str:
        bits = [self.backend, self.kernel, self.code, self.halt_policy]
        if self.failure_prob:
            bits.append(f"fail{self.failure_prob:g}")
        if self.cancel_unneeded:
            bits.append("cu")
        bits.append(f"i{self.instances}x{self.spacing:g}")
        return "-".join(bits)

    def run(self, engine_kind: str, seed: int, cache: bool = False, **arm):
        """This scenario on one engine: (trace, engine)."""
        pattern = scenario_pattern(
            seed, nb_nodes=self.nb_nodes, pct_enabled=self.pct_enabled, max_cost=self.max_cost
        )
        return run(
            ENGINES[engine_kind],
            pattern.schema,
            self.code,
            arrivals=[(k * self.spacing, pattern.source_values) for k in range(self.instances)],
            backend=self.backend,
            kernel=self.kernel,
            halt_policy=self.halt_policy,
            cancel_unneeded=self.cancel_unneeded,
            failure_prob=self.failure_prob,
            seed=seed,
            cache=cache,
            **arm,
        )


#: Corner cases that must always be present: the paper's eager (P*) and
#: lazy (N*) strategies, the PSE* parallelism family, every backend and
#: kernel, both halt policies, failures, and cancel-unneeded.
CORNERS = [
    Scenario(code="PSE0"),
    Scenario(code="PSE50"),
    Scenario(code="PSE100", spacing=0.0),
    Scenario(code="PCE0"),
    Scenario(code="NSE50"),
    Scenario(code="NCC80", halt_policy="drain"),
    Scenario(code="PSE50", failure_prob=0.3),
    Scenario(code="PCC50", cancel_unneeded=True),
    Scenario(code="PSE100", cancel_unneeded=True, halt_policy="drain"),
    Scenario(backend="ideal", kernel="per-unit", code="PSE50"),
    Scenario(backend="profiled", code="PSE100", spacing=0.0),
    Scenario(backend="profiled", kernel="per-unit", code="PCE0", halt_policy="drain"),
    Scenario(backend="bounded", code="PSE50", instances=4, nb_nodes=16),
]


def generate_scenarios(total: int = 26, seed: int = 20260729) -> list[Scenario]:
    """The corner list topped up with seeded random configurations."""
    rng = random.Random(seed)
    scenarios = list(CORNERS)
    seen = set(scenarios)
    while len(scenarios) < total:
        backend = rng.choice(["ideal", "ideal", "profiled", "bounded"])
        kernel = "coalesced" if backend == "bounded" else rng.choice(["coalesced", "per-unit"])
        code = (
            rng.choice("PN")
            + rng.choice("SC")
            + rng.choice("EC")
            + str(rng.choice([0, 25, 50, 80, 100]))
        )
        halt_policy = rng.choice(["cancel", "drain"])
        # A draw kept for a removed engine option: the candidates it picks
        # are dropped, so every other cell keeps its seeded configuration.
        retired = rng.random() < 0.4
        candidate = Scenario(
            backend=backend,
            kernel=kernel,
            code=code,
            halt_policy=halt_policy,
            failure_prob=rng.choice([0.0, 0.0, 0.15, 0.3]),
            cancel_unneeded=rng.random() < 0.3,
            instances=rng.randint(4, 6) if backend != "bounded" else 4,
            spacing=rng.choice([0.0, 1.0, 2.0]),
            nb_nodes=rng.choice([16, 24]) if backend != "bounded" else 16,
            pct_enabled=rng.choice([30.0, 50.0, 70.0]),
            max_cost=rng.choice([4, 6]),
        )
        if candidate not in seen and not retired:
            seen.add(candidate)
            scenarios.append(candidate)
    return scenarios


SCENARIOS = generate_scenarios()


def test_scenario_coverage():
    """The generated sweep honors the acceptance floor and spans the grid."""
    assert len(SCENARIOS) >= 20
    assert {s.backend for s in SCENARIOS} == {"ideal", "profiled", "bounded"}
    assert {s.kernel for s in SCENARIOS} >= {"coalesced", "per-unit"}
    assert any(s.code.startswith("N") for s in SCENARIOS)  # lazy evaluation
    assert any(s.code.startswith("P") for s in SCENARIOS)  # eager evaluation
    assert {s.code for s in SCENARIOS} >= {"PSE0", "PSE50", "PSE100"}  # PSE* family
    assert any(s.halt_policy == "drain" for s in SCENARIOS)
    assert any(s.failure_prob > 0 for s in SCENARIOS)
    assert any(s.cancel_unneeded for s in SCENARIOS)


# -- the seeded sweep ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.label for s in SCENARIOS])
def test_engines_produce_identical_traces(scenario: Scenario, seed: int):
    reference, _ = scenario.run("reference", seed)
    batched, _ = scenario.run("batched", seed)
    assert_same(reference, batched)
    # Sanity: the scenario actually exercised the engine.
    assert any(done for _, done, _ in reference["values"])


# -- pooled dispatch and the query share cache ---------------------------------
#
# Pooled dispatch promises the *same* observable trace with a cheaper
# drain, and the query cache must behave identically under both drains
# (and both engines).  A curated scenario subset spans all three
# backends, both kernels, a same-instant burst the cache coalesces,
# failures, drain halts, and cancel-unneeded; the full event sequence is
# compared, not a summary.

DISPATCH_SCENARIOS = [
    Scenario(code="PSE50"),
    Scenario(code="PSE100", spacing=0.0),
    Scenario(code="PCE0"),
    Scenario(code="NCC80", halt_policy="drain"),
    Scenario(code="PSC100", spacing=0.0),
    Scenario(code="PSE80", failure_prob=0.2),
    Scenario(code="PCC50", cancel_unneeded=True),
    Scenario(backend="ideal", kernel="per-unit", code="PSE50"),
    Scenario(backend="profiled", code="PSE100", spacing=0.0),
    Scenario(backend="profiled", kernel="per-unit", code="PCE0", halt_policy="drain"),
    Scenario(backend="bounded", code="PSE50", instances=4, nb_nodes=16),
]


def test_dispatch_scenario_coverage():
    assert {s.backend for s in DISPATCH_SCENARIOS} == {"ideal", "profiled", "bounded"}
    assert {s.kernel for s in DISPATCH_SCENARIOS} >= {"coalesced", "per-unit"}
    assert any(s.failure_prob > 0 for s in DISPATCH_SCENARIOS)
    assert any(s.halt_policy == "drain" for s in DISPATCH_SCENARIOS)
    assert any(s.cancel_unneeded for s in DISPATCH_SCENARIOS)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
@pytest.mark.parametrize(
    "scenario", DISPATCH_SCENARIOS, ids=[s.label for s in DISPATCH_SCENARIOS]
)
def test_pooled_dispatch_matches_per_event(scenario, engine_kind, query_cache):
    """dispatch="pooled" × cache on/off is trace-identical to per-event."""
    per_event, _ = scenario.run(engine_kind, 0, cache=query_cache)
    pooled, _ = scenario.run(engine_kind, 0, cache=query_cache, pooled=True)
    assert_same(per_event, pooled)


def test_pooled_dispatch_counters_track_pools():
    """The engine's pool stats move under pooled dispatch and count every
    consumed slot (fired events plus cancelled-in-pool skips)."""
    pattern = scenario_pattern(0)
    sim = Simulation()
    engine = BatchedEngine(pattern.schema, Strategy.parse("PSE100"), IdealDatabase(sim))
    engine.enable_pooled_dispatch()
    for _ in range(8):
        engine.submit_instance(pattern.source_values)
    sim.run()
    assert engine.pooled_batches > 0
    assert engine.pooled_events >= sim.events_executed > 0
    # Uniform sweeps genuinely pool: far fewer batches than events.
    assert engine.pooled_batches < engine.pooled_events


# -- observability is a pure observer -----------------------------------------


@pytest.mark.parametrize("dispatch", ["per-event", "pooled"])
@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
@pytest.mark.parametrize(
    "scenario", DISPATCH_SCENARIOS, ids=[s.label for s in DISPATCH_SCENARIOS]
)
def test_armed_observability_is_trace_identical(scenario, engine_kind, dispatch):
    """Arming the repro.obs tracer + registry must not perturb execution:
    the full observable trace (values, metrics, db work, event sequence,
    end time) is bit-identical to the disarmed run."""
    disarmed, _ = scenario.run(engine_kind, 0, pooled=dispatch == "pooled")
    armed, _ = scenario.run(engine_kind, 0, pooled=dispatch == "pooled", observe=True)
    obs, armed["obs"] = armed["obs"], None  # what arming records is all that may differ
    assert_same(disarmed, armed)
    # ...and the armed run actually recorded something: spans in the
    # flight recorder, counters in the registry.
    assert obs["spans"] > 0
    counters = {c["name"]: c["value"] for c in obs["counters"]}
    assert counters["engine_scheduling_rounds"] > 0
    assert counters["engine_queries_launched"] > 0


def test_armed_cohort_run_counts_forms_and_joins():
    """Cohorted sweeps record cohort lifecycle counters when armed."""
    burst = Scenario(code="PSE100", spacing=0.0, instances=6)
    disarmed, _ = burst.run("batched", 0, cache=True, cohorts=True)
    armed, engine = burst.run("batched", 0, cache=True, cohorts=True, observe=True)
    obs, armed["obs"] = armed["obs"], None  # what arming records is all that may differ
    assert_same(disarmed, armed)
    counters = {c["name"]: c["value"] for c in obs["counters"]}
    assert counters["cohort_forms"] >= 1
    assert counters["cohort_joins"] == engine.cohort_hits > 0


@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
def test_query_cache_cuts_db_work_and_preserves_full_launch_values(engine_kind):
    """On a failure-free full-launch sweep (PSE100: every candidate
    launches, nothing is timing-gated) the cache removes db work without
    touching the resolved values.  This is the narrow decision-value
    check; the cache's general contract is weaker — it changes execution
    *dynamics* (completion timing, %Permitted accounting, failure
    exposure) like any sharing optimization, so cached runs are compared
    against each other (pooled vs per-event, sharded vs plain, engine vs
    engine in the suites above), never bit-for-bit against uncached
    runs outside this scenario."""
    scenario = Scenario(code="PSE100", spacing=0.0, instances=6)
    plain, _ = scenario.run(engine_kind, 1)
    cached, _ = scenario.run(engine_kind, 1, cache=True)
    assert cached["values"] == plain["values"]
    assert cached["database"][0] < plain["database"][0]  # fewer total units


# -- cohort execution ----------------------------------------------------------
#
# Cohort execution promises the *same* observable trace while running one
# representative per (start valuation, strategy, instant) group.  The
# curated ring spans all three backends, same-instant bursts (the cohort
# case) and spaced arrivals (the no-op case), failure injection and the
# bounded backend (outcomes members inherit from the one primary), drain halts,
# cancel-unneeded, and the cache on (lockstep) / off (inert) boundary.

COHORT_SCENARIOS = [
    Scenario(code="PSE100", spacing=0.0),
    Scenario(code="PSE50", spacing=0.0),
    Scenario(code="PSE50", spacing=1.0),
    Scenario(code="PCE0", spacing=0.0),
    Scenario(code="NSE50", spacing=0.0),
    Scenario(code="NCC80", halt_policy="drain", spacing=0.0),
    Scenario(code="PCC50", cancel_unneeded=True, spacing=0.0),
    Scenario(code="PSE80", failure_prob=0.2, spacing=0.0),
    Scenario(code="PSC100", spacing=0.0),
    Scenario(backend="profiled", code="PSE100", spacing=0.0),
    Scenario(backend="profiled", code="PSE50", failure_prob=0.25, spacing=0.0),
    Scenario(backend="bounded", code="PSE50", instances=4, nb_nodes=16, spacing=0.0),
    Scenario(backend="bounded", code="NSE100", instances=4, nb_nodes=16, spacing=0.0),
]


def test_cohort_scenario_coverage():
    assert {s.backend for s in COHORT_SCENARIOS} == {"ideal", "profiled", "bounded"}
    assert any(s.spacing == 0.0 for s in COHORT_SCENARIOS)
    assert any(s.spacing > 0.0 for s in COHORT_SCENARIOS)
    assert any(s.failure_prob > 0 for s in COHORT_SCENARIOS)
    assert any(s.halt_policy == "drain" for s in COHORT_SCENARIOS)
    assert any(s.cancel_unneeded for s in COHORT_SCENARIOS)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
@pytest.mark.parametrize(
    "scenario", COHORT_SCENARIOS, ids=[s.label for s in COHORT_SCENARIOS]
)
def test_cohorts_match_individual_execution(scenario, engine_kind, query_cache):
    """cohorts=True is trace-identical to individual execution on both
    engines (a documented no-op on the reference engine)."""
    for seed in range(2):
        individual, alone = scenario.run(engine_kind, seed, cache=query_cache)
        cohorted, engine = scenario.run(engine_kind, seed, cache=query_cache, cohorts=True)
        assert_same(individual, cohorted)
        assert (alone.cohort_hits, alone.cohort_splits) == (0, 0)
        if engine_kind == "reference":
            assert (engine.cohort_hits, engine.cohort_splits) == (0, 0)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
def test_cohorts_capture_same_instant_bursts(query_cache):
    """Identical same-instant submissions actually form cohorts, so the
    trace equality above isn't vacuous — given a cache, whose primaries
    members ride: without one the flag is inert."""
    burst = Scenario(code="PSE100", spacing=0.0)
    _, engine = burst.run("batched", 0, cache=query_cache, cohorts=True)
    assert engine.cohort_hits == (burst.instances - 1 if query_cache else 0)
    assert engine.cohort_splits == 0
    bounded = Scenario(
        backend="bounded", code="PSE100", instances=4, nb_nodes=16, spacing=0.0
    )
    _, engine = bounded.run("batched", 0, cache=query_cache, cohorts=True)
    # Every member stands for followers of the one primary and
    # legitimately inherits its outcome, whatever order the bounded
    # backend completes in.
    assert (engine.cohort_hits > 0) == query_cache
    assert engine.cohort_splits == 0
    spaced = Scenario(code="PSE50", spacing=1.0)
    _, engine = spaced.run("batched", 0, cache=query_cache, cohorts=True)
    assert (engine.cohort_hits, engine.cohort_splits) == (0, 0)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize(
    "scenario",
    [s for s in COHORT_SCENARIOS if s.spacing == 0.0][:6],
    ids=[s.label for s in COHORT_SCENARIOS if s.spacing == 0.0][:6],
)
def test_cohorts_match_under_pooled_dispatch(scenario, query_cache):
    """cohorts × pooled dispatch (the benchmark configuration) stays
    trace-identical to the per-event individual baseline."""
    individual, _ = scenario.run("batched", 0, cache=query_cache)
    cohorted, _ = scenario.run("batched", 0, cache=query_cache, cohorts=True, pooled=True)
    assert_same(individual, cohorted)


@pytest.mark.parametrize("code", ["PCE0", "PSE100", "NSC100", "NCE50"])
@pytest.mark.parametrize("failure_prob", [0.0, 0.4])
def test_handbuilt_schemas_with_synthesis_match(code, failure_prob):
    """Generated patterns are query-only; these schemas mix in synthesis
    tasks and statically disabled branches."""
    for schema, source_values in (diamond_schema(), chain_schema(length=5, cost=2)):
        assert_matches_reference(
            schema,
            code,
            arrivals=[(index * 1.0, source_values) for index in range(4)],
            failure_prob=failure_prob,
            seed=0,
            cache=False,
            cohorts=True,
        )


# -- service-level closed loop -------------------------------------------------


def _run_closed_loop(
    engine_kind: str,
    backend: str,
    code: str,
    seed: int,
    *,
    dispatch: str = "per-event",
    query_cache: bool = False,
) -> dict:
    """The closed loop through the facade, on one engine and dispatch."""
    config = ExecutionConfig.from_code(code, engine=engine_kind, query_cache=query_cache)
    with engine_arms(pooled=dispatch == "pooled"):
        return run_closed_loop(config, backend, seed)


@pytest.mark.parametrize("backend", ["ideal", "profiled"])
@pytest.mark.parametrize("code", ["PSE50", "PSE100"])
def test_closed_loop_service_traces_match(backend: str, code: str):
    for seed in range(3):
        reference = _run_closed_loop("reference", backend, code, seed)
        batched = _run_closed_loop("batched", backend, code, seed)
        assert_same(reference, batched)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("engine_kind", ["reference", "batched"])
@pytest.mark.parametrize("backend", ["ideal", "profiled"])
def test_closed_loop_pooled_matches_per_event(backend, engine_kind, query_cache):
    """The preemption-heavy case: replacement submissions schedule band-0
    starts at the completion instant, which must cut the pooled drain
    short exactly where per-event stepping would interleave them."""
    for seed in range(2):
        per_event = _run_closed_loop(
            engine_kind, backend, "PSE50", seed, query_cache=query_cache
        )
        pooled = _run_closed_loop(
            engine_kind, backend, "PSE50", seed,
            dispatch="pooled", query_cache=query_cache,
        )
        assert_same(per_event, pooled)
