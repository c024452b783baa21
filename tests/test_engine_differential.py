"""Differential harness: the batched engine vs the reference engine.

The :class:`~repro.core.batch_engine.BatchedEngine` replaces the
reference engine's name-keyed instance graphs with compiled-plan arrays.
This suite is the lockdown: seeded *generated* scenarios sweep every
execution dimension — strategy (eager ``P*`` / lazy ``N*`` including the
``PSE*`` parallelism family), result sharing, halt policies, failure
injection, unneeded-cancellation, and all three backends under both DES
kernels — and each scenario runs through both engines, asserting the
full observable trace is identical:

* per-instance completed-value maps (targets *and* intermediates),
* every :class:`InstanceMetrics` counter, including Work and
  finish times (TimeInUnits on the ideal backend), cancellation /
  failure / sharing / speculation / unneeded counts,
* database-level work, completion/cancellation totals, and mean Gmpl,
* the engine-observer event stream, compared both as the per-run
  multiset the contract guarantees and as the exact sequence the
  deterministic DES actually produces.

Both engines drive the *same* database implementations, so times are
required to match exactly (not approximately): a divergence anywhere in
launch ordering would shift submission ids and show up immediately.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields

import pytest

from repro import BatchedEngine, Engine, Simulation, Strategy
from repro.api import DecisionService, ExecutionConfig
from repro.api.backends import Backend
from repro.core.engine import EngineObserver
from repro.core.metrics import InstanceMetrics
from repro.obs import Observability

from tests._support import chain_schema, diamond_schema, make_database, scenario_pattern

ENGINE_CLASSES = {"reference": Engine, "batched": BatchedEngine}

#: Every InstanceMetrics counter participates in the trace comparison.
METRIC_FIELDS = tuple(f.name for f in fields(InstanceMetrics))


class RecordingObserver(EngineObserver):
    """Flattens every observer callback into a comparable event tuple."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_instance_start(self, instance):
        self.events.append(("start", instance.instance_id))

    def on_launch(self, instance, name, *, speculative, shared):
        self.events.append(("launch", instance.instance_id, name, speculative, shared))

    def on_query_done(self, instance, name, *, units, completed):
        self.events.append(("done", instance.instance_id, name, units, completed))

    def on_instance_complete(self, instance):
        self.events.append(("complete", instance.instance_id))


# -- scenario generation -------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One generated execution configuration (seed-independent)."""

    backend: str = "ideal"
    kernel: str = "coalesced"
    code: str = "PSE50"
    halt_policy: str = "cancel"
    share: bool = False
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
        if self.share:
            bits.append("share")
        if self.failure_prob:
            bits.append(f"fail{self.failure_prob:g}")
        if self.cancel_unneeded:
            bits.append("cu")
        bits.append(f"i{self.instances}x{self.spacing:g}")
        return "-".join(bits)


#: Corner cases that must always be present: the paper's eager (P*) and
#: lazy (N*) strategies, the PSE* parallelism family, every backend and
#: kernel, sharing, both halt policies, failures, and cancel-unneeded.
CORNERS = [
    Scenario(code="PSE0"),
    Scenario(code="PSE50"),
    Scenario(code="PSE100", spacing=0.0),
    Scenario(code="PCE0"),
    Scenario(code="NSE50"),
    Scenario(code="NCC80", halt_policy="drain"),
    Scenario(code="PSC100", share=True, spacing=0.0),
    Scenario(code="PSE80", share=True, failure_prob=0.2),
    Scenario(code="PSE50", halt_policy="drain", share=True),
    Scenario(code="PSE50", failure_prob=0.3),
    Scenario(code="PCC50", cancel_unneeded=True),
    Scenario(code="PSE100", cancel_unneeded=True, halt_policy="drain"),
    Scenario(backend="ideal", kernel="per-unit", code="PSE50"),
    Scenario(backend="profiled", code="PSE100", spacing=0.0),
    Scenario(backend="profiled", code="PSE50", share=True, failure_prob=0.25),
    Scenario(backend="profiled", kernel="per-unit", code="PCE0", halt_policy="drain"),
    Scenario(backend="bounded", code="PSE50", instances=4, nb_nodes=16),
    Scenario(backend="bounded", code="NSE100", share=True, instances=4, nb_nodes=16),
]


def generate_scenarios(total: int = 26, seed: int = 20260729) -> list[Scenario]:
    """The corner list topped up with seeded random configurations."""
    rng = random.Random(seed)
    scenarios = list(CORNERS)
    seen = set(scenarios)
    while len(scenarios) < total:
        backend = rng.choice(["ideal", "ideal", "profiled", "bounded"])
        candidate = Scenario(
            backend=backend,
            kernel="coalesced" if backend == "bounded" else rng.choice(["coalesced", "per-unit"]),
            code=(
                rng.choice("PN")
                + rng.choice("SC")
                + rng.choice("EC")
                + str(rng.choice([0, 25, 50, 80, 100]))
            ),
            halt_policy=rng.choice(["cancel", "drain"]),
            share=rng.random() < 0.4,
            failure_prob=rng.choice([0.0, 0.0, 0.15, 0.3]),
            cancel_unneeded=rng.random() < 0.3,
            instances=rng.randint(4, 6) if backend != "bounded" else 4,
            spacing=rng.choice([0.0, 1.0, 2.0]),
            nb_nodes=rng.choice([16, 24]) if backend != "bounded" else 16,
            pct_enabled=rng.choice([30.0, 50.0, 70.0]),
            max_cost=rng.choice([4, 6]),
        )
        if candidate not in seen:
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
    assert any(s.share for s in SCENARIOS)
    assert any(s.halt_policy == "drain" for s in SCENARIOS)
    assert any(s.failure_prob > 0 for s in SCENARIOS)
    assert any(s.cancel_unneeded for s in SCENARIOS)


# -- trace capture -------------------------------------------------------------


def run_scenario(
    engine_kind: str,
    scenario: Scenario,
    seed: int,
    *,
    dispatch: str = "per-event",
    query_cache: bool = False,
    cohorts: bool = False,
    observe: bool = False,
) -> dict:
    """Execute one scenario on one engine; returns the observable trace."""
    pattern = scenario_pattern(
        seed,
        nb_nodes=scenario.nb_nodes,
        pct_enabled=scenario.pct_enabled,
        max_cost=scenario.max_cost,
    )
    sim = Simulation()
    database = make_database(
        scenario.backend, scenario.kernel, sim, seed, scenario.failure_prob
    )
    observer = RecordingObserver()
    engine = ENGINE_CLASSES[engine_kind](
        pattern.schema,
        Strategy.parse(scenario.code, cancel_unneeded=scenario.cancel_unneeded),
        database,
        halt_policy=scenario.halt_policy,
        share_results=scenario.share,
        observer=observer,
        query_cache=query_cache,
        cohorts=cohorts,
        obs=Observability.create() if observe else None,
    )
    if dispatch == "pooled":
        engine.enable_pooled_dispatch()
    for index in range(scenario.instances):
        engine.submit_instance(pattern.source_values, at=index * scenario.spacing)
    sim.run()
    return {
        "cohort_stats": (engine.cohort_hits, engine.cohort_splits),
        "values": [
            (inst.instance_id, inst.done, tuple(sorted(
                (name, repr(value)) for name, value in inst.value_map().items()
            )))
            for inst in engine.instances
        ],
        "metrics": [
            tuple(getattr(inst.metrics, name) for name in METRIC_FIELDS)
            for inst in engine.instances
        ],
        "database": (
            database.total_units,
            database.queries_completed,
            database.queries_cancelled,
            database.queries_failed,
            database.mean_gmpl(),
        ),
        "end_time": sim.now,
        "events": observer.events,
        "obs": (
            {"spans": len(engine.obs.tracer), **engine.obs.registry.snapshot()}
            if observe
            else None
        ),
    }


def assert_traces_identical(reference: dict, batched: dict) -> None:
    assert batched["values"] == reference["values"]
    assert batched["metrics"] == reference["metrics"]
    assert batched["database"] == reference["database"]
    assert batched["end_time"] == reference["end_time"]
    # The contract: observer event *multisets* match.  The deterministic
    # DES makes the stronger sequence equality hold too; assert both so a
    # future ordering regression is caught with the sharper message.
    assert Counter(batched["events"]) == Counter(reference["events"])
    assert batched["events"] == reference["events"]


# -- the seeded sweep ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.label for s in SCENARIOS])
def test_engines_produce_identical_traces(scenario: Scenario, seed: int):
    reference = run_scenario("reference", scenario, seed)
    batched = run_scenario("batched", scenario, seed)
    assert_traces_identical(reference, batched)
    # Sanity: the scenario actually exercised the engine.
    assert any(done for _, done, _ in reference["values"])


# -- pooled dispatch and the query share cache ---------------------------------
#
# Pooled dispatch promises the *same* observable trace with a cheaper
# drain, and the query cache must behave identically under both drains
# (and both engines).  A curated scenario subset spans all three
# backends, both kernels, sharing, failures, drain halts, and
# cancel-unneeded; the full event sequence is compared, not a summary.

DISPATCH_SCENARIOS = [
    Scenario(code="PSE50"),
    Scenario(code="PSE100", spacing=0.0),
    Scenario(code="PCE0"),
    Scenario(code="NCC80", halt_policy="drain"),
    Scenario(code="PSC100", share=True, spacing=0.0),
    Scenario(code="PSE80", share=True, failure_prob=0.2),
    Scenario(code="PCC50", cancel_unneeded=True),
    Scenario(backend="ideal", kernel="per-unit", code="PSE50"),
    Scenario(backend="profiled", code="PSE100", spacing=0.0),
    Scenario(backend="profiled", kernel="per-unit", code="PCE0", halt_policy="drain"),
    Scenario(backend="bounded", code="PSE50", instances=4, nb_nodes=16),
]


def test_dispatch_scenario_coverage():
    assert {s.backend for s in DISPATCH_SCENARIOS} == {"ideal", "profiled", "bounded"}
    assert {s.kernel for s in DISPATCH_SCENARIOS} >= {"coalesced", "per-unit"}
    assert any(s.share for s in DISPATCH_SCENARIOS)
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
    per_event = run_scenario(
        engine_kind, scenario, seed=0, dispatch="per-event", query_cache=query_cache
    )
    pooled = run_scenario(
        engine_kind, scenario, seed=0, dispatch="pooled", query_cache=query_cache
    )
    assert_traces_identical(per_event, pooled)


def test_pooled_dispatch_counters_track_pools():
    """The engine's pool stats move under pooled dispatch and count every
    consumed slot (fired events plus cancelled-in-pool skips)."""
    from repro import BatchedEngine, IdealDatabase

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
    disarmed = run_scenario(engine_kind, scenario, seed=0, dispatch=dispatch)
    armed = run_scenario(
        engine_kind, scenario, seed=0, dispatch=dispatch, observe=True
    )
    assert_traces_identical(disarmed, armed)
    # ...and the armed run actually recorded something: spans in the
    # flight recorder, counters in the registry.
    assert armed["obs"]["spans"] > 0
    counters = {c["name"]: c["value"] for c in armed["obs"]["counters"]}
    assert counters["engine_scheduling_rounds"] > 0
    assert counters["engine_queries_launched"] > 0


def test_armed_cohort_run_counts_forms_and_joins():
    """Cohorted sweeps record cohort lifecycle counters when armed."""
    burst = Scenario(code="PSE100", spacing=0.0, instances=6)
    disarmed = run_scenario("batched", burst, seed=0, query_cache=True, cohorts=True)
    armed = run_scenario(
        "batched", burst, seed=0, query_cache=True, cohorts=True, observe=True
    )
    assert_traces_identical(disarmed, armed)
    counters = {c["name"]: c["value"] for c in armed["obs"]["counters"]}
    assert counters["cohort_forms"] >= 1
    assert counters["cohort_joins"] == armed["cohort_stats"][0] > 0


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
    plain = run_scenario(engine_kind, scenario, seed=1)
    cached = run_scenario(engine_kind, scenario, seed=1, query_cache=True)
    assert cached["values"] == plain["values"]
    assert cached["database"][0] < plain["database"][0]  # fewer total units


# -- cohort execution ----------------------------------------------------------
#
# Cohort execution promises the *same* observable trace while running one
# representative per (start valuation, strategy, instant) group.  The
# curated ring spans all three backends, same-instant bursts (the cohort
# case) and spaced arrivals (the no-op case), failure injection and the
# bounded backend (outcomes members inherit from the one primary), drain halts,
# cancel-unneeded, sharing (the documented fallback to individual
# execution), and the cache on (lockstep) / off (inert) boundary.

COHORT_SCENARIOS = [
    Scenario(code="PSE100", spacing=0.0),
    Scenario(code="PSE50", spacing=0.0),
    Scenario(code="PSE50", spacing=1.0),
    Scenario(code="PCE0", spacing=0.0),
    Scenario(code="NSE50", spacing=0.0),
    Scenario(code="NCC80", halt_policy="drain", spacing=0.0),
    Scenario(code="PCC50", cancel_unneeded=True, spacing=0.0),
    Scenario(code="PSE80", failure_prob=0.2, spacing=0.0),
    Scenario(code="PSC100", share=True, spacing=0.0),
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
    assert any(s.share for s in COHORT_SCENARIOS)
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
        individual = run_scenario(
            engine_kind, scenario, seed=seed, query_cache=query_cache
        )
        cohorted = run_scenario(
            engine_kind, scenario, seed=seed, query_cache=query_cache, cohorts=True
        )
        assert_traces_identical(individual, cohorted)
        assert individual["cohort_stats"] == (0, 0)
        if engine_kind == "reference":
            assert cohorted["cohort_stats"] == (0, 0)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
def test_cohorts_capture_same_instant_bursts(query_cache):
    """Identical same-instant submissions actually form cohorts, so the
    trace equality above isn't vacuous — given a cache, whose primaries
    members ride: without one the flag is inert."""
    burst = Scenario(code="PSE100", spacing=0.0)
    trace = run_scenario("batched", burst, seed=0, query_cache=query_cache, cohorts=True)
    hits, splits = trace["cohort_stats"]
    assert hits == (burst.instances - 1 if query_cache else 0)
    assert splits == 0
    bounded = Scenario(
        backend="bounded", code="PSE100", instances=4, nb_nodes=16, spacing=0.0
    )
    trace = run_scenario(
        "batched", bounded, seed=0, query_cache=query_cache, cohorts=True
    )
    hits, splits = trace["cohort_stats"]
    # Every member stands for followers of the one primary and
    # legitimately inherits its outcome, whatever order the bounded
    # backend completes in.
    assert (hits > 0) == query_cache
    assert splits == 0
    spaced = Scenario(code="PSE50", spacing=1.0)
    trace = run_scenario("batched", spaced, seed=0, query_cache=query_cache, cohorts=True)
    assert trace["cohort_stats"] == (0, 0)


@pytest.mark.parametrize("query_cache", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize(
    "scenario",
    [s for s in COHORT_SCENARIOS if s.spacing == 0.0][:6],
    ids=[s.label for s in COHORT_SCENARIOS if s.spacing == 0.0][:6],
)
def test_cohorts_match_under_pooled_dispatch(scenario, query_cache):
    """cohorts × pooled dispatch (the benchmark configuration) stays
    trace-identical to the per-event individual baseline."""
    individual = run_scenario("batched", scenario, seed=0, query_cache=query_cache)
    cohorted = run_scenario(
        "batched", scenario, seed=0,
        dispatch="pooled", query_cache=query_cache, cohorts=True,
    )
    assert_traces_identical(individual, cohorted)


def _run_handbuilt(engine_kind: str, schema, source_values, code: str,
                   failure_prob: float) -> dict:
    """Generated patterns are query-only; these schemas mix in synthesis
    tasks and statically disabled branches."""
    sim = Simulation()
    database = make_database("ideal", "coalesced", sim, 0, failure_prob)
    observer = RecordingObserver()
    engine = ENGINE_CLASSES[engine_kind](
        schema, Strategy.parse(code), database, observer=observer
    )
    for index in range(4):
        engine.submit_instance(source_values, at=index * 1.0)
    sim.run()
    return {
        "values": [
            tuple(sorted((n, repr(v)) for n, v in inst.value_map().items()))
            for inst in engine.instances
        ],
        "states": [
            tuple(sorted((n, s.value) for n, s in inst.state_map().items()))
            for inst in engine.instances
        ],
        "metrics": [
            tuple(getattr(inst.metrics, name) for name in METRIC_FIELDS)
            for inst in engine.instances
        ],
        "events": observer.events,
    }


@pytest.mark.parametrize("code", ["PCE0", "PSE100", "NSC100", "NCE50"])
@pytest.mark.parametrize("failure_prob", [0.0, 0.4])
def test_handbuilt_schemas_with_synthesis_match(code, failure_prob):
    for schema, source_values in (diamond_schema(), chain_schema(length=5, cost=2)):
        reference = _run_handbuilt("reference", schema, source_values, code, failure_prob)
        batched = _run_handbuilt("batched", schema, source_values, code, failure_prob)
        assert batched == reference


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
    """Closed system through the facade: replacement instances start inside
    completion dispatches, exercising same-instant start/completion ties."""
    pattern = scenario_pattern(seed, nb_nodes=20, pct_enabled=60.0, max_cost=5)
    sim = Simulation()
    database = make_database(backend, "coalesced", sim, seed)
    bundle = Backend(
        backend, sim, database, time_unit="units" if backend == "ideal" else "ms"
    )
    service = DecisionService(
        pattern.schema,
        ExecutionConfig.from_code(
            code,
            engine=engine_kind,
            share_results=True,
            dispatch=dispatch,
            query_cache=query_cache,
        ),
        backend=bundle,
    )
    log = service.attach_log()
    service.run_closed(12, concurrency=3, values=pattern.source_values)
    summary = service.summary()
    return {
        "per_instance": [
            (handle.instance_id, handle.done, handle.metrics.work_units,
             handle.metrics.finish_time, tuple(sorted(handle.result().items(), key=repr)))
            for handle in service.handles
        ],
        "summary": (summary.count, summary.total_work, summary.mean_work,
                    summary.mean_elapsed, summary.mean_queries_launched),
        "events": Counter(
            (type(event).__name__,) + tuple(
                getattr(event, name)
                for name in ("instance_id", "attribute", "units", "completed", "shared")
                if hasattr(event, name)
            )
            for event in log.events
        ),
        "end_time": sim.now,
    }


@pytest.mark.parametrize("backend", ["ideal", "profiled"])
@pytest.mark.parametrize("code", ["PSE50", "PSE100"])
def test_closed_loop_service_traces_match(backend: str, code: str):
    for seed in range(3):
        reference = _run_closed_loop("reference", backend, code, seed)
        batched = _run_closed_loop("batched", backend, code, seed)
        assert batched == reference


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
        assert pooled == per_event
