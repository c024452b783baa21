"""Differential suite: coalesced kernels vs the per-unit reference.

The coalesced :class:`IdealDatabase` / :class:`ProfiledDatabase` kernels
replace one heap event per unit of processing with one completion event
per query.  These tests drive full engine runs — generated schema
patterns, every strategy dimension, both halt policies, result sharing,
and failure injection — through both kernels and assert the *traces*
match: per-instance Work, finish times (the paper's TimeInUnits),
cancellation/completion/failure counts, and the time-weighted mean Gmpl.

The ideal database runs on an integer clock, so its traces must be
bit-identical.  The profiled database accumulates float unit times along
different arithmetic paths (per-event addition vs analytic replanning),
so its times are compared to a tight relative tolerance while all integer
counters stay exact.
"""

from __future__ import annotations

import pytest

from repro import BatchedEngine, Engine, Simulation, Strategy
from repro.obs import Observability

from tests._support import make_database, scenario_pattern

ENGINE_CLASSES = {"reference": Engine, "batched": BatchedEngine}


def run_scenario(
    kernel: str,
    *,
    backend: str = "ideal",
    seed: int = 0,
    code: str = "PSE50",
    halt_policy: str = "cancel",
    share_results: bool = False,
    failure_prob: float = 0.0,
    instances: int = 4,
    spacing: float = 2.0,
    nb_nodes: int = 24,
    pct_enabled: float = 50.0,
    max_cost: int = 6,
    engine: str = "reference",
    cohorts: bool = False,
    observe: bool = False,
):
    """One engine run; returns the full observable trace."""
    pattern = scenario_pattern(
        seed, nb_nodes=nb_nodes, pct_enabled=pct_enabled, max_cost=max_cost
    )
    sim = Simulation()
    database = make_database(backend, kernel, sim, seed, failure_prob)
    engine = ENGINE_CLASSES[engine](
        pattern.schema,
        Strategy.parse(code),
        database,
        halt_policy=halt_policy,
        share_results=share_results,
        cohorts=cohorts,
        obs=Observability.create() if observe else None,
    )
    for index in range(instances):
        engine.submit_instance(pattern.source_values, at=index * spacing)
    sim.run()
    per_instance = [
        (
            inst.instance_id,
            inst.done,
            inst.metrics.work_units,
            inst.metrics.finish_time,
            inst.metrics.queries_launched,
            inst.metrics.queries_completed,
            inst.metrics.queries_cancelled,
            inst.metrics.queries_failed,
            inst.metrics.speculative_wasted_units,
        )
        for inst in engine.instances
    ]
    return {
        "per_instance": per_instance,
        "total_units": database.total_units,
        "queries_completed": database.queries_completed,
        "queries_cancelled": database.queries_cancelled,
        "queries_failed": database.queries_failed,
        "mean_gmpl": database.mean_gmpl(),
        "mean_gmpl_windowed": database.mean_gmpl(since=sim.now / 3.0),
        "end_time": sim.now,
        "events_executed": sim.events_executed,
    }


def assert_traces_match(coalesced: dict, per_unit: dict, *, exact_times: bool) -> None:
    assert len(coalesced["per_instance"]) == len(per_unit["per_instance"])
    for got, want in zip(coalesced["per_instance"], per_unit["per_instance"]):
        # Everything except finish_time is an exact integer/bool/string.
        assert got[:3] == want[:3], f"{got} != {want}"
        assert got[4:] == want[4:], f"{got} != {want}"
        if exact_times:
            assert got[3] == want[3], f"finish time {got[3]} != {want[3]} ({got[0]})"
        else:
            assert got[3] == pytest.approx(want[3], rel=1e-9), got[0]
    for key in ("total_units", "queries_completed", "queries_cancelled", "queries_failed"):
        assert coalesced[key] == per_unit[key], key
    assert coalesced["mean_gmpl"] == pytest.approx(per_unit["mean_gmpl"], rel=1e-9)
    assert coalesced["mean_gmpl_windowed"] == pytest.approx(
        per_unit["mean_gmpl_windowed"], rel=1e-9
    )
    if exact_times:
        assert coalesced["end_time"] == per_unit["end_time"]
    else:
        assert coalesced["end_time"] == pytest.approx(per_unit["end_time"], rel=1e-9)


# -- the seeded sweep ----------------------------------------------------------

#: (backend, strategy code, halt policy, share, failure_prob) × seeds.
SCENARIOS = [
    ("ideal", "PSE50", "cancel", False, 0.0),
    ("ideal", "PSE100", "cancel", False, 0.0),
    ("ideal", "PSC50", "cancel", False, 0.0),
    ("ideal", "PCE0", "cancel", False, 0.0),
    ("ideal", "PCC80", "cancel", False, 0.0),
    ("ideal", "NSE50", "cancel", False, 0.0),
    ("ideal", "PSE50", "drain", False, 0.0),
    ("ideal", "PCC100", "drain", False, 0.0),
    ("ideal", "PSE80", "cancel", True, 0.0),
    ("ideal", "PSE50", "drain", True, 0.0),
    ("ideal", "PSE50", "cancel", False, 0.3),
    ("ideal", "PSE80", "drain", True, 0.2),
    ("profiled", "PSE50", "cancel", False, 0.0),
    ("profiled", "PSE100", "cancel", False, 0.0),
    ("profiled", "PCC50", "cancel", False, 0.0),
    ("profiled", "PSE50", "drain", False, 0.0),
    ("profiled", "PSE80", "cancel", True, 0.0),
    ("profiled", "PSE50", "cancel", False, 0.25),
    ("profiled", "PCE0", "drain", False, 0.0),
    ("profiled", "PSC100", "drain", True, 0.1),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "backend,code,halt_policy,share,failure_prob",
    SCENARIOS,
    ids=[f"{b}-{c}-{h}{'-share' if s else ''}{'-fail' if f else ''}" for b, c, h, s, f in SCENARIOS],
)
def test_kernels_produce_identical_traces(backend, code, halt_policy, share, failure_prob, seed):
    kwargs = dict(
        backend=backend,
        seed=seed,
        code=code,
        halt_policy=halt_policy,
        share_results=share,
        failure_prob=failure_prob,
    )
    coalesced = run_scenario("coalesced", **kwargs)
    per_unit = run_scenario("per-unit", **kwargs)
    assert_traces_match(coalesced, per_unit, exact_times=(backend == "ideal"))


def test_coalesced_executes_far_fewer_events():
    """The point of the rewrite: event count per query drops to O(1)."""
    for backend in ("ideal", "profiled"):
        kwargs = dict(backend=backend, code="PSE100", max_cost=30, instances=6, seed=1)
        coalesced = run_scenario("coalesced", **kwargs)
        per_unit = run_scenario("per-unit", **kwargs)
        assert coalesced["total_units"] == per_unit["total_units"], backend
        assert per_unit["events_executed"] >= 5 * coalesced["events_executed"], backend


def test_concurrent_identical_instances_stress_gmpl_replanning():
    """Many instances arriving together force frequent Gmpl changes."""
    for seed in range(4):
        kwargs = dict(
            backend="profiled",
            code="PSE100",
            instances=8,
            spacing=0.0,
            seed=seed,
            nb_nodes=16,
        )
        coalesced = run_scenario("coalesced", **kwargs)
        per_unit = run_scenario("per-unit", **kwargs)
        assert_traces_match(coalesced, per_unit, exact_times=False)


def _run_closed_loop(kernel: str, backend: str, seed: int, code: str):
    """Closed system: replacement instances start inside completion
    dispatches, which exercises same-instant start/completion ties."""
    from repro.api import DecisionService, ExecutionConfig
    from repro.api.backends import Backend

    pattern = scenario_pattern(seed, nb_nodes=20, pct_enabled=60.0, max_cost=5)
    sim = Simulation()
    database = make_database(backend, kernel, sim, seed, failure_prob=0.0)
    bundle = Backend(backend, sim, database, time_unit="units" if backend == "ideal" else "ms")
    service = DecisionService(pattern.schema, ExecutionConfig.from_code(code), backend=bundle)
    service.run_closed(12, concurrency=3, values=pattern.source_values)
    return {
        "per_instance": [
            (
                handle.instance_id,
                handle.done,
                handle.metrics.work_units,
                handle.metrics.finish_time,
                handle.metrics.queries_launched,
                handle.metrics.queries_completed,
                handle.metrics.queries_cancelled,
                handle.metrics.queries_failed,
                handle.metrics.speculative_wasted_units,
            )
            for handle in service.handles
        ],
        "total_units": database.total_units,
        "queries_completed": database.queries_completed,
        "queries_cancelled": database.queries_cancelled,
        "queries_failed": database.queries_failed,
        "mean_gmpl": database.mean_gmpl(),
        "mean_gmpl_windowed": database.mean_gmpl(since=sim.now / 3.0),
        "end_time": sim.now,
    }


@pytest.mark.parametrize("backend", ["ideal", "profiled"])
@pytest.mark.parametrize("code", ["PSE50", "PSE100"])
def test_closed_loop_traces_match(backend, code):
    for seed in range(3):
        coalesced = _run_closed_loop("coalesced", backend, seed, code)
        per_unit = _run_closed_loop("per-unit", backend, seed, code)
        assert_traces_match(coalesced, per_unit, exact_times=(backend == "ideal"))


def test_sequential_strategy_cancels_match():
    """%Permitted = 0 produces long queues of cancellations on halt."""
    for seed in range(4):
        kwargs = dict(backend="ideal", code="PSE0", instances=6, spacing=1.0, seed=seed)
        coalesced = run_scenario("coalesced", **kwargs)
        per_unit = run_scenario("per-unit", **kwargs)
        assert_traces_match(coalesced, per_unit, exact_times=True)


# -- cohort execution through both kernels -------------------------------------

#: (backend, strategy code, halt policy, failure_prob) — same-instant
#: bursts so cohorts actually form; a failure scenario so copy-on-diverge
#: splits cross the kernel boundary too.
COHORT_KERNEL_SCENARIOS = [
    ("ideal", "PSE100", "cancel", 0.0),
    ("ideal", "PSE50", "drain", 0.0),
    ("ideal", "PSE80", "cancel", 0.25),
    ("profiled", "PSE100", "cancel", 0.0),
    ("profiled", "PSE50", "cancel", 0.2),
]


@pytest.mark.parametrize(
    "backend,code,halt_policy,failure_prob",
    COHORT_KERNEL_SCENARIOS,
    ids=[f"{b}-{c}-{h}{'-fail' if f else ''}" for b, c, h, f in COHORT_KERNEL_SCENARIOS],
)
def test_cohort_traces_match_across_kernels(backend, code, halt_policy, failure_prob):
    """Cohorted batched runs stay kernel-identical — the instance dedupe
    layer must not perturb what either database kernel observes."""
    for seed in range(2):
        kwargs = dict(
            backend=backend,
            seed=seed,
            code=code,
            halt_policy=halt_policy,
            failure_prob=failure_prob,
            instances=6,
            spacing=0.0,
            engine="batched",
            cohorts=True,
        )
        coalesced = run_scenario("coalesced", **kwargs)
        per_unit = run_scenario("per-unit", **kwargs)
        assert_traces_match(coalesced, per_unit, exact_times=(backend == "ideal"))


@pytest.mark.parametrize("kernel", ["coalesced", "per-unit"])
@pytest.mark.parametrize(
    "backend,code,halt_policy,failure_prob",
    COHORT_KERNEL_SCENARIOS,
    ids=[f"{b}-{c}-{h}{'-fail' if f else ''}" for b, c, h, f in COHORT_KERNEL_SCENARIOS],
)
def test_cohorts_invisible_within_each_kernel(kernel, backend, code, halt_policy, failure_prob):
    """Within one kernel, cohorts on vs off is trace-identical — and the
    reference engine (where the flag is a documented no-op) agrees."""
    for seed in range(2):
        kwargs = dict(
            backend=backend,
            seed=seed,
            code=code,
            halt_policy=halt_policy,
            failure_prob=failure_prob,
            instances=6,
            spacing=0.0,
        )
        individual = run_scenario(kernel, engine="batched", cohorts=False, **kwargs)
        cohorted = run_scenario(kernel, engine="batched", cohorts=True, **kwargs)
        assert_traces_match(cohorted, individual, exact_times=True)
        reference = run_scenario(kernel, engine="reference", cohorts=True, **kwargs)
        assert_traces_match(reference, individual, exact_times=True)


@pytest.mark.parametrize("kernel", ["coalesced", "per-unit"])
@pytest.mark.parametrize("engine", ["reference", "batched"])
@pytest.mark.parametrize(
    "backend,code,halt_policy,failure_prob",
    [
        ("ideal", "PSE100", "cancel", 0.0),
        ("profiled", "PSE50", "drain", 0.0),
        ("bounded", "PSE50", "cancel", 0.1),
    ],
    ids=["ideal-PSE100", "profiled-PSE50-drain", "bounded-PSE50-fail"],
)
def test_armed_observability_invisible_on_both_kernels(
    kernel, engine, backend, code, halt_policy, failure_prob
):
    """Arming repro.obs changes nothing the DES kernels can observe:
    same per-instance trace, db totals, mean Gmpl, end time, and — the
    kernel-sharp check — the exact number of calendar events executed."""
    kwargs = dict(
        backend=backend,
        seed=2,
        code=code,
        halt_policy=halt_policy,
        failure_prob=failure_prob,
        engine=engine,
    )
    disarmed = run_scenario(kernel, **kwargs)
    armed = run_scenario(kernel, observe=True, **kwargs)
    assert_traces_match(armed, disarmed, exact_times=True)
    assert armed["events_executed"] == disarmed["events_executed"]
    assert armed["end_time"] == disarmed["end_time"]
